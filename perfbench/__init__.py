"""A steady benchmark for the compiler, the EXP-S1 grid, the cluster and
the compile service (see README.md; entry point ``run.py``)."""
