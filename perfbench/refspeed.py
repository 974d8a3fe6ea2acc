"""Timings at a fixed reference host speed.

On a shared host the same work can take a quarter more or less wall
time from one minute to the next, in CPU time as well as wall time.  A
fixed pure-Python reference loop run right beside the work slows down
with it, so each raw time is scaled by how long the reference took
against its nominal duration::

    scaled = raw * NOMINAL_UNIT_S / measured_unit_s

A figure given this way is the time the work would have taken on a
host where one reference unit takes exactly ``NOMINAL_UNIT_S``.  The
reference is sampled *next to each operation* and for about as long as
the operation took, because the host's speed drifts within a second.
"""

from __future__ import annotations

import time

#: Duration of one reference unit on the reference host.
NOMINAL_UNIT_S = 150e-6
#: Upper bound on units per sample (an operation of ~0.3 s).
MAX_UNITS = 2000


def reference_unit() -> int:
    """One unit of fixed interpreter work: dict updates, tuple
    building, a sort, bit operations and small calls -- the mix the
    compiler's solvers spend their time on."""
    table: dict[int, int] = {}
    items: list[tuple[int, int]] = []
    mask = 0
    for index in range(300):
        key = (index * 7919) % 251
        table[key] = table.get(key, 0) + index
        items.append((key, index))
        mask ^= key << (index & 7)
    items.sort()
    return mask + len(table) + items[0][1]


class SpeedMeter:
    """Reference samples beside the work, and the scaling they give."""

    def __init__(self) -> None:
        self.ref_seconds = 0.0
        self.units = 0

    def sample(self, work_seconds: float) -> float:
        """Run about ``work_seconds`` of reference units; returns the
        host-speed factor of this sample (measured / nominal unit
        time, > 1 on a slow host)."""
        count = max(1, min(MAX_UNITS, round(work_seconds / NOMINAL_UNIT_S)))
        started = time.perf_counter()
        for _ in range(count):
            reference_unit()
        elapsed = time.perf_counter() - started
        self.ref_seconds += elapsed
        self.units += count
        return elapsed / count / NOMINAL_UNIT_S

    @property
    def factor(self) -> float:
        """Host-speed factor over every sample so far."""
        if not self.units:
            raise ValueError("no reference samples taken")
        return self.ref_seconds / self.units / NOMINAL_UNIT_S
