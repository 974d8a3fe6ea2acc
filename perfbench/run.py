"""Benchmark entry point: one workload run, or a repeat of runs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload s1_grid --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics of the traced run with
``--trace 1``).  ``--repeat N`` instead runs the workload N times in
fresh processes, seeds ``seed .. seed+N-1``, and prints each metric's
median and quartiles.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("s1_grid", "serve_mix")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run N times in fresh processes and print "
                             "each metric's median and quartiles")
    return parser.parse_args(argv)


def _spread_line(name: str, series: list[float], unit: str) -> str:
    middle = median(series)
    low, _, high = quantiles(series, n=4) if len(series) >= 2 \
        else (middle, middle, middle)
    spread = (high - low) / middle if middle else 0.0
    return (f"  {name:<34} median {middle:12.6g} {unit:<10} "
            f"q1 {low:12.6g} q3 {high:12.6g} iqr/median {spread:.4f}")


def _repeat(args) -> int:
    """Run the workload ``args.repeat`` times; print the spreads of
    every metric, scaled and (for timed metrics) raw."""
    values: dict[str, list[float]] = {}
    raw: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    failed = attempted = 0
    for offset in range(args.repeat):
        seed = args.seed + offset
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT)
        if completed.returncode != 0:
            sys.stderr.write(completed.stderr)
            print(f"seed {seed}: exit {completed.returncode}")
            return 1
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{name}={metric['value']:.6g}"
                         for name, metric in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        for line in completed.stderr.splitlines():
            if line.startswith("raw: "):
                for name, value in json.loads(line[5:]).items():
                    raw.setdefault(name, []).append(value)
    print(f"{args.workload}: {args.repeat} runs, {attempted} attempted, "
          f"{failed} failed")
    for name, series in values.items():
        print(_spread_line(name, series, units[name]))
    for name, series in raw.items():
        print(_spread_line(f"{name} (raw)", series, units[name]))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.repeat:
        return _repeat(args)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import traced, workloads

    # A SIGTERM unwinds like an error, so every started process is
    # stopped by the cleanup that owns it.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    out_root = ROOT / ".perfbench_out"
    out_dir = out_root / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    context = workloads.Context(root=ROOT, out_dir=out_dir, seed=args.seed,
                                seconds=args.seconds)
    try:
        if args.trace:
            outcome = traced.run(args.workload, context,
                                 out_root / f"trace-{args.workload}-"
                                            f"{args.seed}.jsonl")
        else:
            outcome = workloads.WORKLOADS[args.workload](context)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    for error in outcome.errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    print("raw: " + json.dumps(outcome.raw), file=sys.stderr)
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
