"""The timed workloads (tracing off).

Each workload function takes a :class:`Context` and returns a
:class:`Outcome` holding the end-to-end metrics, the operations
attempted and failed, and whether every checked output was correct.
Times are at reference host speed (see :mod:`perfbench.refspeed`).
"""

from __future__ import annotations

import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median, quantiles

from perfbench.checks import (
    CheckError,
    check_listing,
    check_result,
    check_s1_grid,
)
from perfbench.kernels import GenKernel, heavy_kernels, make_kernels
from perfbench.loadgen import drive, poisson_schedule
from perfbench.procs import Server
from perfbench.refspeed import SpeedMeter

#: Times each workload sets up; set-up time is their median.
SETUP_REPEATS = 3
#: serve_mix: requests per second, share of warm hits, warm pool size.
SERVE_RATE = 40.0
SERVE_HIT_SHARE = 0.8
SERVE_POOL = 64
#: serve_mix: share of requests that are heavy misses (see
#: :func:`~perfbench.kernels.heavy_kernels`).
SERVE_HEAVY_SHARE = 0.02


@dataclass
class Context:
    """What a workload run is given."""

    root: Path
    out_dir: Path
    seed: int
    seconds: float
    meter: SpeedMeter = field(default_factory=SpeedMeter)


@dataclass
class Outcome:
    """What a workload run reports."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: The timed metrics again, unscaled (raw host time).
    raw: dict[str, float] = field(default_factory=dict)

    def fail(self, count: int, message: str) -> None:
        """Count ``count`` failed operations, remembering why."""
        self.failed += count
        self.errors.append(message)

    @property
    def correct(self) -> bool:
        return not self.errors


def p99(values: list[float]) -> float:
    """The 99th percentile (exclusive method)."""
    return quantiles(values, n=100)[98]


#: A timing: (raw seconds, host-speed factor of its reference sample).
Timing = tuple[float, float]


def timed(ctx: Context, seconds: float) -> Timing:
    """``seconds`` of work with a reference sample of the same length."""
    return seconds, ctx.meter.sample(seconds)


def seconds_of(timings, scaled: bool) -> list[float]:
    """The timings at reference speed (``scaled``) or as measured."""
    return [raw / factor if scaled else raw for raw, factor in timings]


def setup_seconds(ctx: Context, setups: list[float], scaled: bool) -> float:
    """Median set-up time.  Set-up is mostly process start-up, so it
    is scaled by the whole run's reference speed rather than by one
    sample beside it."""
    return median(setups) / (ctx.meter.factor if scaled else 1.0)


def report(outcome: Outcome, figures) -> None:
    """Fill ``outcome`` from ``figures(scaled)``, which returns
    ``{name: (value, unit)}``; timed values differ between the two."""
    outcome.metrics = figures(True)
    raw = figures(False)
    outcome.raw = {name: value for name, (value, _) in raw.items()
                   if value != outcome.metrics[name][0]}


def children_peak_rss_mb() -> float:
    """Largest resident set of any waited-for child process."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def self_peak_rss_mb() -> float:
    """Largest resident set of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds of a live process so far."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def job_for(kernel: GenKernel):
    """The batch job (compile with simulation) of a generated kernel."""
    from repro.agu.model import AguSpec
    from repro.batch.jobs import BatchJob

    return BatchJob(name=kernel.name,
                    spec=AguSpec(kernel.registers, kernel.modify_range),
                    source=kernel.source)


def compile_request(kernel: GenKernel) -> dict:
    """The serve protocol request of a generated kernel, with listing."""
    return {"op": "compile", "source": kernel.source, "name": kernel.name,
            "registers": kernel.registers,
            "modify_range": kernel.modify_range, "listing": True}


# ----------------------------------------------------------------------
# s1_grid
# ----------------------------------------------------------------------
def _time_fresh_import(ctx: Context) -> float:
    """Seconds for a fresh interpreter to import the EXP-S1 entry
    point."""
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c",
                    "import repro.analysis.experiments"],
                   check=True, cwd=ctx.out_dir,
                   env={"PYTHONPATH": str(ctx.root / "src")})
    return time.perf_counter() - started


def run_s1_pass(ctx: Context, config) -> tuple[object, list[Timing]]:
    """One cold EXP-S1 grid pass through the program's entry point;
    returns the summary and each grid point's timing (a reference
    sample follows every grid point)."""
    from repro.analysis.experiments import run_statistical_comparison
    from repro.batch.cache import InMemoryLRUCache
    from repro.graph.access_graph import cached_access_graph

    cached_access_graph.cache_clear()
    points: list[Timing] = []
    last = [time.perf_counter()]

    def progress(done, total, result) -> None:
        points.append(timed(ctx, time.perf_counter() - last[0]))
        last[0] = time.perf_counter()

    summary = run_statistical_comparison(
        config, cache=InMemoryLRUCache(), progress=progress)
    return summary, points


def s1_grid(ctx: Context) -> Outcome:
    from repro.analysis.experiments import StatisticalConfig

    outcome = Outcome()
    setups = [_time_fresh_import(ctx) for _ in range(SETUP_REPEATS)]
    config = StatisticalConfig(seed=ctx.seed)
    passes = []
    deadline = time.perf_counter() + ctx.seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(run_s1_pass(ctx, config))
        outcome.attempted += len(passes[-1][1])

    total_cost = 0
    try:
        _, total_cost = check_s1_grid(config, passes[0][0])
        for summary, _ in passes[1:]:
            if summary.rows != passes[0][0].rows:
                raise CheckError("grid rows differ between passes")
    except CheckError as error:
        outcome.fail(outcome.attempted, f"s1_grid: {error}")
    patterns = sum(row.n_patterns for row in passes[0][0].rows)
    rss = self_peak_rss_mb()

    def figures(scaled: bool) -> dict:
        points = [seconds for _, timings in passes
                  for seconds in seconds_of(timings, scaled)]
        return {
            "setup_s": (setup_seconds(ctx, setups, scaled), "s"),
            "work_per_s": (median(patterns / sum(seconds_of(timings, scaled))
                                  for _, timings in passes), "1/s"),
            "p50_ms": (1e3 * median(points), "ms"),
            "p99_ms": (1e3 * p99(points), "ms"),
            "miss_p50_ms": (1e3 * median(points), "ms"),
            "agu_overhead": (total_cost, "instr/iter"),
            "peak_rss_mb": (rss, "MB"),
        }

    report(outcome, figures)
    return outcome


# ----------------------------------------------------------------------
# serve_mix
# ----------------------------------------------------------------------
@dataclass
class ServeMix:
    """The seeded request mix of one serve_mix run."""

    pool: list[GenKernel]
    kernels: list[GenKernel]  # per request
    hits: list[bool]  # per request
    offsets: list[float]  # per request, seconds after the start


def make_mix(seed: int, seconds: float) -> ServeMix:
    """``SERVE_RATE * seconds`` requests in a seeded order:
    ``SERVE_HIT_SHARE`` of them repeat the pool kernels round-robin
    (in a seeded order), the rest are fresh kernels.  Among the fresh
    ones, ``SERVE_HEAVY_SHARE`` are
    :func:`~perfbench.kernels.heavy_kernels`, at the same evenly spaced
    places whatever the seed."""
    rng = random.Random(f"serve-mix:{seed}")
    count = max(3, round(SERVE_RATE * seconds))
    heavy = heavy_kernels(max(1, round(SERVE_HEAVY_SHARE * count)))
    n_hits = min(count - len(heavy) - 1, round(SERVE_HIT_SHARE * count))
    slots = [True] * n_hits + [False] * (count - len(heavy) - n_hits)
    rng.shuffle(slots)
    seen = {(kernel.source, kernel.registers, kernel.modify_range)
            for kernel in heavy}
    pool = make_kernels(seed, "pool", SERVE_POOL, seen)
    order = list(pool)
    rng.shuffle(order)
    hit_kernels = (order[index % SERVE_POOL] for index in range(n_hits))
    fresh = iter(make_kernels(seed, "miss", len(slots) - n_hits, seen))
    places = {round((index + 1) * count / (len(heavy) + 1)): kernel
              for index, kernel in enumerate(heavy)}
    slot = iter(slots)
    kernels, hits = [], []
    for index in range(count):
        hit = index not in places and next(slot)
        hits.append(hit)
        kernels.append(places[index] if index in places else
                       next(hit_kernels) if hit else next(fresh))
    return ServeMix(pool, kernels, hits,
                    poisson_schedule(rng, SERVE_RATE, count))


def start_server(ctx: Context, pool, repeats: int = SETUP_REPEATS,
                 ) -> tuple[Server, list[float], list]:
    """Start the server ``repeats`` times (keeping the last), each time
    warming the pool; returns it, the set-up seconds and the last
    warm-up's answers."""
    from repro.batch.serving import ServeClient

    setups = []
    for repeat in range(repeats):
        started = time.perf_counter()
        server = Server(ctx.root, ctx.out_dir, str(repeat))
        try:
            with ServeClient(server.endpoint, pool_size=1) as client:
                answers = [client.compile(
                    kernel.source, name=kernel.name, listing=True,
                    registers=kernel.registers,
                    modify_range=kernel.modify_range) for kernel in pool]
            setups.append(time.perf_counter() - started)
        except BaseException:
            server.stop()
            raise
        if repeat < repeats - 1:
            server.stop()
    return server, setups, answers


class ServeChecker:
    """Checks served answers, interpreting each distinct listing once."""

    def __init__(self) -> None:
        self._checked: dict[tuple, int] = {}

    def check(self, kernel: GenKernel, response: dict,
              want_cached: bool) -> int:
        """Check one answer; returns its unit-cost instructions."""
        from repro.batch.digest import job_digest
        from repro.batch.engine import JobResult

        if response.get("cached") != want_cached:
            raise CheckError(f"{kernel.name}: cached="
                             f"{response.get('cached')}, expected "
                             f"{want_cached}")
        if response.get("digest") != job_digest(job_for(kernel)):
            raise CheckError(f"{kernel.name}: digest mismatch")
        listing = response.get("listing")
        if not isinstance(listing, str):
            raise CheckError(f"{kernel.name}: no listing")
        key = (kernel.source, kernel.registers, kernel.modify_range,
               listing)
        cost = self._checked.get(key)
        if cost is None:
            cost = self._checked[key] = check_listing(listing, kernel)
        result = JobResult(**{**response["result"], "from_cache": False})
        check_result(result, kernel, cost)
        return cost


def serve_mix(ctx: Context) -> Outcome:
    from repro.batch.serving import ServeClient

    outcome = Outcome()
    mix = make_mix(ctx.seed, ctx.seconds)
    server, setups, warm = start_server(ctx, mix.pool)
    try:
        messages = [compile_request(kernel) for kernel in mix.kernels]
        pid = server.process.process.pid
        cpu_before = cpu_seconds(pid)
        run, start = drive(server.endpoint, messages, mix.offsets,
                           ctx.meter)
        server_cpu = cpu_seconds(pid) - cpu_before
        with ServeClient(server.endpoint, pool_size=1) as client:
            stats = client.server_stats()
    finally:
        server.stop()

    checker = ServeChecker()
    costs: dict[str, int] = {}
    for kernel, answer in zip(mix.pool, warm):
        response = {"cached": answer.cached, "digest": answer.digest,
                    "listing": answer.listing,
                    "result": answer.result.payload()}
        try:
            costs[kernel.name] = checker.check(kernel, response, False)
        except CheckError as error:
            outcome.fail(1, f"warm-up: {error}")
    latencies, misses = [], []
    outcome.attempted = len(run.outcomes)
    for kernel, hit, sent in zip(mix.kernels, mix.hits, run.outcomes):
        response = sent.response
        if sent.error is not None or not response or not response.get("ok"):
            outcome.fail(1, f"{kernel.name}: {sent.error or response}")
            continue
        try:
            costs[kernel.name] = checker.check(kernel, response, hit)
        except CheckError as error:
            outcome.fail(1, str(error))
            continue
        latency = (sent.done - sent.due, run.factor(sent, start))
        latencies.append(latency)
        if not hit:
            misses.append(latency)
    if stats.get("busy_rejections"):
        outcome.errors.append(f"{stats['busy_rejections']} busy rejections")
    if len(latencies) < 2 or len(misses) < 1:
        outcome.fail(0, "too few answered requests to report latency")
        return outcome
    cpu = (server_cpu, run.overall_factor())
    rss = children_peak_rss_mb()

    def figures(scaled: bool) -> dict:
        return {
            "setup_s": (setup_seconds(ctx, setups, scaled), "s"),
            "work_per_s": (len(latencies) / seconds_of([cpu], scaled)[0],
                           "1/s"),
            "p50_ms": (1e3 * median(seconds_of(latencies, scaled)), "ms"),
            "p99_ms": (1e3 * p99(seconds_of(latencies, scaled)), "ms"),
            "miss_p50_ms": (1e3 * median(seconds_of(misses, scaled)),
                            "ms"),
            "agu_overhead": (sum(costs.values()), "instr/iter"),
            "peak_rss_mb": (rss, "MB"),
        }

    report(outcome, figures)
    return outcome


WORKLOADS = {
    "s1_grid": s1_grid,
    "serve_mix": serve_mix,
}
