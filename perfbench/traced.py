"""The traced run: per-layer metrics from spans, beside untraced timings.

Every traced run makes the same tour of four components, so each
workload's traced run reports every per-layer metric:

* ``s1``: one untraced and one traced cold EXP-S1 pass (pathcover,
  merging);
* ``compile``: the inline per-kernel compile of generated kernels
  through ``BatchCompiler.compile``, untraced and traced in turn (ir,
  agu, digest, engine);
* ``fleet``: batches through job-serve and two workers into a ``dir:``
  store (cache writes, cluster overhead, shutdown);
* ``serve``: an open-loop run against ``repro-agu serve`` (cache hit
  ratio, transport, late sends, shutdown), then a direct replay of the
  same requests into an in-process ``CompileService.handle_request``,
  untraced and traced (server time, batch wait).

``trace.coverage`` and ``trace.overhead`` describe the workload's own
component (s1_grid: ``s1``; serve_mix: the ``serve`` replay); the
``compile`` component's are also reported as ``trace.compile_coverage``
and ``trace.compile_overhead``.  Coverage is the self time of the layer
spans below the entry point (``BatchCompiler.compile``,
``handle_request``, or the EXP-S1 entry point, whose own time is not
attributed), divided by the traced run's time for the same work;
overhead is traced time divided by untraced time.  Times are at
reference host speed, except the two shutdown times, which are
dominated by waits rather than work.
"""

from __future__ import annotations

import time
from collections import Counter
from pathlib import Path
from statistics import median, quantiles

from perfbench import workloads
from perfbench.checks import (
    REDUCTION_BAND,
    CheckError,
    check_listing,
    check_result,
)
from perfbench.kernels import GenKernel, make_kernels
from perfbench.loadgen import drive
from perfbench.procs import Fleet
from perfbench.tracing import Tracer, instrument
from perfbench.workloads import Context, Outcome, ServeChecker, job_for

#: Generated kernels in the inline compile component, and its rounds.
COMPILE_KERNELS = 64
COMPILE_ROUNDS = 5
#: Worker processes in the fleet, kernels per fleet batch, and the
#: fleet batches in the traced tour.
FLEET_WORKERS = 2
FLEET_BATCH = 32
FLEET_BATCHES = 2
#: Seconds of open-loop serve load in the traced tour.
SERVE_SECONDS = 6.0


class Part:
    """The spans and counts recorded while one traced region ran."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def __enter__(self) -> "Part":
        self.first = len(self.tracer.spans)
        self.counts_before = Counter(self.tracer.counts)
        instrument(self.tracer)
        return self

    def __exit__(self, *exc_info) -> None:
        self.tracer.restore()
        self.spans = self.tracer.spans[self.first:]
        self.counts = self.tracer.counts - self.counts_before

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[1] == name)

    def seconds(self, name: str) -> float:
        return sum(span[3] - span[2] for span in self.spans
                   if span[1] == name)

    def self_seconds(self, name: str) -> float:
        return sum(span[6] for span in self.spans if span[1] == name)

    def mean_ms(self, name: str, factor: float) -> float:
        """Mean duration of one ``name`` call, scaled by ``factor``."""
        calls = self.calls(name)
        return 1e3 * self.seconds(name) / calls / factor if calls else 0.0

    def covered(self, entry: str | None = None,
                request_only: bool = False) -> float:
        """Self seconds of every span except ``entry`` spans (and,
        with ``request_only``, of spans outside any request)."""
        return sum(span[6] for span in self.spans
                   if span[1] != entry
                   and (span[5] is not None or not request_only))


def _s1(ctx: Context, tracer: Tracer, metrics: dict,
        outcome: Outcome) -> tuple[float, float]:
    from repro.analysis.experiments import StatisticalConfig

    config = StatisticalConfig(seed=ctx.seed)
    plain, timings = workloads.run_s1_pass(ctx, config)
    untraced = workloads.seconds_of(timings, True)
    with Part(tracer) as part:
        summary, timings = workloads.run_s1_pass(ctx, config)
    traced = workloads.seconds_of(timings, True)
    raw = sum(workloads.seconds_of(timings, False))
    factor = raw / sum(traced)
    outcome.attempted += 2 * len(timings)
    low, high = REDUCTION_BAND
    if summary.rows != plain.rows:
        outcome.fail(len(timings), "s1: traced grid rows differ from "
                                   "untraced")
    elif not low <= summary.average_reduction_pct <= high:
        outcome.fail(2 * len(timings), f"s1: average reduction "
                     f"{summary.average_reduction_pct:.1f} % outside "
                     f"{low}-{high} %")
    metrics.update({
        "pathcover.phase1_ms": (part.mean_ms("pathcover.phase1", factor),
                                "ms"),
        "pathcover.bnb_nodes": (part.counts["pathcover.bnb_nodes"],
                                "count"),
        "merging.best_pair_ms": (part.mean_ms("merging.best_pair", factor),
                                 "ms"),
        "merging.naive_ms": (part.mean_ms("merging.naive", factor), "ms"),
        "merging.steps": (part.counts["merging.steps"], "count"),
    })
    return part.covered() / raw, sum(traced) / sum(untraced)


def _inline_cost(kernel: GenKernel) -> int:
    """Unit-cost instructions of an inline ``compile_kernel`` of
    ``kernel``, recounted from its interpreted listing."""
    from repro.core.pipeline import compile_kernel

    job = job_for(kernel)
    artifacts = compile_kernel(kernel.source, job.spec, name=kernel.name)
    return check_listing(artifacts.listing, kernel)


def _timed_compile(ctx: Context, jobs) -> tuple[list, float, float]:
    """One inline ``BatchCompiler.compile`` of ``jobs`` from a cold
    cache and memo; returns (results, raw seconds, host-speed
    factor)."""
    from repro.batch.cache import InMemoryLRUCache
    from repro.batch.engine import BatchCompiler
    from repro.graph.access_graph import cached_access_graph

    cached_access_graph.cache_clear()
    compiler = BatchCompiler(cache=InMemoryLRUCache())
    started = time.perf_counter()
    results = compiler.compile(jobs).results
    raw = time.perf_counter() - started
    return results, raw, ctx.meter.sample(raw)


def _compile(ctx: Context, tracer: Tracer, metrics: dict,
             outcome: Outcome) -> tuple[float, float, float]:
    kernels = make_kernels(ctx.seed, "probe", COMPILE_KERNELS)
    jobs = [job_for(kernel) for kernel in kernels]
    untraced, coverage, overhead = [], [], []
    parts, rounds = [], []
    # The warm-up round is not timed: first-call costs are not layers.
    rounds.append(_timed_compile(ctx, jobs)[0])
    for _ in range(COMPILE_ROUNDS):
        results, plain, factor = _timed_compile(ctx, jobs)
        rounds.append(results)
        untraced.append(plain / factor)
        with Part(tracer) as part:
            results, raw, factor = _timed_compile(ctx, jobs)
        rounds.append(results)
        parts.append((part, factor))
        coverage.append(part.covered("engine.compile") / raw)
        # Neighbouring rounds share the host's speed; each reference
        # sample alone is noisier than that.
        overhead.append(raw / plain)
    costs = {}
    for results in rounds:
        outcome.attempted += len(jobs)
        for kernel, result in zip(kernels, results):
            try:
                if kernel.name not in costs:
                    costs[kernel.name] = _inline_cost(kernel)
                check_result(result, kernel, costs[kernel.name])
            except CheckError as error:
                outcome.fail(1, f"compile: {error}")
    part, factor = parts[-1]
    tokens = part.counts["ir.tokens"]
    metrics.update({
        "ir.tokens": (tokens, "count"),
        "ir.lex_us_per_token": (1e6 * part.seconds("ir.lex") / tokens
                                / factor, "us"),
        "ir.parse_ms": (part.mean_ms("ir.parse", factor), "ms"),
        "agu.codegen_ms": (part.mean_ms("agu.codegen", factor), "ms"),
        "agu.listing_ms": (part.mean_ms("agu.listing", factor), "ms"),
        "agu.simulate_ms": (part.mean_ms("agu.simulate", factor), "ms"),
        "agu.accesses_verified": (part.counts["agu.accesses_verified"],
                                  "count"),
        "digest.job_ms": (part.mean_ms("digest.job", factor), "ms"),
        "engine.overhead_ms_per_job": (
            1e3 * median(p.self_seconds("engine.compile") / f
                         for p, f in parts) / len(jobs), "ms"),
        "trace.compile_coverage": (median(coverage), "ratio"),
        "trace.compile_overhead": (median(overhead), "ratio"),
    })
    inline_per_job = median(untraced) / len(jobs)
    return metrics["trace.compile_coverage"][0], \
        metrics["trace.compile_overhead"][0], inline_per_job


def _start_fleet(ctx: Context) -> Fleet:
    """Job-serve and its workers, once a two-job warm-up batch has
    gone through them."""
    from repro.batch.cache import InMemoryLRUCache
    from repro.batch.engine import BatchCompiler

    fleet = Fleet(ctx.root, ctx.out_dir, "trace", FLEET_WORKERS)
    try:
        warm = [job_for(kernel) for kernel in
                make_kernels(ctx.seed, "warm", 2)]
        BatchCompiler(cache=InMemoryLRUCache(),
                      executor=fleet.endpoint).compile(warm)
    except BaseException:
        fleet.stop()
        raise
    return fleet


def _fleet_batch(ctx: Context, endpoint: str, kernels, store: Path):
    """One batch through the fleet into an empty ``dir:`` store;
    returns the results and the batch's wall seconds at reference
    speed (submission to the last result)."""
    from repro.batch.cache import open_cache
    from repro.batch.engine import BatchCompiler

    jobs = [job_for(kernel) for kernel in kernels]
    compiler = BatchCompiler(cache=open_cache(f"dir:{store}"),
                             executor=endpoint)
    results: list = [None] * len(jobs)
    started = time.perf_counter()
    for index, result in compiler.as_completed(jobs):
        results[index] = result
    raw = time.perf_counter() - started
    return results, raw / ctx.meter.sample(raw)


def _check_fleet_result(result, kernel: GenKernel, store) -> None:
    """A fleet result against an inline compile of the same kernel,
    the interpreted listing, and the ``dir:`` store's entry."""
    from repro.batch.digest import job_digest
    from repro.core.pipeline import compile_kernel

    job = job_for(kernel)
    artifacts = compile_kernel(kernel.source, job.spec, name=kernel.name)
    allocation = artifacts.allocation
    simulation = artifacts.simulation
    expected = {
        "digest": job_digest(job),
        "n_accesses": len(artifacts.kernel.pattern),
        "n_registers": kernel.registers,
        "modify_range": kernel.modify_range,
        "k_tilde": allocation.k_tilde,
        "n_registers_used": allocation.n_registers_used,
        "total_cost": allocation.total_cost,
        "overhead_per_iteration": artifacts.overhead_per_iteration,
        "baseline_overhead": None,
        "simulated": True,
        "audit_ok": simulation.overhead_per_iteration
        == allocation.total_cost,
    }
    got = {key: getattr(result, key) for key in expected}
    if got != expected:
        raise CheckError(f"{kernel.name}: fleet {got} != inline {expected}")
    check_result(result, kernel, check_listing(artifacts.listing, kernel))
    if store.get(result.digest) != result.payload():
        raise CheckError(f"{kernel.name}: store entry differs from result")


def _fleet(ctx: Context, tracer: Tracer, metrics: dict,
           inline_per_job: float, outcome: Outcome) -> None:
    from repro.batch.cache import open_cache

    fleet = _start_fleet(ctx)
    batches = []
    try:
        with Part(tracer) as part:
            for index in range(FLEET_BATCHES):
                kernels = make_kernels(ctx.seed, f"tfleet{index}",
                                       FLEET_BATCH)
                store = ctx.out_dir / f"trace-store-{index}"
                results, wall = _fleet_batch(ctx, fleet.endpoint, kernels,
                                             store)
                batches.append((kernels, store, results, wall))
    finally:
        shutdown = fleet.stop()
    for kernels, store, results, _ in batches:
        store = open_cache(f"dir:{store}")
        outcome.attempted += len(kernels)
        for kernel, result in zip(kernels, results):
            try:
                _check_fleet_result(result, kernel, store)
            except CheckError as error:
                outcome.fail(1, f"fleet: {error}")
    jobs = sum(len(batch[0]) for batch in batches)
    walls = sum(batch[3] for batch in batches)
    stored = part.counts["cache.entries_stored"]
    metrics.update({
        "cache.store_ms": (1e3 * part.seconds("cache.store") / stored
                           / ctx.meter.factor, "ms"),
        "cluster.overhead_ms_per_job": (
            1e3 * (FLEET_WORKERS * walls / jobs - inline_per_job), "ms"),
        "cluster.shutdown_s": (shutdown, "s"),
    })


def _replay(ctx: Context, tracer: Tracer | None, pool, messages):
    """Replay ``messages`` into a fresh in-process service, one after
    another (the pool warmed first); returns (scaled seconds of the
    replayed requests, their part or None, the host-speed factor, the
    raw seconds, the batch waits and the responses)."""
    from repro.batch.serving import CompileService

    service = CompileService(port=0)
    try:
        for kernel in pool:
            service.handle_request(workloads.compile_request(kernel))
        waits: list[float] = []
        enqueued: dict[int, float] = {}
        put = service._queue.put_nowait
        compile_batch = service._compiler.compile

        def timed_put(pending) -> None:
            enqueued[id(pending.job)] = time.perf_counter()
            put(pending)

        def timed_compile(jobs):
            now = time.perf_counter()
            waits.extend(now - enqueued.pop(id(job)) for job in jobs
                         if id(job) in enqueued)
            return compile_batch(jobs)

        service._queue.put_nowait = timed_put
        service._compiler.compile = timed_compile
        part = None
        started = time.perf_counter()
        if tracer is None:
            responses = [service.handle_request(message)
                         for message in messages]
        else:
            responses = []
            with Part(tracer) as part:
                for index, message in enumerate(messages):
                    tracer.set_request(index)
                    responses.append(service.handle_request(message))
                tracer.set_request(None)
        raw = time.perf_counter() - started
    finally:
        service.shutdown()
    factor = ctx.meter.sample(raw)
    return raw / factor, part, factor, raw, waits, responses


def _check_answers(mix, responses, label: str, outcome: Outcome,
                   checker: ServeChecker) -> list[bool]:
    """Count and check one answer per request of ``mix``: an error
    frame (busy rejections included) or a missing answer fails, and so
    does an answer the :class:`ServeChecker` refuses.  Returns which
    answers passed."""
    passed = []
    outcome.attempted += len(responses)
    for kernel, hit, response in zip(mix.kernels, mix.hits, responses):
        ok = bool(response) and response.get("ok") is True
        try:
            if not ok:
                raise CheckError(f"{kernel.name}: {response}")
            checker.check(kernel, response, hit)
        except CheckError as error:
            outcome.fail(1, f"{label}: {error}")
            ok = False
        passed.append(ok)
    return passed


def _serve(ctx: Context, tracer: Tracer, metrics: dict,
           outcome: Outcome) -> tuple[float, float]:
    from repro.batch.serving import ServeClient

    mix = workloads.make_mix(ctx.seed, SERVE_SECONDS)
    messages = [workloads.compile_request(kernel) for kernel in mix.kernels]
    server, _, _ = workloads.start_server(ctx, mix.pool, repeats=1)
    try:
        run, start = drive(server.endpoint, messages, mix.offsets,
                           ctx.meter)
        with ServeClient(server.endpoint, pool_size=1) as client:
            stats = client.server_stats()
    finally:
        shutdown = server.stop()
    checker = ServeChecker()
    passed = _check_answers(
        mix, [sent.response if sent.error is None else {"error": sent.error}
              for sent in run.outcomes], "serve", outcome, checker)
    answered = [sent for sent, ok in zip(run.outcomes, passed) if ok]
    round_trip = sum((sent.done - sent.sent) / run.factor(sent, start)
                     for sent in answered) / len(answered)
    late = [(sent.sent - sent.due) / run.factor(sent, start)
            for sent in answered]

    untraced, _, _, _, _, responses = _replay(ctx, None, mix.pool, messages)
    _check_answers(mix, responses, "replay", outcome, checker)
    traced, part, factor, raw, waits, responses = _replay(
        ctx, tracer, mix.pool, messages)
    _check_answers(mix, responses, "traced replay", outcome, checker)
    server_ms = part.mean_ms("serving.handle", factor)
    cache = stats["cache"]
    lookups = cache["hits"] + cache["misses"]
    queued = stats["requests"] - stats["served_warm"]
    metrics.update({
        "serving.server_ms": (server_ms, "ms"),
        "serving.transport_ms": (1e3 * round_trip - server_ms, "ms"),
        "serving.batch_wait_ms": (1e3 * sum(waits) / len(waits) / factor
                                  if waits else 0.0, "ms"),
        "serving.mean_batch": (queued / stats["batches"]
                               if stats["batches"] else 0.0, "count"),
        "serving.busy_rejections": (stats["busy_rejections"], "count"),
        "serving.shutdown_s": (shutdown, "s"),
        "cache.hit_ratio": (cache["hits"] / lookups if lookups else 0.0,
                            "ratio"),
        "cache.lookups_per_request": (lookups / stats["requests"],
                                      "count"),
        "loadgen.late_p99_ms": (1e3 * quantiles(late, n=100)[98], "ms"),
    })
    coverage = part.covered("serving.handle", request_only=True) / raw
    return coverage, traced / untraced


def run(workload: str, ctx: Context, trace_path: Path) -> Outcome:
    """The traced tour; its coverage figures describe ``workload``."""
    tracer = Tracer()
    metrics: dict = {}
    outcome = Outcome()
    s1 = _s1(ctx, tracer, metrics, outcome)
    compile_coverage, compile_overhead, inline_per_job = \
        _compile(ctx, tracer, metrics, outcome)
    _fleet(ctx, tracer, metrics, inline_per_job, outcome)
    serve = _serve(ctx, tracer, metrics, outcome)
    own = {"s1_grid": s1, "serve_mix": serve}[workload]
    metrics["trace.coverage"] = (own[0], "ratio")
    metrics["trace.overhead"] = (own[1], "ratio")
    tracer.write_jsonl(trace_path)
    outcome.metrics = dict(sorted(metrics.items()))
    return outcome
