"""In-memory spans around the calls the benchmark makes into each layer.

A :class:`Tracer` replaces a module attribute or a class method by a
wrapper that records one span per call -- name, start, end, parent span
and request id -- plus optional counts derived from the call's
arguments and result.  Spans nest per thread.  Nothing inside the
program is edited: :func:`instrument` patches the names the program
looks up at call time, and :meth:`Tracer.restore` puts them back.

A span's *self time* is its duration minus the durations of its child
spans (children run on the span's own thread).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter
from pathlib import Path


class Tracer:
    """Spans and counts recorded by wrappers, kept in memory."""

    def __init__(self) -> None:
        #: ``(id, name, start, end, parent, request, self_seconds)``.
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, request: int | None) -> None:
        """Tag the spans this thread opens from now on."""
        self._local.request = request

    def call(self, name: str, func, args, kwargs, count=None):
        """Run ``func`` inside a span called ``name``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else None
        frame = [span_id, 0.0]  # id, child seconds
        stack.append(frame)
        started = time.perf_counter()
        try:
            result = func(*args, **kwargs)
        finally:
            ended = time.perf_counter()
            stack.pop()
            duration = ended - started
            if stack:
                stack[-1][1] += duration
            record = (span_id, name, started, ended, parent,
                      getattr(self._local, "request", None),
                      duration - frame[1])
            with self._lock:
                self.spans.append(record)
        if count is not None:
            increments = count(result, args)
            with self._lock:
                self.counts.update(increments)
        return result

    # -- patching ------------------------------------------------------
    def patch(self, owner, attr: str, name: str, count=None) -> None:
        """Wrap ``owner.attr`` (a module function or a class method)."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return tracer.call(name, original, args, kwargs, count)

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------
    def write_jsonl(self, path: Path) -> None:
        """Write the spans, one JSON object per line."""
        with open(path, "w") as stream:
            for span_id, name, start, end, parent, request, _ in self.spans:
                stream.write(json.dumps(
                    {"id": span_id, "name": name, "start": start,
                     "end": end, "parent": parent,
                     "request": request}) + "\n")


def instrument(tracer: Tracer) -> None:
    """Patch the program's layer boundaries, as the program looks them
    up at call time (each module's own imported names)."""
    import repro.batch.engine as engine
    import repro.batch.jobs as jobs
    import repro.batch.serving as serving
    import repro.core.allocator as allocator
    import repro.core.pipeline as pipeline
    import repro.ir.parser as parser
    from repro.batch.cache import (
        InMemoryLRUCache,
        ShardedDirectoryCache,
        TieredCache,
    )
    from repro.batch.engine import BatchCompiler
    from repro.core.allocator import AddressRegisterAllocator

    def tokens(result, args):
        return {"ir.tokens": len(result)}

    def nodes(result, args):
        return {"pathcover.bnb_nodes": result.nodes_explored}

    def steps(result, args):
        return {"merging.steps": len(result.steps)}

    def verified(result, args):
        return {"agu.accesses_verified": result.n_accesses_verified}

    def stored(result, args):
        entries = args[1]
        return {"cache.entries_stored":
                len(entries) if isinstance(entries, dict) else 1}

    tracer.patch(parser, "tokenize", "ir.lex", tokens)
    for module in (pipeline, jobs):
        tracer.patch(module, "parse_kernel", "ir.parse")
    tracer.patch(AddressRegisterAllocator, "initial_cover",
                 "pathcover.phase1")
    tracer.patch(allocator, "minimum_zero_cost_cover", "pathcover.bnb",
                 nodes)
    for module in (allocator, jobs):
        tracer.patch(module, "best_pair_merge", "merging.best_pair", steps)
        tracer.patch(module, "naive_merge", "merging.naive", steps)
        tracer.patch(module, "cover_cost", "merging.cover_cost")
    tracer.patch(jobs, "generate_batch", "workloads.generate")
    tracer.patch(pipeline, "generate_address_code", "agu.codegen")
    tracer.patch(pipeline, "program_listing", "agu.listing")
    tracer.patch(pipeline, "simulate", "agu.simulate", verified)
    for module in (engine, serving):
        tracer.patch(module, "compile_kernel", "pipeline.compile")
    for module in (engine, jobs, serving):
        tracer.patch(module, "job_digest", "digest.job")
    for cache in (InMemoryLRUCache, TieredCache):
        tracer.patch(cache, "get", "cache.get")
        tracer.patch(cache, "put", "cache.put")
        tracer.patch(cache, "put_many", "cache.put")
    tracer.patch(TieredCache, "get_many", "cache.get")
    tracer.patch(ShardedDirectoryCache, "get", "cache.get")
    tracer.patch(ShardedDirectoryCache, "put", "cache.store", stored)
    tracer.patch(ShardedDirectoryCache, "put_many", "cache.store", stored)
    tracer.patch(BatchCompiler, "compile", "engine.compile")
    tracer.patch(serving.CompileService, "handle_request", "serving.handle")
