"""Open-loop load over at most two connections from one thread.

Requests leave at their seeded due times whether or not earlier ones
have been answered (when both connections are busy, the next request
waits for one, and that wait counts in its latency).  Latency is timed
from the due time, so a stall also charges the requests queued behind
it.  While nothing is in flight and the next request is not yet due,
the same thread runs reference units, so every second of the run has
its own host-speed sample (see :mod:`perfbench.refspeed`).
"""

from __future__ import annotations

import random
import select
import socket
import time
from dataclasses import dataclass, field

from perfbench.refspeed import NOMINAL_UNIT_S, SpeedMeter, reference_unit

#: Seconds a request may wait for its answer before it counts as failed.
REQUEST_TIMEOUT = 30.0
#: Reference units run only when the next request is further away.
_IDLE_MARGIN_S = 0.0005


@dataclass
class Sent:
    """One request as the generator saw it (times in perf_counter s)."""

    due: float
    sent: float = 0.0
    done: float = 0.0
    response: dict | None = None
    error: str | None = None


@dataclass
class LoadRun:
    """Everything one open-loop run produced."""

    outcomes: list[Sent]
    #: Per one-second block of due time: (reference seconds, units).
    blocks: dict[int, list] = field(default_factory=dict)

    def overall_factor(self) -> float:
        """Host-speed factor over the whole run."""
        ref = sum(block[0] for block in self.blocks.values())
        units = sum(block[1] for block in self.blocks.values())
        return ref / units / NOMINAL_UNIT_S

    def factor(self, outcome: Sent, start: float) -> float:
        """Host-speed factor of the block ``outcome`` was due in (the
        run's overall factor when that block holds few samples)."""
        ref, units = self.blocks.get(int(outcome.due - start), (0.0, 0))
        if units < 20:
            return self.overall_factor()
        return ref / units / NOMINAL_UNIT_S


def poisson_schedule(rng: random.Random, rate: float,
                     count: int) -> list[float]:
    """``count`` arrival offsets (s) of a Poisson process at ``rate``/s."""
    offsets, clock = [], 0.0
    for _ in range(count):
        clock += rng.expovariate(rate)
        offsets.append(clock)
    return offsets


def drive(endpoint: str, messages: list[dict], offsets: list[float],
          meter: SpeedMeter, connections: int = 2) -> tuple[LoadRun, float]:
    """Send ``messages[k]`` at ``offsets[k]`` seconds after the start;
    returns the run and its start time.  Reference samples also go to
    ``meter``."""
    from repro.batch.service import parse_endpoint, recv_frame, send_frame
    from repro.errors import BatchError

    host, port, _ = parse_endpoint(endpoint)
    free = [socket.create_connection((host, port), timeout=REQUEST_TIMEOUT)
            for _ in range(connections)]
    busy: dict[socket.socket, int] = {}
    start = time.perf_counter() + 0.05
    run = LoadRun([Sent(due=start + offset) for offset in offsets])
    next_index = 0
    try:
        while next_index < len(messages) or busy:
            now = time.perf_counter()
            if next_index < len(messages) and free \
                    and run.outcomes[next_index].due <= now:
                sock = free.pop()
                outcome = run.outcomes[next_index]
                outcome.sent = now
                send_frame(sock, messages[next_index])
                busy[sock] = next_index
                next_index += 1
                continue
            if not busy:
                if not free:
                    break
                wait = run.outcomes[next_index].due - now
                if wait > _IDLE_MARGIN_S:
                    started = time.perf_counter()
                    reference_unit()
                    elapsed = time.perf_counter() - started
                    block = run.blocks.setdefault(
                        int(started - start), [0.0, 0])
                    block[0] += elapsed
                    block[1] += 1
                    meter.ref_seconds += elapsed
                    meter.units += 1
                continue
            wait = REQUEST_TIMEOUT
            if next_index < len(messages) and free:
                wait = max(0.0, run.outcomes[next_index].due - now)
            readable, _, _ = select.select(list(busy), [], [], wait)
            for sock in readable:
                index = busy.pop(sock)
                outcome = run.outcomes[index]
                try:
                    outcome.response = recv_frame(sock)
                except (OSError, BatchError) as error:
                    outcome.error = f"transport: {error}"
                outcome.done = time.perf_counter()
                if outcome.response is None and outcome.error is None:
                    outcome.error = "connection closed"
                if outcome.error is None:
                    free.append(sock)
                else:
                    sock.close()
            if not readable and not (next_index < len(messages) and free):
                for sock, index in busy.items():
                    run.outcomes[index].error = "timeout"
                    sock.close()
                busy.clear()
    finally:
        for sock in free + list(busy):
            sock.close()
    for outcome in run.outcomes[next_index:]:
        outcome.error = "never sent (no live connection)"
    return run, start
