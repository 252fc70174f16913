"""The closed-loop load driver and the percentile rule.

A *client* issues one call, waits for its reply, and only then issues the
next, so a slow system receives less load.  A client is any object with

``begin(i)``     untimed; returns ``(kind, ops)``: the label of the ``i``-th call
                 (``"knn"``, ``"insert"``...) and how many operations it
                 carries (a 64-query batch is 64),
``call(i)``      the public-API call itself -- the only thing that is timed,
``done(i, out)`` untimed bookkeeping with the call's return value.

A call that raises counts its operations as failed and records no latency.
"""

from __future__ import annotations

import math
import threading
import traceback
from dataclasses import dataclass, field
from time import perf_counter

MIN_BEYOND = 10  # a percentile is reported only with this many samples beyond it


@dataclass
class Window:
    """What one timed window did: every call, in client order."""

    start: float = math.inf
    end: float = -math.inf
    kinds: list = field(default_factory=list)
    latencies: list = field(default_factory=list)  # seconds, one per completed call
    ops: list = field(default_factory=list)
    attempted_ops: int = 0
    failed_ops: int = 0
    calls_per_client: list = field(default_factory=list)
    errors: list = field(default_factory=list)  # first few tracebacks, for the report

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def completed_ops(self) -> int:
        return self.attempted_ops - self.failed_ops

    def latencies_of(self, *kinds: str) -> list:
        return [s for s, k in zip(self.latencies, self.kinds) if k in kinds]

    def ops_of(self, *kinds: str) -> int:
        return sum(n for n, k in zip(self.ops, self.kinds) if k in kinds)

    def merge(self, other: "Window") -> None:
        self.start = min(self.start, other.start)
        self.end = max(self.end, other.end)
        self.kinds += other.kinds
        self.latencies += other.latencies
        self.ops += other.ops
        self.attempted_ops += other.attempted_ops
        self.failed_ops += other.failed_ops
        self.calls_per_client += other.calls_per_client
        self.errors += other.errors


def _drive_one(client, first: int, max_calls: int | None,
               seconds: float | None, gate: threading.Barrier | None) -> Window:
    window = Window()
    if gate is not None:
        gate.wait()
    window.start = perf_counter()
    deadline = None if seconds is None else window.start + seconds
    i = first
    last = None if max_calls is None else first + max_calls
    while last is None or i < last:
        kind, ops = client.begin(i)
        window.attempted_ops += ops
        began = perf_counter()
        try:
            out = client.call(i)
        except Exception:  # the benchmark must keep running and count it
            window.end = perf_counter()
            window.failed_ops += ops
            if len(window.errors) < 3:
                window.errors.append(traceback.format_exc())
        else:
            window.end = ended = perf_counter()
            window.kinds.append(kind)
            window.latencies.append(ended - began)
            window.ops.append(ops)
            client.done(i, out)
        i += 1
        if deadline is not None and window.end >= deadline:
            break
    window.calls_per_client.append(i - first)
    return window


def run_closed_loop(clients, *, first: int = 0, max_calls: int | None = None,
                    seconds: float | None = None) -> Window:
    """Drive every client from call ``first`` until the stop rule fires.

    Exactly one of ``max_calls`` (per client; the fixed-count mode) and
    ``seconds`` (time-bounded; a call in flight at the deadline completes)
    must be given.  One client runs in the calling thread; several run in
    one thread each, released together by a barrier.
    """
    if (max_calls is None) == (seconds is None):
        raise ValueError("give exactly one of max_calls and seconds")
    if len(clients) == 1:
        return _drive_one(clients[0], first, max_calls, seconds, None)
    gate = threading.Barrier(len(clients))
    windows: list = [None] * len(clients)

    def work(slot: int) -> None:
        windows[slot] = _drive_one(clients[slot], first, max_calls, seconds, gate)

    threads = [threading.Thread(target=work, args=(slot,), name=f"ledger-client-{slot}")
               for slot in range(len(clients))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    merged = Window()
    for window in windows:
        if window is None:
            raise RuntimeError("a client thread died outside a call")
        merged.merge(window)
    return merged


def supports(samples: int, pct: float) -> bool:
    """Whether ``samples`` leave at least MIN_BEYOND samples beyond ``pct``."""
    return samples * (100.0 - pct) / 100.0 >= MIN_BEYOND


def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile; the caller checks :func:`supports` first."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]

