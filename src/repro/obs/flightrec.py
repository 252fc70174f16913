"""Flight recorder: an always-on ring of the last N query records.

When an operator asks "what were the slowest queries in the last
minute?", metrics can only answer in aggregate (histogram buckets) and
the tracer only answers if someone had it enabled in advance.  The
flight recorder fills the gap: :func:`repro.obs.hooks.observed_query`
appends one small :class:`QueryRecord` per query — op, ``k``, wall
time, page reads split by level, buffer hits, snapshot epoch, worker
thread, degradation — into a bounded deque, always on, no locks beyond
the GIL-atomic append.

**Tail sampling.**  A query whose wall time breaches the latency
objective (:func:`repro.obs.hooks.set_slo_ms`, default 100 ms) is
flagged ``slow`` (the hooks layer judges it and emits the one
``slo_violation`` WARN event) and *arms* the tracer for the next
``trace_tail`` queries on the main thread: those runs are recorded with
full per-level trace detail (``QueryRecord.levels``, the
:func:`repro.obs.explain.level_breakdown` tallies) even though ambient
tracing is off.  A slow query that was itself armed (e.g. the slowness
repeats) therefore carries its own traversal breakdown.  Arming never
fights an explicitly enabled tracer and never touches worker threads —
the tracer is process-global and single-threaded by design.

::

    from repro.obs import FLIGHT, set_slo_ms

    set_slo_ms(25.0)
    ...
    for rec in FLIGHT.slowest(5):
        print(rec.op, rec.wall_ms, rec.page_reads, rec.levels)
    print(FLIGHT.percentiles())     # {"p50": ..., "p95": ..., ...}
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass

__all__ = ["FLIGHT", "FlightRecorder", "QueryRecord"]

#: Default ring capacity (queries retained).
DEFAULT_CAPACITY = 256

#: How many follow-up queries get full trace detail after a breach.
DEFAULT_TRACE_TAIL = 4

_PERCENTILES = (50, 90, 95, 99)


@dataclass
class QueryRecord:
    """One query as the flight recorder saw it."""

    __slots__ = (
        "query_id", "op", "index_kind", "k", "wall_ms", "page_reads",
        "node_reads", "leaf_reads", "buffer_hits", "distance_computations",
        "epoch", "worker", "degraded_reason", "slow", "traced", "levels",
        "ts",
    )

    query_id: int
    op: str
    index_kind: str
    k: int | None
    wall_ms: float
    page_reads: int
    node_reads: int
    leaf_reads: int
    buffer_hits: int
    distance_computations: int
    epoch: int | None
    worker: str
    degraded_reason: str | None
    slow: bool
    traced: bool
    levels: dict | None
    ts: float

    def to_dict(self) -> dict:
        """A JSON-friendly dict (``/varz``, ``repro slow --format json``)."""
        return {name: getattr(self, name) for name in self.__slots__}


class FlightRecorder:
    """Bounded ring of :class:`QueryRecord` with slow-query tail sampling.

    Parameters
    ----------
    capacity:
        Queries retained (oldest evicted first).
    trace_tail:
        Queries to run under the tracer after each breach (main thread
        only; 0 disables arming).
    """

    def __init__(self, *, capacity: int = DEFAULT_CAPACITY,
                 trace_tail: int = DEFAULT_TRACE_TAIL) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._ring: deque[QueryRecord] = deque(maxlen=capacity)
        self.trace_tail = trace_tail
        self._trace_budget = 0
        self._recorded = 0
        self._slow = 0

    # -- configuration -----------------------------------------------------

    def configure(self, *, capacity=..., trace_tail=...) -> None:
        """Change ring size or sampling knobs (unspecified = keep)."""
        if capacity is not ...:
            if capacity < 1:
                raise ValueError(f"capacity must be positive, got {capacity}")
            self._ring = deque(self._ring, maxlen=capacity)
        if trace_tail is not ...:
            self.trace_tail = trace_tail

    @property
    def capacity(self) -> int:
        """Ring size (records retained)."""
        return self._ring.maxlen or 0

    @property
    def recorded(self) -> int:
        """Queries recorded since process start (ring may hold fewer)."""
        return self._recorded

    @property
    def slow_queries(self) -> int:
        """Queries recorded ``slow`` since start."""
        return self._slow

    # -- tail sampling -------------------------------------------------------

    def should_trace(self) -> bool:
        """Consume one armed-tracing slot, if any (main thread only).

        Called by :func:`~repro.obs.hooks.observed_query` on entry; a
        ``True`` return means the hook should run this query under a
        tracer span and attach the per-level breakdown to its record.
        """
        if self._trace_budget <= 0:
            return False
        if threading.current_thread() is not threading.main_thread():
            return False
        self._trace_budget -= 1
        return True

    def _arm(self) -> None:
        if self.trace_tail > 0:
            self._trace_budget = max(self._trace_budget, self.trace_tail)

    # -- recording -----------------------------------------------------------

    def record(self, *, query_id: int, op: str, index_kind: str,
               k: int | None, wall_ms: float, page_reads: int,
               node_reads: int, leaf_reads: int, buffer_hits: int,
               distance_computations: int, epoch: int | None,
               worker: str, slow: bool = False,
               degraded_reason: str | None = None,
               levels: dict | None = None) -> QueryRecord:
        """Append one query record; a ``slow`` one arms tail tracing."""
        rec = QueryRecord(
            query_id=query_id,
            op=op,
            index_kind=index_kind,
            k=k,
            wall_ms=wall_ms,
            page_reads=page_reads,
            node_reads=node_reads,
            leaf_reads=leaf_reads,
            buffer_hits=buffer_hits,
            distance_computations=distance_computations,
            epoch=epoch,
            worker=worker,
            degraded_reason=degraded_reason,
            slow=slow,
            traced=levels is not None,
            levels=levels,
            ts=time.time(),
        )
        self._ring.append(rec)
        self._recorded += 1
        if slow:
            self._slow += 1
            self._arm()
        return rec

    # -- inspection ------------------------------------------------------------

    def records(self, n: int | None = None) -> list[QueryRecord]:
        """The most recent ``n`` records, oldest first (all when ``None``)."""
        records = list(self._ring)
        if n is not None:
            records = records[-n:]
        return records

    def slowest(self, n: int = 10) -> list[QueryRecord]:
        """The ``n`` slowest retained queries, slowest first."""
        return sorted(self._ring, key=lambda r: r.wall_ms, reverse=True)[:n]

    def percentiles(self, op: str | None = None) -> dict[str, float]:
        """Wall-time percentiles over the retained records.

        ``{"count": N, "p50": ..., "p90": ..., "p95": ..., "p99": ...}``
        in milliseconds, optionally restricted to one ``op``; all-zero
        when nothing matched.
        """
        samples = sorted(
            r.wall_ms for r in self._ring if op is None or r.op == op
        )
        out: dict[str, float] = {"count": float(len(samples))}
        for p in _PERCENTILES:
            if not samples:
                out[f"p{p}"] = 0.0
            else:
                # Nearest-rank on the retained window; no numpy needed.
                rank = min(len(samples) - 1,
                           max(0, round(p / 100 * (len(samples) - 1))))
                out[f"p{p}"] = samples[rank]
        return out

    def summary(self) -> dict:
        """Aggregate view for ``/varz`` and ``repro slow``."""
        by_op: dict[str, int] = {}
        for rec in self._ring:
            by_op[rec.op] = by_op.get(rec.op, 0) + 1
        return {
            "capacity": self.capacity,
            "retained": len(self._ring),
            "recorded": self._recorded,
            "slow_queries": self._slow,
            "trace_tail": self.trace_tail,
            "by_op": by_op,
            "latency_ms": self.percentiles(),
        }

    def reset(self) -> None:
        """Empty the ring and counters (capacity and tail kept)."""
        self._ring.clear()
        self._recorded = 0
        self._slow = 0
        self._trace_budget = 0


FLIGHT = FlightRecorder()
"""The process-wide flight recorder ``observed_query`` records into."""
