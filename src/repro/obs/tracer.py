"""Span-based query tracer with per-node visit events.

The tracer answers *why* a query touched the pages it did.  A
:class:`Span` is opened around an operation with a context manager::

    from repro.obs import trace

    trace.enable()
    with trace.span("knn", k=21) as span:
        tree.nearest(query, k=21)
    print(span.wall_ms, len(span.visits))

While a span is active, the storage engine records every page fetch
(page id, level, extent, buffer hit or physical read) and the search
algorithms record every node-visit decision (page id, level, region
MINDIST at pop time, descended-vs-pruned verdict) plus priority-queue
pressure.  :mod:`repro.obs.explain` replays a finished span into a
human-readable tree walk.

**Zero overhead when disabled.**  The instrumentation sites read one
module-global attribute (``trace.active``) and skip on ``None``; with
tracing disabled no span is ever installed, no event objects are
allocated, and ``trace.span(...)`` hands back a shared no-op context
manager.  The I/O *counters* (:class:`~repro.storage.stats.IOStats`)
are independent of the tracer and stay exact either way.

The tracer is deliberately not thread-safe (one active span per
process); per-index engines are single-threaded, and the benchmark
harness drives one query at a time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = [
    "NodeVisit",
    "PageFetch",
    "Span",
    "Tracer",
    "trace",
    "DESCENDED",
    "PRUNED",
]

DESCENDED = "descended"
"""Verdict: the search entered (or enqueued) this child subtree."""

PRUNED = "pruned"
"""Verdict: the search discarded this child on its region MINDIST."""


@dataclass(slots=True)
class PageFetch:
    """One node fetch through the buffer pool while the span was active."""

    page_id: int
    level: int          #: 0 = leaf, increasing toward the root
    pages: int          #: physical pages transferred (supernode extent)
    hit: bool           #: True = served from the buffer pool, no disk read


@dataclass(slots=True)
class NodeVisit:
    """One search decision about a node or child region."""

    page_id: int
    level: int
    mindist: float      #: region MINDIST from the query at decision time
    verdict: str        #: :data:`DESCENDED` or :data:`PRUNED`
    bound: float = float("inf")  #: pruning bound in force at the decision


@dataclass
class Span:
    """One traced operation: wall time plus the event streams."""

    name: str
    labels: dict = field(default_factory=dict)
    start: float = 0.0
    end: float | None = None
    fetches: list[PageFetch] = field(default_factory=list)
    visits: list[NodeVisit] = field(default_factory=list)
    children: list["Span"] = field(default_factory=list)
    queue_pushes: int = 0
    queue_pops: int = 0
    queue_peak: int = 0

    # -- event recording (called from instrumentation sites) ----------

    def page(self, page_id: int, level: int, pages: int, hit: bool) -> None:
        """Record a node fetch (physical read when ``hit`` is False)."""
        self.fetches.append(PageFetch(page_id, level, pages, hit))

    def visit(self, page_id: int, level: int, mindist: float,
              bound: float = float("inf")) -> None:
        """Record that the search descended into / expanded a node."""
        self.visits.append(NodeVisit(page_id, level, mindist, DESCENDED, bound))

    def prune(self, page_id: int, level: int, mindist: float,
              bound: float) -> None:
        """Record that the search discarded a child subtree unvisited."""
        self.visits.append(NodeVisit(page_id, level, mindist, PRUNED, bound))

    def queue(self, depth: int, pushed: int = 0, popped: int = 0) -> None:
        """Record priority-queue pressure after a push/pop batch."""
        self.queue_pushes += pushed
        self.queue_pops += popped
        if depth > self.queue_peak:
            self.queue_peak = depth

    # -- derived measurements -----------------------------------------

    @property
    def wall_seconds(self) -> float:
        """Elapsed wall time (to *now* while the span is still open)."""
        end = self.end if self.end is not None else time.perf_counter()
        return end - self.start

    @property
    def wall_ms(self) -> float:
        """Elapsed wall time in milliseconds."""
        return self.wall_seconds * 1e3

    @property
    def pages_read(self) -> int:
        """Physical pages transferred (buffer misses, extent-weighted)."""
        return sum(f.pages for f in self.fetches if not f.hit)

    @property
    def buffer_hits(self) -> int:
        """Node fetches served from the buffer pool."""
        return sum(1 for f in self.fetches if f.hit)

    @property
    def descended(self) -> list[NodeVisit]:
        return [v for v in self.visits if v.verdict == DESCENDED]

    @property
    def pruned(self) -> list[NodeVisit]:
        return [v for v in self.visits if v.verdict == PRUNED]


class _NullSpanContext:
    """Shared do-nothing context manager returned while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_CONTEXT = _NullSpanContext()


class _SpanContext:
    __slots__ = ("_tracer", "_span", "_parent")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span
        self._parent: Span | None = None

    def __enter__(self) -> Span:
        self._parent = self._tracer.active
        self._tracer.active = self._span
        self._span.start = time.perf_counter()
        return self._span

    def __exit__(self, *exc_info) -> bool:
        self._span.end = time.perf_counter()
        self._tracer.active = self._parent
        if self._parent is not None:
            self._parent.children.append(self._span)
        else:
            self._tracer.last = self._span
        return False


class Tracer:
    """Process-wide tracing switchboard.

    ``active`` is the span currently recording (or ``None``); the
    instrumentation hot paths read it directly.  ``last`` keeps the most
    recently finished *root* span so callers that did not thread the
    span object around (e.g. the CLI) can still EXPLAIN it.
    """

    __slots__ = ("enabled", "active", "last")

    def __init__(self) -> None:
        self.enabled = False
        self.active: Span | None = None
        self.last: Span | None = None

    def enable(self) -> None:
        """Turn tracing on (spans start recording events)."""
        self.enabled = True

    def disable(self) -> None:
        """Turn tracing off; in-flight spans are abandoned."""
        self.enabled = False
        self.active = None

    def span(self, name: str, **labels):
        """Context manager opening a span named ``name``.

        Yields the :class:`Span` while tracing is enabled, or ``None``
        (at effectively zero cost) while disabled.  Spans nest: a span
        opened inside another becomes a child of the enclosing one.
        """
        if not self.enabled:
            return _NULL_CONTEXT
        return _SpanContext(self, Span(name, labels))


trace = Tracer()
"""The process-wide tracer used by every built-in instrumentation site."""
