"""Instrumentation hooks wired into the storage, index, and search layers.

This module is the single place where the engine's code paths meet the
metrics registry: it pre-registers the metric catalog (see
``docs/OBSERVABILITY.md``) and exposes tiny ``on_*`` functions plus the
:func:`observed_query` context manager that the index base class wraps
around every query entry point.

Design constraints:

* **Cheap when on.**  Per-*operation* granularity only — one timing and
  one counter-delta read per query/insert/build, never per node.  The
  per-node story belongs to the tracer (:mod:`repro.obs.tracer`), which
  is off by default.
* **Near-free when off.**  Every hook starts with one module-global
  boolean test; :func:`set_metrics_enabled` (or the
  ``REPRO_OBS_METRICS=0`` environment variable) turns the whole layer
  into straight-line no-ops.
"""

from __future__ import annotations

import os
import threading
import time

from .events import DEBUG, ERROR, EVENTS, INFO, WARN
from .flightrec import FLIGHT
from .registry import (
    DEFAULT_PAGE_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    REGISTRY,
)

__all__ = [
    "metrics_enabled",
    "set_metrics_enabled",
    "set_slo_ms",
    "slo_ms",
    "observed_query",
    "on_incremental_query",
    "on_flush",
    "on_insert",
    "on_delete",
    "on_split",
    "on_reinsert",
    "on_supernode_growth",
    "on_build",
    "on_checksum_failure",
    "on_wal_append",
    "on_wal_commit",
    "on_wal_recovery",
    "on_degraded",
    "on_epoch_published",
    "on_snapshot_refresh",
    "on_store_poisoned",
    "on_worker_respawned",
    "on_pool_block",
    "on_net_request",
    "on_net_shed",
    "on_net_inflight",
    "on_net_batch_flush",
]

_enabled = os.environ.get("REPRO_OBS_METRICS", "1") != "0"


def metrics_enabled() -> bool:
    """Whether the metric hooks are currently recording."""
    return _enabled


def set_metrics_enabled(flag: bool) -> None:
    """Globally enable/disable the metric hooks (tracing is separate)."""
    global _enabled
    _enabled = bool(flag)


# -- the latency objective ---------------------------------------------

#: The latency objective (ms); :func:`set_slo_ms` changes it.
_slo_ms: float | None = 100.0
_slo_observed = 0
_slo_violated = 0


def set_slo_ms(ms: float | None) -> None:
    """Set the process-wide latency objective in milliseconds.

    The one latency threshold: an observed query, serving-pool block or
    net request slower than this counts toward
    ``repro_slo_violations_total{op=...}`` and
    ``repro_slo_violation_ratio`` and emits one ``slo_violation`` WARN
    event; a query is also flagged ``slow`` in the flight recorder and
    arms its tail tracing.  Default 100 ms; ``None`` turns the check
    off.  A serving pool's workers start with the
    objective in force when the pool was created.
    """
    global _slo_ms
    if ms is not None and ms <= 0:
        raise ValueError(f"slo_ms must be positive, got {ms}")
    _slo_ms = None if ms is None else float(ms)


def slo_ms() -> float | None:
    """The process-wide latency objective (``None`` = off)."""
    return _slo_ms


def _check_slo(op: str, wall_ms: float, query_id: int | None = None,
               **fields) -> bool:
    """Count one operation against the objective; ``True`` on a breach.

    A breach increments the violation counter and emits one
    ``slo_violation`` event carrying ``fields`` besides the common ones.
    """
    global _slo_observed, _slo_violated
    objective = _slo_ms
    if objective is None:
        return False
    _slo_observed += 1
    breached = wall_ms > objective
    if breached:
        _slo_violated += 1
        SLO_VIOLATIONS.labels(op=op).inc()
        EVENTS.emit(
            "slo_violation", level=WARN, op=op, query_id=query_id,
            wall_ms=round(wall_ms, 3), slo_ms=objective, **fields,
        )
    SLO_RATIO.set(_slo_violated / _slo_observed)
    return breached


# ----------------------------------------------------------------------
# metric catalog
# ----------------------------------------------------------------------

QUERIES = REGISTRY.counter(
    "repro_queries_total",
    "Queries served, by index kind and operation",
    ("index_kind", "op"),
)
QUERY_SECONDS = REGISTRY.histogram(
    "repro_query_seconds",
    "Query wall time in seconds",
    ("index_kind", "op"),
    buckets=DEFAULT_TIME_BUCKETS,
)
QUERY_PAGE_READS = REGISTRY.histogram(
    "repro_query_page_reads",
    "Physical pages read per query (the paper's disk-read metric)",
    ("index_kind", "op"),
    buckets=DEFAULT_PAGE_BUCKETS,
)
PAGE_READS = REGISTRY.counter(
    "repro_page_reads_total",
    "Physical page reads, split by tree level",
    ("index_kind", "level"),
)
PAGE_WRITES = REGISTRY.counter(
    "repro_page_writes_total",
    "Physical page writes, split by tree level",
    ("index_kind", "level"),
)
BUFFER_LOOKUPS = REGISTRY.counter(
    "repro_buffer_lookups_total",
    "Buffer pool lookups, by outcome",
    ("index_kind", "outcome"),
)
NODE_CACHE_HIT_RATIO = REGISTRY.gauge(
    "repro_node_cache_hit_ratio",
    "Decoded-node (buffer pool) cache hit ratio over the index lifetime",
    ("index_kind",),
)
DISTANCE_COMPS = REGISTRY.counter(
    "repro_distance_computations_total",
    "Point/region distance evaluations (machine-independent CPU proxy)",
    ("index_kind", "op"),
)
INSERTS = REGISTRY.counter(
    "repro_inserts_total", "Points inserted", ("index_kind",)
)
DELETES = REGISTRY.counter(
    "repro_deletes_total", "Points deleted", ("index_kind",)
)
SPLITS = REGISTRY.counter(
    "repro_node_splits_total",
    "Node splits during insertion, by node kind",
    ("index_kind", "node_kind"),
)
REINSERTS = REGISTRY.counter(
    "repro_forced_reinserts_total",
    "Forced-reinsertion overflow treatments, by node kind",
    ("index_kind", "node_kind"),
)
SUPERNODE_GROWTHS = REGISTRY.counter(
    "repro_supernode_growths_total",
    "X-tree-style supernode growths instead of splits",
    ("index_kind",),
)
BUILDS = REGISTRY.counter(
    "repro_builds_total", "Complete index builds", ("index_kind",)
)
BUILD_SECONDS = REGISTRY.histogram(
    "repro_build_seconds",
    "Wall time of complete index builds",
    ("index_kind",),
    buckets=(0.01, 0.1, 0.5, 1, 5, 10, 30, 60, 300, 1800),
)
INDEX_SIZE = REGISTRY.gauge(
    "repro_index_points", "Points currently stored", ("index_kind",)
)
INDEX_HEIGHT = REGISTRY.gauge(
    "repro_index_height", "Tree height (levels, counting leaves)", ("index_kind",)
)
CHECKSUM_FAILURES = REGISTRY.counter(
    "repro_checksum_failures_total",
    "Pages whose CRC32 verification failed on read (torn or corrupt)",
    (),
)
WAL_COMMITS = REGISTRY.counter(
    "repro_wal_commits_total",
    "Transactions committed through the write-ahead log",
    (),
)
WAL_APPENDED_BYTES = REGISTRY.counter(
    "repro_wal_appended_bytes_total",
    "Bytes appended to the write-ahead log, by record kind",
    ("record",),
)
# _append runs several times per insert: the four children are bound once.
_WAL_APPENDED = {
    kind: WAL_APPENDED_BYTES.labels(record=kind)
    for kind in ("page", "delta", "meta", "marker")
}
WAL_RECOVERED_TXNS = REGISTRY.counter(
    "repro_wal_recovered_txns_total",
    "Committed transactions replayed from the WAL during recovery",
    (),
)
DEGRADED_QUERIES = REGISTRY.counter(
    "repro_degraded_queries_total",
    "Serving-pool queries refused because their shard was lost",
    ("reason",),
)
SNAPSHOT_EPOCH = REGISTRY.gauge(
    "repro_snapshot_epoch",
    "Newest committed epoch published by the store",
    ("index_kind",),
)
SNAPSHOT_REFRESHES = REGISTRY.counter(
    "repro_snapshot_refreshes_total",
    "Snapshot handles re-pinned to a newer committed epoch",
    ("index_kind",),
)
SNAPSHOT_AGE = REGISTRY.gauge(
    "repro_snapshot_age_epochs",
    "Epochs the most recently refreshed snapshot was behind the newest "
    "commit when it refreshed (0 = it was already current)",
    ("index_kind",),
)
SLO_VIOLATIONS = REGISTRY.counter(
    "repro_slo_violations_total",
    "Operations that missed the configured latency objective",
    ("op",),
)
SLO_RATIO = REGISTRY.gauge(
    "repro_slo_violation_ratio",
    "Fraction of SLO-checked operations that missed the objective "
    "since process start",
    (),
)
POOL_BLOCK_SECONDS = REGISTRY.histogram(
    "repro_pool_block_seconds",
    "Serving-pool per-block wall time (one traversal block on one worker)",
    ("op",),
    buckets=DEFAULT_TIME_BUCKETS,
)
SHED_REQUESTS = REGISTRY.counter(
    "repro_shed_requests_total",
    "Requests shed by the query server's admission control, by reason "
    "(overload = in-flight and queue bounds full, deadline = the "
    "X-Repro-Deadline-Ms budget expired before dispatch, draining = "
    "graceful shutdown in progress)",
    ("reason",),
)
NET_REQUESTS = REGISTRY.counter(
    "repro_net_requests_total",
    "Query-server requests answered, by endpoint and HTTP status",
    ("endpoint", "status"),
)
NET_REQUEST_SECONDS = REGISTRY.histogram(
    "repro_net_request_seconds",
    "Query-server request wall time, admission wait included",
    ("endpoint",),
    buckets=DEFAULT_TIME_BUCKETS,
)
NET_INFLIGHT = REGISTRY.gauge(
    "repro_net_inflight_requests",
    "Query-server requests currently executing (admitted, not finished)",
    (),
)
NET_COALESCED = REGISTRY.counter(
    "repro_net_coalesced_total",
    "Requests answered by a batched call shared with at least one "
    "other request (the coalescing scheduler's win counter)",
    ("op",),
)
NET_BATCH_SIZE = REGISTRY.histogram(
    "repro_net_batch_size",
    "Requests answered per group flush (after deadline sheds); a "
    "distribution stuck at 1 means requests rarely overlap",
    ("op",),
    buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
)
NET_BATCH_DELAY_SECONDS = REGISTRY.histogram(
    "repro_net_batch_delay_seconds",
    "Time a group waited for the running call (first arrival to "
    "flush) — the latency a grouped request paid behind it",
    ("op",),
    buckets=DEFAULT_TIME_BUCKETS,
)


# ----------------------------------------------------------------------
# hooks
# ----------------------------------------------------------------------


class _NullObservation:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL = _NullObservation()


class _QueryObservation:
    """Measures one query: wall time + IOStats deltas → registry,
    flight recorder, SLO check, and (at DEBUG) start/finish events."""

    __slots__ = ("_index", "_op", "_k", "_t0", "_before", "_qid",
                 "_span", "_span_cm", "_owns_trace")

    def __init__(self, index, op: str, k: int | None = None) -> None:
        self._index = index
        self._op = op
        self._k = k

    def __enter__(self):
        stats = self._index.stats
        # Plain field reads — cheaper than a full IOStats.snapshot().
        self._before = (
            stats.page_reads,
            stats.node_reads,
            stats.leaf_reads,
            stats.distance_computations,
            stats.buffer_hits,
            stats.buffer_misses,
        )
        self._qid = EVENTS.next_query_id()
        if EVENTS.enabled_for(DEBUG):
            EVENTS.emit(
                "query_start", level=DEBUG, query_id=self._qid,
                op=self._op, index_kind=self._index.NAME, k=self._k,
            )
        # Tail sampling: a recent slow query armed the tracer, so this
        # run is recorded with full per-level trace detail.  Never
        # fights an explicitly enabled tracer (the span nesting and
        # ownership would be ambiguous) and never runs off the main
        # thread (the tracer is process-global and single-threaded).
        self._span = None
        self._span_cm = None
        self._owns_trace = False
        if FLIGHT.should_trace():
            from .tracer import trace

            if not trace.enabled:
                trace.enable()
                self._owns_trace = True
                self._span_cm = trace.span(self._op)
                self._span = self._span_cm.__enter__()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = time.perf_counter() - self._t0
        levels = None
        if self._span_cm is not None:
            self._span_cm.__exit__(exc_type, exc, tb)
            if self._owns_trace:
                from .tracer import trace

                trace.disable()
            if exc_type is None and self._span is not None:
                from .explain import level_breakdown

                levels = level_breakdown(self._span)
        if exc_type is not None:
            EVENTS.emit(
                "query_error", level=WARN, query_id=self._qid,
                op=self._op, error=exc_type.__name__,
            )
            return False
        index, op = self._index, self._op
        kind = index.NAME
        stats = index.stats
        b = self._before
        QUERIES.labels(index_kind=kind, op=op).inc()
        QUERY_SECONDS.labels(index_kind=kind, op=op).observe(elapsed)
        page_reads = stats.page_reads - b[0]
        QUERY_PAGE_READS.labels(index_kind=kind, op=op).observe(page_reads)
        node_reads = stats.node_reads - b[1]
        leaf_reads = stats.leaf_reads - b[2]
        if node_reads:
            PAGE_READS.labels(index_kind=kind, level="node").inc(node_reads)
        if leaf_reads:
            PAGE_READS.labels(index_kind=kind, level="leaf").inc(leaf_reads)
        dists = stats.distance_computations - b[3]
        if dists:
            DISTANCE_COMPS.labels(index_kind=kind, op=op).inc(dists)
        hits = stats.buffer_hits - b[4]
        misses = stats.buffer_misses - b[5]
        if hits:
            BUFFER_LOOKUPS.labels(index_kind=kind, outcome="hit").inc(hits)
        if misses:
            BUFFER_LOOKUPS.labels(index_kind=kind, outcome="miss").inc(misses)
        NODE_CACHE_HIT_RATIO.labels(index_kind=kind).set(stats.hit_ratio)
        wall_ms = elapsed * 1e3
        slow = _check_slo(op, wall_ms, query_id=self._qid, index_kind=kind,
                          page_reads=page_reads, traced=levels is not None)
        FLIGHT.record(
            query_id=self._qid,
            op=op,
            index_kind=kind,
            k=self._k,
            wall_ms=wall_ms,
            page_reads=page_reads,
            node_reads=node_reads,
            leaf_reads=leaf_reads,
            buffer_hits=hits,
            distance_computations=dists,
            epoch=getattr(index, "snapshot_epoch", None),
            worker=threading.current_thread().name,
            slow=slow,
            levels=levels,
        )
        if EVENTS.enabled_for(DEBUG):
            EVENTS.emit(
                "query_finish", level=DEBUG, query_id=self._qid, op=op,
                index_kind=kind, wall_ms=round(wall_ms, 3),
                page_reads=page_reads, buffer_hits=hits,
            )
        return False


def observed_query(index, op: str, k: int | None = None):
    """Context manager timing one query and publishing its cost.

    ``op`` is one of ``knn``, ``range``, ``window``, ``batch_knn``, or
    ``batch_range`` (:func:`on_incremental_query` counts ``incremental``);
    ``k`` (when the operation has one) rides along into the
    flight-recorder record.
    Returns a shared no-op when metrics are disabled.
    """
    if not _enabled:
        return _NULL
    return _QueryObservation(index, op, k)


def on_incremental_query(index) -> None:
    """Count an incremental (``iter_nearest``) query at creation time.

    The generator is consumed lazily, so wall time and page deltas are
    not attributable to a single call site; only the query counter is
    incremented.
    """
    if not _enabled:
        return
    QUERIES.labels(index_kind=index.NAME, op="incremental").inc()


def _sync_writes(index) -> None:
    """Publish the index's physical-write deltas since the last sync.

    Writes are flushed lazily by the write-back buffer, so they cannot
    be attributed to a single operation; instead each mutation hook
    drains whatever accumulated since the previous sync point.
    """
    stats = index.stats
    prev_node, prev_leaf = getattr(index, "_obs_writes_seen", (0, 0))
    node = stats.node_writes - prev_node
    leaf = stats.leaf_writes - prev_leaf
    if node > 0:
        PAGE_WRITES.labels(index_kind=index.NAME, level="node").inc(node)
    if leaf > 0:
        PAGE_WRITES.labels(index_kind=index.NAME, level="leaf").inc(leaf)
    index._obs_writes_seen = (stats.node_writes, stats.leaf_writes)


def on_flush(index) -> None:
    """Publish write counters after a flush (``save()``/``close()``).

    The write-back buffer defers physical writes until eviction or
    flush, so this is where most of ``repro_page_writes_total`` lands.
    """
    if not _enabled:
        return
    _sync_writes(index)


#: index kind -> its (inserts, size, height) children, bound at its first insert.
_insert_children: dict[str, tuple] = {}


def on_insert(index) -> None:
    """Record one point insertion (called by the dynamic engine)."""
    if not _enabled:
        return
    kind = index.NAME
    children = _insert_children.get(kind)
    if children is None:
        children = _insert_children[kind] = (
            INSERTS.labels(index_kind=kind),
            INDEX_SIZE.labels(index_kind=kind),
            INDEX_HEIGHT.labels(index_kind=kind),
        )
    inserts, size, height = children
    inserts.inc()
    size.set(index.size)
    height.set(index.height)
    _sync_writes(index)


def on_delete(index) -> None:
    """Record one point deletion."""
    if not _enabled:
        return
    kind = index.NAME
    DELETES.labels(index_kind=kind).inc()
    INDEX_SIZE.labels(index_kind=kind).set(index.size)
    INDEX_HEIGHT.labels(index_kind=kind).set(index.height)
    _sync_writes(index)


def on_split(index, node) -> None:
    """Record a node split (leaf or internal)."""
    if not _enabled:
        return
    SPLITS.labels(
        index_kind=index.NAME,
        node_kind="leaf" if node.is_leaf else "internal",
    ).inc()


def on_reinsert(index, node) -> None:
    """Record a forced-reinsertion overflow treatment."""
    if not _enabled:
        return
    REINSERTS.labels(
        index_kind=index.NAME,
        node_kind="leaf" if node.is_leaf else "internal",
    ).inc()


def on_supernode_growth(index) -> None:
    """Record an X-tree supernode growth chosen over a split."""
    if not _enabled:
        return
    SUPERNODE_GROWTHS.labels(index_kind=index.NAME).inc()


def on_build(index, points: int, seconds: float) -> None:
    """Record a complete index build."""
    if not _enabled:
        return
    kind = index.NAME
    BUILDS.labels(index_kind=kind).inc()
    BUILD_SECONDS.labels(index_kind=kind).observe(seconds)
    INDEX_SIZE.labels(index_kind=kind).set(index.size)
    INDEX_HEIGHT.labels(index_kind=kind).set(index.height)
    _sync_writes(index)


def on_checksum_failure(page_id: int | None = None) -> None:
    """Record a page failing CRC verification on read."""
    EVENTS.emit("checksum_failure", level=ERROR, page_id=page_id)
    if not _enabled:
        return
    CHECKSUM_FAILURES.inc()


def on_wal_append(record: str, nbytes: int) -> None:
    """Record one log record of kind ``page``/``delta``/``meta``/``marker``."""
    if not _enabled:
        return
    _WAL_APPENDED[record].inc(nbytes)


def on_wal_commit(txn_id: int | None = None, synced: bool = True) -> None:
    """Record a transaction committed through the WAL."""
    if EVENTS.enabled_for(DEBUG):
        EVENTS.emit("wal_commit", level=DEBUG, txn_id=txn_id, synced=synced)
    if not _enabled:
        return
    WAL_COMMITS.inc()


def on_wal_recovery(txns: int, deltas: int = 0) -> None:
    """Record ``txns`` committed transactions replayed during recovery."""
    if txns > 0:
        EVENTS.emit("wal_recovery", level=INFO, replayed_txns=txns,
                    replayed_deltas=deltas)
    if not _enabled or txns <= 0:
        return
    WAL_RECOVERED_TXNS.inc(txns)


def on_degraded(reason: str, n: int = 1) -> None:
    """Record ``n`` queries of a serving-pool shard no worker computed."""
    if n <= 0:
        return
    EVENTS.emit("degraded_scatter", level=WARN, reason=reason, queries=n)
    if not _enabled:
        return
    DEGRADED_QUERIES.labels(reason=reason).inc(n)


def on_epoch_published(index_kind: str, epoch: int) -> None:
    """Record the newest committed epoch after a publish point."""
    if EVENTS.enabled_for(DEBUG):
        EVENTS.emit("epoch_published", level=DEBUG,
                    index_kind=index_kind, epoch=epoch)
    if not _enabled:
        return
    SNAPSHOT_EPOCH.labels(index_kind=index_kind).set(epoch)


def on_snapshot_refresh(index_kind: str, age: int) -> None:
    """Record one snapshot refresh and its post-refresh age in epochs."""
    if EVENTS.enabled_for(DEBUG):
        EVENTS.emit("snapshot_refresh", level=DEBUG,
                    index_kind=index_kind, age=age)
    if not _enabled:
        return
    SNAPSHOT_REFRESHES.labels(index_kind=index_kind).inc()
    SNAPSHOT_AGE.labels(index_kind=index_kind).set(age)


def on_store_poisoned(why: str) -> None:
    """Record a store disabling mutations after a post-commit failure."""
    EVENTS.emit("store_poisoned", level=ERROR, why=why)


def on_worker_respawned(worker: int, reason: str) -> None:
    """Record a serving-pool worker being terminated and replaced.

    A worker process that times out or dies is killed and a fresh one
    is spawned in its place, so the pool returns to full strength
    immediately; ``reason`` (``timeout`` or ``worker_died``) is why its
    shard was lost.
    """
    EVENTS.emit("worker_respawned", level=WARN, worker=worker, reason=reason)


def on_pool_block(op: str, seconds: float) -> None:
    """Record one serving-pool block: latency histogram + SLO check.

    ``op`` is labelled ``pool_knn``/``pool_range`` so pool blocks are
    distinguishable from the per-query histograms recorded inside the
    workers.
    """
    if not _enabled:
        return
    POOL_BLOCK_SECONDS.labels(op=op).observe(seconds)
    _check_slo(op, seconds * 1e3)


def on_net_shed(reason: str) -> None:
    """Record one request shed by the query server's admission control.

    ``reason`` is ``overload`` (in-flight + queue bounds full),
    ``deadline`` (the request's budget expired before dispatch), or
    ``draining`` (graceful shutdown in progress).  The shed request was
    never executed.
    """
    if not _enabled:
        return
    SHED_REQUESTS.labels(reason=reason).inc()


def on_net_request(endpoint: str, status: int, seconds: float) -> None:
    """Record one answered query-server request: counter + latency + SLO.

    ``seconds`` is wall time from arrival to response, admission-queue
    wait included — the latency the *client* observes.  Data-plane
    endpoints are held to the process-wide latency objective (as
    ``net_<endpoint>``); the control-plane ``server``/``stats`` reads
    are exempt.
    """
    if not _enabled:
        return
    NET_REQUESTS.labels(endpoint=endpoint, status=str(status)).inc()
    NET_REQUEST_SECONDS.labels(endpoint=endpoint).observe(seconds)
    if endpoint not in ("server", "stats"):
        _check_slo(f"net_{endpoint}", seconds * 1e3)


def on_net_inflight(n: int) -> None:
    """Track the query server's currently-executing request count."""
    if not _enabled:
        return
    NET_INFLIGHT.set(n)


def on_net_batch_flush(op: str, size: int, queue_delay_s: float,
                       coalesced_requests: int) -> None:
    """Record one group flush by the coalescing scheduler.

    ``size`` is the number of requests answered in the flush (deadline
    sheds excluded), ``queue_delay_s`` how long the group waited for
    the running call, and ``coalesced_requests`` how many of those
    requests shared the call with at least one other (0 for a group of
    one).
    """
    if not _enabled:
        return
    NET_BATCH_SIZE.labels(op=op).observe(size)
    NET_BATCH_DELAY_SECONDS.labels(op=op).observe(queue_delay_s)
    if coalesced_requests:
        NET_COALESCED.labels(op=op).inc(coalesced_requests)
