"""The serving pool: one scatter/gather core, thread workers.

A pool serves one index from several workers at once, each with a
**private** handle (buffer pool, :class:`~repro.storage.stats.IOStats`).
Everything a caller sees is implemented once, in :class:`PoolCore`:
argument validation, the query
surface (:meth:`~PoolCore.knn` / :meth:`~PoolCore.range`, their
``*_batch`` forms, :meth:`~PoolCore.window`, :meth:`~PoolCore.lookup`),
contiguous sharding, the deadline-bounded gather, degradation
accounting, ``worker_stats()`` and ``close()``.  The work a worker does
for a shard is one function as well, :func:`_run_blocks` — the block
loop around :func:`~repro.exec.batch.batch_knn` /
:func:`~repro.exec.batch.batch_range` with the per-block transient-I/O
retry.  A backend is a subclass that supplies the worker primitives
listed on :class:`PoolCore`; there are two:

* :class:`ServingPool` (this module) — worker **threads**.  The only
  backend that can serve a live :class:`~repro.api.Database`.
* :class:`~repro.exec.procpool.ProcessServingPool` — worker
  **processes** over a shared memory-mapped file, reached through
  ``ServingPool(path, backend="process")``.

::

    with ServingPool("tree.db", workers=4) as pool:
        answers = pool.knn(queries, k=21)        # batched per worker
    print(pool.stats().page_reads)

    with ServingPool("tree.db", workers=4, backend="process") as pool:
        answers = pool.knn(queries, k=21)        # scales with cores

**Choosing a backend.**  Threads do *not* make SR-tree queries faster
on multiple cores: numpy releases the GIL only inside individual
kernels, and on the small arrays a tree leaf holds (~60×16 floats) the
interpreter-side work between kernels — decode dispatch, candidate
heaps, Python-level traversal — dominates, so the GIL serializes the
workers and the thread pool benchmarks *slower* than one batched
worker.  For CPU-scaling over a saved file use ``backend="process"``.
The thread backend is the right choice when the GIL is not the
bottleneck or processes are impossible:

* serving a **live** database (below): epoch-pinned views share the
  writer's in-process store and cannot cross a process boundary;
* payload values that cannot be pickled;
* latency-over-throughput setups where spawn/respawn cost matters more
  than parallel speedup.

**Live databases.**  Given an open :class:`~repro.api.Database` that
another thread keeps mutating, each thread worker owns an epoch-pinned
:class:`~repro.storage.SnapshotStore` view instead of a separate file
handle, and at the start of every call the pool atomically refreshes
every available worker to one newest *committed* epoch — so a whole
call is answered from one consistent committed prefix of the write
history, never from an in-flight WAL transaction's shadow pages or a
half-applied commit::

    db = Database.open("tree.db", durability="wal")
    with ServingPool(db, workers=4) as pool:   # snapshot-isolated reads
        answers = pool.knn(queries, k=21)      # one epoch per call
    # db stays open; the pool only released its snapshot pins

**Fault handling.**  Serving must stay up when a disk misbehaves, so
every call runs under one resilience policy, whatever the backend:

* a *block* whose read raises
  :class:`~repro.exceptions.TransientIOError` is retried
  ``read_retries`` times with exponential backoff, inside the worker
  (the fault-injection harness models flaky sectors this way);
* a per-*call* ``timeout`` (seconds) bounds how long the gather waits
  for any shard;
* a shard that still fails (exhausted retries, timeout, a crashed /
  corrupt backend, a dead worker) **degrades** instead of failing the
  whole call: its queries come back as empty lists, the loss is counted
  by ``repro_degraded_queries_total{reason=...}``, and callers that
  pass ``with_flags=True`` receive a per-query completeness mask;
* the worker behind a timed-out (or dead) shard is **retired**.  A
  thread cannot be interrupted and is still running against the
  worker's private, non-thread-safe handle, so it is *quarantined*:
  later calls skip it — resharding across the healthy workers — until
  the stale task actually finishes, and if every worker is quarantined
  the whole call degrades (reason ``quarantined``) rather than risking
  two threads on one buffer pool.  A process is killed and respawned
  (see :mod:`repro.exec.procpool`);
* arguments are checked before anything is scattered
  (:func:`~repro.geometry.as_point` / ``as_points`` for coordinates,
  :func:`~repro.exec.batch.per_query` for ``k`` and radius), so no
  worker sees an unchecked one; what a worker still raises (an empty
  index, ``low > high``, a bug) is re-raised in the caller — the same
  class on both backends (:data:`repro.exceptions.RERAISABLE`) — but
  only after every shard of the call has been collected, so no shard
  is left running behind the caller's back.

**Observability caveat.**  The query tracer (:mod:`repro.obs.tracer`)
is deliberately single-threaded; do not enable tracing around pool
calls.  Per-block latencies (``repro_pool_block_seconds``, the pool's
SLO) are observed by the calling thread as it gathers each shard.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError

import numpy as np

from ..exceptions import StorageError, TransientIOError
from ..geometry import as_point, as_points
from ..indexes.base import Neighbor
from ..obs.hooks import (
    on_degraded,
    on_pool_block,
    on_worker_quarantined,
    on_worker_released,
)
from ..storage.stats import IOStats
from .batch import per_query

__all__ = ["PoolCore", "ServingPool"]


def _run_blocks(index, op: str, queries: np.ndarray, params: dict,
                retries: int, backoff: float):
    """Run one shard block by block; returns ``(results, block_times)``.

    This is all a worker does for a call, in a pool thread or in a
    child process.  ``params`` carries ``k`` / ``radius`` as a scalar or
    as a per-query array aligned with ``queries``, sliced per block.
    ``block_times`` entries are ``(wall_ms, queries)``.  A block that
    raises :class:`TransientIOError` is retried with exponential
    backoff, its time spanning the retries; exhausted retries propagate
    and degrade the whole shard.
    """
    from .batch import DEFAULT_BLOCK_SIZE, batch_knn, batch_range

    def of(value, rows):
        return value[rows] if isinstance(value, np.ndarray) else value

    if op == "window":
        # queries is the stacked (2, dims) [low; high] pair: one block.
        step = len(queries)

        def run(rows):
            return [index.window(queries[0], queries[1])]
    elif op == "range":
        step = DEFAULT_BLOCK_SIZE

        def run(rows):
            return batch_range(index, queries[rows],
                               of(params["radius"], rows))
    else:
        step = block_size = params["block_size"] or DEFAULT_BLOCK_SIZE

        def run(rows):
            return batch_knn(index, queries[rows], of(params["k"], rows),
                             block_size=block_size)

    out: list[list[Neighbor]] = []
    times: list[tuple[float, int]] = []
    for start in range(0, len(queries), step):
        rows = slice(start, start + step)
        began = time.perf_counter()
        for attempt in range(retries + 1):
            try:
                block = run(rows)
                break
            except TransientIOError:
                if attempt == retries:
                    raise
                time.sleep(backoff * (2 ** attempt))
        out.extend(block)
        times.append(((time.perf_counter() - began) * 1e3, len(block)))
    return out, times


def _remaining(deadline: float | None) -> float | None:
    """Seconds left until ``deadline`` (``None`` = wait forever)."""
    return None if deadline is None else max(0.0, deadline - time.monotonic())


def _package(results, complete, times, with_flags, with_times, single):
    """``results[, complete][, times]``; a 1-D query unwraps its one row."""
    if single:
        results, complete = results[0], complete[0]
    out = (results, *((complete,) if with_flags else ()),
           *((times,) if with_times else ()))
    return out if len(out) > 1 else results


class PoolCore:
    """Everything the serving-pool backends share.

    Parameters
    ----------
    source:
        What to serve; see the backend classes.
    workers:
        Worker count; defaults to ``min(4, cpu_count)``.
    buffer_capacity:
        Per-worker buffer pool frames (``None`` = store default).
    timeout:
        Per-call deadline in seconds shared by all shards of one call;
        ``None`` (default) waits forever.  A shard that misses the
        deadline degrades (empty results for its queries) and its
        worker is retired.
    read_retries:
        How many times a block is retried after a
        :class:`~repro.exceptions.TransientIOError` (default 2).
    retry_backoff:
        Base sleep between retries, doubled each attempt (seconds).
    slo_ms:
        Per-block latency objective in milliseconds for this pool's
        calls; blocks slower than this count toward
        ``repro_slo_violations_total{op="pool_knn"/"pool_range"}``.
        ``None`` (default) falls back to the process-wide objective
        (:func:`repro.obs.hooks.set_slo_ms`).

    A backend subclass supplies the worker primitives:

    ``_open_workers(source, workers, buffer_capacity)``
        open every worker's handle;
    ``_describe()``
        ``{"dims", "kind", "size"}`` of the served index;
    ``_available()``
        the workers that may take a shard now (default: all of them);
    ``_prepare(available)``
        run before a call's shards go out (default: nothing);
    ``_submit(worker, op, queries, params)``
        start :func:`_run_blocks` on a worker; returns a ticket;
    ``_collect(worker, ticket, deadline)``
        wait for that answer: ``(None, (results, block_times))``, or
        ``(reason, None)`` for a shard that degrades; raises what a
        worker's programming error should raise in the caller;
    ``_retire(worker, reason, ticket)``
        take a worker whose shard degraded out of service if it must be;
    ``_io_stats()`` / ``_health(worker)``
        per-worker :class:`IOStats` and the backend's ``worker_stats``
        fields;
    ``_drop(workers)`` / ``_close_workers()``
        cold-start the given workers; release every worker.
    """

    #: The ``backend=`` name of this class (``"thread"`` / ``"process"``).
    backend: str

    def __init__(
        self,
        source,
        *,
        workers: int | None = None,
        buffer_capacity: int | None = None,
        timeout: float | None = None,
        read_retries: int = 2,
        retry_backoff: float = 0.01,
        slo_ms: float | None = None,
    ) -> None:
        if workers is None:
            workers = min(4, os.cpu_count() or 1)
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        if read_retries < 0:
            raise ValueError(f"read_retries must be >= 0, got {read_retries}")
        if slo_ms is not None and slo_ms <= 0:
            raise ValueError(f"slo_ms must be positive, got {slo_ms}")
        self._timeout = timeout
        self._read_retries = read_retries
        self._retry_backoff = retry_backoff
        self._slo_ms = slo_ms
        self._workers = workers
        self._degraded_queries = 0
        self._closed = False
        self._open_workers(source, workers, buffer_capacity)

    # ------------------------------------------------------------------

    @property
    def workers(self) -> int:
        """Number of workers (== private index handles)."""
        return self._workers

    @property
    def dims(self) -> int:
        """Dimensionality of the served index."""
        return self._describe()["dims"]

    @property
    def kind(self) -> str:
        """Registry name of the served index family."""
        return self._describe()["kind"]

    @property
    def size(self) -> int:
        """Number of points in the served index (worker 0's view)."""
        return self._describe()["size"]

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has completed."""
        return self._closed

    @property
    def degraded_queries(self) -> int:
        """Queries answered with empty (degraded) results so far."""
        return self._degraded_queries

    @property
    def snapshot_epoch(self) -> int | None:
        """Committed epoch the workers are pinned at; ``None`` over a
        saved file, which is immutable and has no epochs."""
        return None

    @property
    def quarantined_workers(self) -> int:
        """Workers currently excluded from calls (0 unless the backend
        quarantines; see :class:`ServingPool`)."""
        return 0

    # ------------------------------------------------------------------

    def knn(self, queries, k: int = 1, *, block_size: int | None = None,
            with_flags: bool = False, with_times: bool = False,
            timeout: float | None = None):
        """The ``k`` nearest neighbors, single query or batch.

        A single 1-D ``point`` returns one ``list[Neighbor]`` — the
        :class:`~repro.api.QuerySurface` contract, same shape as
        ``Database.knn`` — while a 2-D ``(n, dims)`` batch returns one
        list per query (see :meth:`knn_batch` for the keyword details).
        """
        return self._query(
            "knn", queries, np.ndim(queries) == 1,
            {"k": k, "block_size": block_size},
            with_flags, with_times, timeout)

    def knn_batch(self, queries, k: int = 1, *,
                  block_size: int | None = None, with_flags: bool = False,
                  with_times: bool = False, timeout: float | None = None):
        """The ``k`` nearest neighbors of every query, in input order.

        ``k`` is a scalar shared by every query or a ``(Q,)`` array
        with one ``k`` per query.  Each shard runs the block engine in
        blocks of ``block_size`` (default
        :data:`~repro.exec.batch.DEFAULT_BLOCK_SIZE`) queries.

        With ``with_flags=True``, returns ``(results, complete)`` where
        ``complete[i]`` is ``False`` for queries whose shard degraded
        (their results are ``[]``).

        With ``with_times=True``, a list of per-block ``(wall_ms,
        queries)`` pairs is appended to the return value — the *real*
        per-block latencies measured inside the workers (one entry per
        traversal block).  A block appears once; its time spans any
        transient-I/O retries.  Degraded shards report no blocks.

        ``timeout`` overrides the pool-level deadline for this one call
        (the network server propagates each request's remaining
        ``X-Repro-Deadline-Ms`` budget through it).
        """
        return self._query(
            "knn", queries, False,
            {"k": k, "block_size": block_size},
            with_flags, with_times, timeout)

    def range(self, queries, radius: float, *, with_flags: bool = False,
              with_times: bool = False, timeout: float | None = None):
        """All stored points within ``radius``, single query or batch.

        Shapes follow :meth:`knn`: a 1-D point returns one
        ``list[Neighbor]``, a 2-D batch one list per query.
        ``with_flags``/``with_times``/``timeout`` behave as in
        :meth:`knn_batch`.
        """
        return self._query("range", queries, np.ndim(queries) == 1,
                           {"radius": radius}, with_flags, with_times,
                           timeout)

    def range_batch(self, queries, radius, *, with_flags: bool = False,
                    with_times: bool = False, timeout: float | None = None):
        """Batched range query: one result list per query row.

        The :class:`~repro.api.QuerySurface` batch entry point —
        ``radius`` is a scalar shared by every query or a ``(Q,)``
        array with one radius per query.
        """
        return self._query("range", queries, False, {"radius": radius},
                           with_flags, with_times, timeout)

    def window(self, low, high, *, timeout: float | None = None
               ) -> list[Neighbor]:
        """All stored points inside the box ``[low, high]``.

        Runs on one available worker under the same retry / timeout /
        retire policy as the sharded calls; a degraded call returns
        ``[]`` (counted in ``repro_degraded_queries_total``).
        """
        pair = np.stack([as_point(low, self.dims), as_point(high, self.dims)])
        return self._scatter("window", pair, {}, timeout=timeout)[0][0]

    def lookup(self, point, *, timeout: float | None = None) -> list[object]:
        """Exact-match point query: every payload stored at ``point``.

        Same degenerate-window identity as
        :meth:`repro.indexes.base.SpatialIndex.lookup`.
        """
        return [n.value for n in self.window(point, point, timeout=timeout)]

    def _query(self, op: str, queries, single: bool, params: dict,
               with_flags: bool, with_times: bool, timeout):
        """Validate a knn/range call, scatter it, package the answer."""
        queries = (as_point(queries, self.dims)[None] if single
                   else as_points(queries, self.dims))
        name = "k" if op == "knn" else "radius"
        values = per_query(name, params[name], queries.shape[0])
        if np.ndim(params[name]):
            # One value per query is sharded with the queries; a shared
            # scalar crosses to the workers as the scalar it is.
            params[name] = values
        return _package(*self._scatter(op, queries, params, timeout=timeout),
                        with_flags, with_times, single)

    def _scatter(self, op: str, queries: np.ndarray, params: dict, *,
                 timeout: float | None = None):
        """Shard one call over the available workers and gather it.

        Returns ``(results, complete, block_times)`` in input order.
        """
        if self._closed:
            raise RuntimeError("serving pool is closed")
        if timeout is None:
            timeout = self._timeout
        # A window's stacked [low; high] pair is one opaque argument
        # block: it goes intact to one worker and has one result.
        whole = op == "window"
        n = 1 if whole else queries.shape[0]
        results: list[list[Neighbor] | None] = [None] * n
        complete = [True] * n
        times: list[tuple[float, int]] = []
        if n == 0:
            # An empty block is trivially complete: it must not count as
            # degraded even when no worker is available.
            return results, complete, times
        available = self._available()
        if not available:
            self._degrade("quarantined", range(n), results, complete)
            return results, complete, times
        self._prepare(available)
        shards = np.array_split(np.arange(n), len(available))
        pending = []
        for worker, shard in zip(available, shards):
            if shard.size == 0:
                continue
            # Per-query parameter arrays (heterogeneous k/radius) are
            # sliced with the shard so they stay aligned worker-side.
            ticket = self._submit(
                worker, op, queries if whole else queries[shard],
                {name: value[shard] if isinstance(value, np.ndarray)
                 else value for name, value in params.items()})
            pending.append((worker, shard, ticket))
        deadline = None if timeout is None else time.monotonic() + timeout
        error: Exception | None = None
        for worker, shard, ticket in pending:
            try:
                reason, answer = self._collect(worker, ticket, deadline)
            except Exception as exc:  # noqa: BLE001 - a worker's bug
                # The first one is re-raised below, once no shard of
                # this call is still running against a worker's handle.
                error = error or exc
                continue
            if reason is not None:
                self._retire(worker, reason, ticket)
                self._degrade(reason, shard, results, complete)
                continue
            out, block_times = answer
            for pos, qi in enumerate(shard):
                results[qi] = out[pos]
            for wall_ms, _count in block_times:
                on_pool_block(f"pool_{op}", wall_ms / 1e3, self._slo_ms)
            times.extend(block_times)
        if error is not None:
            raise error
        return results, complete, times

    def _degrade(self, reason: str, shard, results, complete) -> None:
        """Answer ``shard``'s queries with empty lists and count them."""
        on_degraded(reason, len(shard))
        self._degraded_queries += len(shard)
        for qi in shard:
            results[qi] = []
            complete[qi] = False

    def _available(self) -> list[int]:
        return list(range(self.workers))

    def _prepare(self, available: list[int]) -> None:
        pass

    # ------------------------------------------------------------------

    def stats(self) -> IOStats:
        """Aggregate I/O counters summed over every worker."""
        total = IOStats()
        for stats in self._io_stats():
            total = total + stats
        return total

    def worker_stats(self) -> list[dict]:
        """Per-worker I/O breakdown (attributes the pool aggregate).

        One dict per worker: page reads split by level, buffer
        outcomes with the worker's own hit ratio, distance
        computations, how many times the worker has entered quarantine
        and whether it is quarantined right now; the process backend
        adds ``pid`` and ``respawns`` — so a skewed pool-level
        ``buffer_hit_ratio`` can be traced to the worker responsible.
        """
        return [{
            "worker": worker,
            "page_reads": stats.page_reads,
            "node_reads": stats.node_reads,
            "leaf_reads": stats.leaf_reads,
            "buffer_hits": stats.buffer_hits,
            "buffer_misses": stats.buffer_misses,
            "buffer_hit_ratio": stats.hit_ratio,
            "distance_computations": stats.distance_computations,
            **self._health(worker),
        } for worker, stats in enumerate(self._io_stats())]

    def drop_caches(self) -> None:
        """Cold-start every available worker (empties buffer pools)."""
        if self._closed:
            raise RuntimeError("serving pool is closed")
        self._drop(self._available())

    def close(self) -> None:
        """Release every worker (idempotent).

        The index is read-only here, so nothing is written back.
        """
        if self._closed:
            return
        self._closed = True
        self._close_workers()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False


class ServingPool(PoolCore):
    """A fixed pool of worker threads, each owning a private index handle.

    Parameters (the rest are :class:`PoolCore`'s)
    ----------
    source:
        Either a page file written by ``index.save()`` / ``repro build``
        (path mode: each worker re-opens the file), or an open
        :class:`~repro.api.Database` (snapshot mode: each worker owns an
        epoch-pinned read-only view of the live index, refreshed to the
        newest committed epoch at the start of every call; closing the
        pool releases the pins but leaves the database open).
    timeout:
        A worker thread that misses the deadline cannot be interrupted
        and finishes in the background, during which the worker is
        quarantined (excluded from later calls) so no second thread
        ever touches its index handle concurrently.
    backend:
        ``"thread"`` (default) uses this class's worker threads;
        ``"process"`` returns a
        :class:`~repro.exec.procpool.ProcessServingPool` instead —
        same query surface, worker *processes* over a shared mmap of
        the saved file (path sources only; scales with cores).  Extra
        keywords (``start_method``, ...) are forwarded to it.
    """

    backend = "thread"

    def __new__(cls, source=None, *, backend: str = "thread", **kwargs):
        if cls is ServingPool and backend == "process":
            from .procpool import ProcessServingPool

            return ProcessServingPool(source, **kwargs)
        return super().__new__(cls)

    def __init__(self, source, *, backend: str = "thread", **kwargs) -> None:
        if backend not in ("thread", "process"):
            raise ValueError(
                f"unknown backend {backend!r}; choose 'thread' or 'process'"
            )
        super().__init__(source, **kwargs)

    def _open_workers(self, source, workers, buffer_capacity) -> None:
        from ..api import Database
        from ..indexes.factory import _open_index

        #: worker -> still-running future of a timed-out shard; the
        #: worker's index handle is off limits until the future is done.
        self._quarantine: dict[int, object] = {}
        #: worker -> how many times it has entered quarantine.
        self._quarantine_counts: dict[int, int] = {}
        self._db = source if isinstance(source, Database) else None
        if self._db is not None:
            self._sync_db()
            self._indexes = [
                source.index.snapshot_view(buffer_capacity=buffer_capacity)
                for _ in range(workers)
            ]
        else:
            self._indexes = [
                _open_index(source, buffer_capacity) for _ in range(workers)
            ]
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )

    def _describe(self) -> dict:
        index = self._indexes[0]
        return {"dims": index.dims, "kind": index.NAME, "size": index.size}

    def _quarantined(self, worker: int) -> bool:
        stale = self._quarantine.get(worker)
        return stale is not None and not stale.done()

    @property
    def snapshot_epoch(self) -> int | None:
        """Committed epoch the workers are pinned at (``None`` in path
        mode): the oldest epoch among the workers not in quarantine, or
        among all of them when every worker is quarantined."""
        if self._db is None:
            return None
        serving = [index for worker, index in enumerate(self._indexes)
                   if not self._quarantined(worker)]
        return min(index.snapshot_epoch for index in serving or self._indexes)

    @property
    def quarantined_workers(self) -> int:
        """Workers currently excluded because a timed-out shard of
        theirs is still executing against their index handle."""
        return sum(map(self._quarantined, range(len(self._indexes))))

    def _sync_db(self) -> None:
        """Make the live database's committed state snapshot-visible.

        WAL commits publish an epoch on their own; without a WAL the
        store only reaches a consistent on-"disk" state (pages *and*
        meta) after a save, so force one before workers pin.
        """
        if self._db.index.store.wal is None:
            self._db.flush()

    def _prepare(self, available: list[int]) -> None:
        """Atomically move every available worker to one committed epoch.

        The target epoch is pinned *once* up front so it cannot be
        garbage-collected while the workers hop over one at a time; the
        extra pin is dropped once they all arrived.  Quarantined workers
        are left behind on their old epoch — their pin keeps it alive —
        and catch up when they rejoin.
        """
        if self._db is None:
            return
        self._sync_db()
        store = self._db.index.store
        target = store.pin_snapshot()
        try:
            for worker in available:
                view = self._indexes[worker]
                if view.snapshot_epoch != target:
                    view.refresh_snapshot(target)
        finally:
            store.release_snapshot(target)

    def _available(self) -> list[int]:
        """Workers safe to hand a shard to right now.

        A quarantined worker is released only once its stale future has
        actually completed.  That task ran against the handle possibly
        after the disk misbehaved mid-read and while ``drop_caches()``
        was skipping the worker; anything it left in the private buffer
        pool is suspect, so the handle is cold-started before it serves
        again.
        """
        available = []
        for worker, index in enumerate(self._indexes):
            if self._quarantined(worker):
                continue
            if self._quarantine.pop(worker, None) is not None:
                index.store.drop_cache()
                on_worker_released(worker)
            available.append(worker)
        return available

    def _submit(self, worker: int, op: str, queries, params: dict):
        return self._executor.submit(
            _run_blocks, self._indexes[worker], op, queries, params,
            self._read_retries, self._retry_backoff)

    def _collect(self, worker: int, future, deadline):
        try:
            return None, future.result(_remaining(deadline))
        except FutureTimeoutError:
            return "timeout", None
        except TransientIOError:
            return "io_error", None
        except StorageError:
            # Crashed / corrupt backend (CrashError, ChecksumError,
            # ...): degrade this shard, keep serving the others.
            return "storage_error", None

    def _retire(self, worker: int, reason: str, future) -> None:
        if reason == "timeout" and not future.cancel():
            # Already running and uninterruptible: quarantine the
            # worker until the task actually finishes.
            self._quarantine[worker] = future
            self._quarantine_counts[worker] = (
                self._quarantine_counts.get(worker, 0) + 1
            )
            on_worker_quarantined(worker)

    def _io_stats(self) -> list[IOStats]:
        return [index.stats for index in self._indexes]

    def _health(self, worker: int) -> dict:
        return {"quarantines": self._quarantine_counts.get(worker, 0),
                "quarantined": self._quarantined(worker)}

    def _drop(self, workers: list[int]) -> None:
        # Quarantined workers are not in ``workers``: their caches are
        # in use by the stale task and are dropped on release.
        for worker in workers:
            self._indexes[worker].store.drop_cache()

    def _close_workers(self) -> None:
        """In path mode each store releases its (clean) buffers and file
        descriptor; in snapshot mode each view releases its epoch pin
        while the underlying database stays open."""
        self._executor.shutdown(wait=True)
        for index in self._indexes:
            try:
                index.store.close()
            except StorageError:
                # A worker whose backend already died (fault injection,
                # torn disk) must not block shutdown of the others.
                pass
