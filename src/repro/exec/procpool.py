"""The serving pool: worker processes over one saved index file.

A pool serves one saved index from several worker **processes** at
once.  Every worker re-opens the file ``readonly`` — an ``O_RDONLY``
:class:`~repro.storage.pagefile.FilePageFile` under its private buffer
pool and :class:`~repro.storage.stats.IOStats` — so a page reaches a
worker only through its buffer pool (one ``pread`` per miss, served
from the OS page cache every process shares), and no GIL serializes
the workers.  :class:`ServingPool` owns argument validation,
the query surface (:meth:`~ServingPool.knn` /
:meth:`~ServingPool.range`, their ``*_batch`` forms,
:meth:`~ServingPool.window`, :meth:`~ServingPool.lookup`), contiguous
sharding, the deadline-bounded gather, the refusal of a lost shard,
``worker_stats()`` and ``close()``; what a worker does for a shard is
one function, :func:`_run_blocks` — the block loop around
:func:`~repro.exec.batch.batch_knn` /
:func:`~repro.exec.batch.batch_range` with the per-block transient-I/O
retry.

::

    with ServingPool("tree.db", workers=4) as pool:
        answers = pool.knn(queries, k=21)        # batched per worker
    print(pool.stats().page_reads)               # merged across processes

**A live database is not a pool source.**  ``ServingPool(db)`` raises
:class:`ValueError`.  One snapshot refreshed before each call answers
that call from one committed epoch, the guarantee a pool over a live
database would give, and it measured faster than a pool of threads
(``docs/PERFORMANCE.md``)::

    with db.snapshot() as snap:
        snap.refresh()                           # newest committed epoch
        answers = snap.knn_batch(queries, k=21)  # one epoch per call

**The pipe speaks the wire's formats** (:mod:`repro.net.protocol`).
After the spawn bootstrap every message is ``send_bytes`` /
``recv_bytes``, and nothing is unpickled off the pipe.  A request is one
JSON part, ``{"op": ..., "block_size": ...}``, then two matrix frames
— a shard's points and one ``k`` or radius per point, or a window's low
and high corner as a one-row shard — read by the server's reader,
:func:`~repro.net.protocol.decode_frames`.  An answer is one JSON part
(its telemetry) then one neighbor block; a refusal is one JSON part in
:func:`~repro.net.protocol.error_doc`'s shape.  A pool therefore carries
exactly the payload values the wire carries: a tuple comes back as a
list, and a value JSON cannot carry (``bytes``) raises
:class:`~repro.exceptions.NetError` naming it.

**Telemetry.**  An answer's JSON part carries three telemetry payloads
that the parent merges so the process boundary stays invisible to
operators:

* the worker's cumulative :class:`~repro.storage.stats.IOStats`
  (feeds :meth:`ServingPool.stats` / ``worker_stats()``);
* per-family **counter deltas** from the worker's metrics registry,
  re-applied to the parent's :data:`~repro.obs.registry.REGISTRY` (so
  ``/metrics`` and ``/varz`` keep totalling the whole pool);
* the worker's new flight-recorder records, re-recorded into the
  parent's ring with ``worker="procN"``.

Histograms are *not* merged (bucket merges are lossy); the parent
observes each returned per-block wall time instead
(``repro_pool_block_seconds``, held to the latency objective).  Workers
start with the parent's objective (:func:`repro.obs.set_slo_ms`), so a
record a worker flagged ``slow`` keeps its flag in the parent's ring.

**Fault handling.**  Serving must stay up when a disk misbehaves, so
every call runs under one resilience policy:

* a *block* whose read raises
  :class:`~repro.exceptions.TransientIOError` is retried
  :data:`READ_RETRIES` times with exponential backoff (from
  :data:`RETRY_BACKOFF_S`), inside the worker;
* a per-*call* ``timeout`` (seconds) bounds how long the gather waits
  for any shard;
* a shard that still fails (exhausted retries, timeout, a crashed /
  corrupt backend, a dead worker) is **lost**: the loss is counted by
  ``repro_degraded_queries_total{reason=...}`` and ``degraded_queries``,
  and once every shard is collected the call raises
  :class:`~repro.exceptions.ShardLostError` — a pool read answers
  whole or raises, never with rows no worker computed;
* a worker that times out or dies (``SIGKILL``, OOM, torn pipe —
  reason ``worker_died``) is **terminated and respawned**: killing a
  process cannot corrupt the parent (its file handle, buffer pool and
  caches die with it), so the pool is back at full strength for the
  next call;
* arguments are checked before anything is scattered
  (:func:`~repro.geometry.as_point` / ``as_points`` for coordinates,
  :func:`~repro.exec.batch.per_query` for ``k`` and radius), so no
  worker sees an unchecked one.  What a worker still raises (an empty
  index, ``low > high``, a bug) crosses the pipe by the rule it crosses
  the network by: the worker ships the error document (type name and
  message, plus its traceback for a class outside
  :data:`repro.exceptions.RERAISABLE`, or the loss reason of a lost
  shard), and a listed class is re-raised in the caller as itself,
  while anything else is a defect in the worker and arrives as a
  ``RuntimeError`` carrying the child's traceback — but only after
  every shard of the call has been collected, so no stale answer is left
  in a pipe for the next call.  A worker's own error wins over a lost
  shard of the same call.

**Threads.**  One pool may be shared by many threads (a
:class:`~repro.net.server.QueryServer` calls it from every request
thread).  A lock is held for a whole call — scatter, gather and any
respawn — and by :meth:`~ServingPool.drop_caches` and
:meth:`~ServingPool.close`, so two calls never share a pipe.  Each call
already keeps every worker busy, so the lock costs no throughput.

**Observability caveat.**  The query tracer (:mod:`repro.obs.tracer`)
is deliberately single-threaded; do not enable tracing around pool
calls.
"""

from __future__ import annotations

import dataclasses
import math
import multiprocessing as mp
import os
import threading
import time

import numpy as np

from ..exceptions import (
    RERAISABLE, NetError, ShardLostError, StorageError, TransientIOError,
)
from ..geometry import as_point, as_points
from ..indexes.base import Neighbor
# By name: the pool's codec calls are its own work, not a network
# client's (a traced run wraps the module attributes as net.* spans).
from ..net.protocol import (
    decode_frames, decode_json, decode_neighbor_block, encode_json,
    encode_matrix, encode_neighbor_block, error_doc,
)
from ..obs.flightrec import FLIGHT
from ..obs.hooks import on_degraded, on_pool_block, on_worker_respawned
from ..obs.hooks import set_slo_ms, slo_ms
from ..obs.registry import REGISTRY
from ..storage.serializer import read_superblock
from ..storage.stats import IOStats
from .batch import per_query

__all__ = ["DEFAULT_START_METHOD", "ProcessServingPool", "ServingPool"]

DEFAULT_START_METHOD = "spawn"
"""Default multiprocessing start method (override: ``REPRO_MP_START_METHOD``).

``spawn`` is the only method with identical semantics on Linux, macOS,
and Windows, and the only one that is safe no matter what threads the
parent holds; ``fork`` is accepted for tests that need fast startup.
"""

#: How long (seconds) to wait for a fresh worker's ready handshake.
SPAWN_TIMEOUT_S = 60.0

#: How many times a block is retried after a TransientIOError.
READ_RETRIES = 2

#: Sleep (seconds) before a block's first retry, doubled for each next.
RETRY_BACKOFF_S = 0.01

#: Fields of a flight-recorder record dict a worker does not send: the
#: parent's ``FlightRecorder.record`` recomputes the first two and sets
#: the last.
_RECORD_FIELDS_NOT_SENT = ("traced", "ts", "worker")

#: How many frames each request carries after its JSON part.
_REQUEST_FRAMES = {"knn": 2, "range": 2, "window": 2, "drop": 0, "stop": 0}

#: How to get what a pool over a live database would have given.
_LIVE_RECIPE = ("serve a live Database through one db.snapshot() and call "
                "Snapshot.refresh() then knn_batch(...) on it per call, "
                "which answers each call from one committed epoch")


def _run_blocks(index, op: str, first: np.ndarray, second: np.ndarray,
                block_size: int | None):
    """Run one shard block by block; returns ``(results, block_times)``.

    This is all a worker does for a call.  ``first`` and ``second`` are
    the request's two frames: the shard's points and one ``k`` or radius
    per point, or its windows' low and high corners, one box per row.
    ``block_times`` entries are ``(wall_ms, queries)``.  A block that
    raises :class:`TransientIOError` is retried with exponential
    backoff, its time spanning the retries; exhausted retries propagate
    and lose the whole shard.
    """
    from .batch import DEFAULT_BLOCK_SIZE, batch_knn, batch_range

    n, step = len(first), DEFAULT_BLOCK_SIZE
    if op == "window":
        def run(rows):
            return [index.window(low, high)
                    for low, high in zip(first[rows], second[rows])]
    elif op == "range":
        def run(rows):
            return batch_range(index, first[rows], second[rows])
    else:
        step = block_size or DEFAULT_BLOCK_SIZE

        def run(rows):
            return batch_knn(index, first[rows], second[rows],
                             block_size=step)

    out: list[list[Neighbor]] = []
    times: list[tuple[float, int]] = []
    for start in range(0, n, step):
        rows = slice(start, start + step)
        began = time.perf_counter()
        for attempt in range(READ_RETRIES + 1):
            try:
                block = run(rows)
                break
            except TransientIOError:
                if attempt == READ_RETRIES:
                    raise
                time.sleep(RETRY_BACKOFF_S * (2 ** attempt))
        out.extend(block)
        times.append(((time.perf_counter() - began) * 1e3, len(block)))
    return out, times


def _read_request(msg: bytes) -> tuple[str, int | None, list]:
    """``(op, block_size, frames)`` of one request off a worker's pipe.

    A request is one JSON part, ``{"op": ..., "block_size": ...}``, then
    its frames: a ``knn`` or ``range`` its points ``(q, D)`` and one
    ``k`` or radius per row, a ``window`` its low and high corners, each
    ``(q, D)``; ``drop`` and ``stop`` none.  Anything else raises
    :class:`~repro.exceptions.NetError`.
    """
    doc, offset = decode_json(msg)
    op = doc.get("op") if isinstance(doc, dict) else None
    if op not in _REQUEST_FRAMES:
        raise NetError(f"not a pool request: {doc!r}")
    return (op, doc.get("block_size"),
            decode_frames(msg, _REQUEST_FRAMES[op], offset))


def _remaining(deadline: float | None) -> float | None:
    """Seconds left until ``deadline`` (``None`` = wait forever)."""
    return None if deadline is None else max(0.0, deadline - time.monotonic())


def _checked_timeout(timeout):
    """``timeout`` if it is ``None`` or a finite number of seconds > 0."""
    if timeout is not None and not (math.isfinite(timeout) and timeout > 0):
        raise ValueError(
            f"timeout must be None or a finite number > 0, got {timeout!r}")
    return timeout


def _counter_deltas(seen: dict) -> list:
    """Every counter child's growth since ``seen`` (``{(family_name,
    label_values): value}``, brought up to date), as ``[family_name,
    label_values, amount]`` triples."""
    deltas = []
    for family in REGISTRY.families():
        if family.kind != "counter":
            continue
        for key, child in family.samples():
            grown = child.value - seen.get((family.name, key), 0.0)
            if grown > 0:
                deltas.append([family.name, key, grown])
                seen[(family.name, key)] = child.value
    return deltas


def _apply_counter_deltas(deltas: list) -> None:
    """Re-apply a worker's counter growth to the parent registry.

    Only counters are merged: they are sums, so addition is exact.
    Unknown families (a worker ahead of the parent's catalog) are
    skipped rather than guessed at.
    """
    for name, key, amount in deltas:
        family = REGISTRY.get(name)
        if family is None or family.kind != "counter":
            continue
        family.labels(**dict(zip(family.label_names, key))).inc(amount)


def _worker_main(conn, path: str, opts: dict, fault_plan) -> None:
    """Worker process entry point: open the index, serve the pipe.

    Spawn-safe: everything the worker needs arrives through ``path``,
    the (picklable) ``opts`` dict (the parent's latency objective among
    them) and ``fault_plan``.  The worker opens the saved file
    ``readonly`` — ``pread`` through a private buffer pool — and then
    answers requests (:func:`_read_request`) until told to stop or the
    pipe dies.  Every message it sends opens with one JSON part: the
    ready handshake ``{"ready": {...}}``, a refusal in
    :func:`~repro.net.protocol.error_doc`'s shape, or an answer's
    telemetry followed by its neighbor block.  A
    :class:`~repro.storage.FaultPlan` (tests only) is spliced under the
    open store, so every later page read obeys it.
    """
    import traceback

    from ..indexes.factory import _open_index
    from ..storage.faults import splice_faults

    def refusal(exc: BaseException) -> bytes:
        doc = error_doc(exc)
        if isinstance(exc, StorageError):  # the shard is lost
            doc["degraded"] = ("io_error" if isinstance(exc, TransientIOError)
                               else "storage_error")
        elif doc["error_type"] not in RERAISABLE:
            doc["traceback"] = traceback.format_exc()
        return encode_json(doc, ())

    set_slo_ms(opts["slo_ms"])
    try:
        index = _open_index(path, opts["buffer_capacity"], readonly=True)
    except BaseException as exc:  # noqa: BLE001 - must report, then die
        try:
            conn.send_bytes(refusal(exc))
        finally:
            conn.close()
        return
    try:
        if fault_plan is not None:
            splice_faults(index.store, fault_plan)
        conn.send_bytes(encode_json({"ready": {
            "dims": index.dims,
            "kind": index.NAME,
            "size": index.size,
            "pid": os.getpid(),
        }}, ()))
        counters: dict = {}
        _counter_deltas(counters)  # what opening counted is not a call's
        flight_seen = FLIGHT.recorded
        while True:
            try:
                msg = conn.recv_bytes()
            except (EOFError, OSError):
                break
            try:
                op, block_size, frames = _read_request(msg)
                if op == "stop":
                    break
                if op == "drop":
                    index.store.drop_cache()
                    conn.send_bytes(encode_json({}, ()))
                    continue
                results, times = _run_blocks(index, op, *frames, block_size)
                block = encode_neighbor_block(results)
            except Exception as exc:  # noqa: BLE001 - the caller's to raise
                conn.send_bytes(refusal(exc))
                continue
            new = FLIGHT.recorded - flight_seen
            flight_seen = FLIGHT.recorded
            records = [
                {name: value for name, value in r.to_dict().items()
                 if name not in _RECORD_FIELDS_NOT_SENT}
                for r in FLIGHT.records(min(new, FLIGHT.capacity))
            ] if new else []
            conn.send_bytes(encode_json({
                "times": times,
                "stats": dataclasses.asdict(index.stats),
                "counters": _counter_deltas(counters),
                "records": records,
            }, ()) + block)
    except OSError:
        pass  # parent died; nothing left to report to
    finally:
        try:
            index.close()
        except StorageError:
            pass
        conn.close()


class ServingPool:
    """A fixed pool of worker processes over one saved index file.

    Parameters
    ----------
    source:
        A page file written by ``index.save()`` / ``repro build``.  An
        open :class:`~repro.api.Database` is refused with
        :class:`ValueError`; see the module docstring for the snapshot
        recipe that serves live data.
    workers:
        Worker count; defaults to ``min(4, cpu_count)``.
    buffer_capacity:
        Per-worker buffer pool frames (``None`` = store default).
    timeout:
        Per-call deadline in seconds shared by all shards of one call:
        ``None`` (default) waits forever, else a finite number > 0.  A
        shard that misses the deadline is lost (the call raises
        :class:`~repro.exceptions.ShardLostError`) and its worker is
        respawned.
    start_method:
        Multiprocessing start method (``None`` = the
        ``REPRO_MP_START_METHOD`` environment variable, default
        ``spawn``).
    backend:
        Only ``"process"`` is accepted.
    """

    def __init__(
        self,
        source,
        *,
        workers: int | None = None,
        buffer_capacity: int | None = None,
        timeout: float | None = None,
        start_method: str | None = None,
        backend: str = "process",
        _fault_plans: dict | None = None,
    ) -> None:
        from ..api import Database

        if backend != "process":
            raise ValueError(
                f"backend={backend!r} is not available: a ServingPool runs "
                f"worker processes over a saved index file; {_LIVE_RECIPE}")
        if isinstance(source, Database):
            raise ValueError(
                "a ServingPool serves a saved index file, not an open "
                f"Database; {_LIVE_RECIPE}")
        if workers is None:
            workers = min(4, os.cpu_count() or 1)
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        self._path = os.fspath(source)
        # Refuse a missing file or one that is not an index here, in the
        # words every other opener uses, before any worker is spawned.
        read_superblock(self._path)
        self._timeout = _checked_timeout(timeout)
        self._workers = workers
        self._degraded_queries = 0
        self._closed = False
        #: Held for a whole call, drop or close: a worker's pipe carries
        #: one call at a time, and its answer belongs to that call.
        self._mu = threading.Lock()
        self._ctx = mp.get_context(start_method or os.environ.get(
            "REPRO_MP_START_METHOD", DEFAULT_START_METHOD))
        self._opts = {
            "buffer_capacity": buffer_capacity,
            "slo_ms": slo_ms(),
        }
        #: worker -> FaultPlan spliced under that worker's store at every
        #: start (tests inject disk faults through it).
        self._fault_plans = dict(_fault_plans or {})
        self._procs: list = [None] * workers
        #: Exit code of each slot's last reaped worker (-15: terminated).
        self._exit_codes: list[int | None] = [None] * workers
        self._conns: list = [None] * workers
        self._pids: list[int | None] = [None] * workers
        #: Latest cumulative IOStats received from each live worker.
        self._worker_stats = [IOStats() for _ in range(workers)]
        #: Stats of workers that died/respawned, folded into the total.
        self._retired_stats = IOStats()
        self._respawn_counts = [0] * workers
        # Every worker starts before any handshake is awaited, so their
        # start-ups (interpreter, imports, open) overlap.
        try:
            for idx in range(workers):
                self._start(idx)
            for idx in range(workers):
                self._await_ready(idx)
        except BaseException:
            for proc in self._procs:
                if proc is not None:
                    proc.terminate()
            self.close()
            raise

    # ------------------------------------------------------------------
    # worker lifecycle

    def _start(self, idx: int) -> None:
        """Start worker ``idx``; its handshake is :meth:`_await_ready`'s."""
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._path, self._opts,
                  self._fault_plans.get(idx)),
            name=f"repro-serve-{idx}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._procs[idx] = proc
        self._conns[idx] = parent_conn

    def _await_ready(self, idx: int) -> None:
        """Wait for worker ``idx``'s ready handshake; a worker that fails
        it is terminated and its pipe closed."""
        parent_conn = self._conns[idx]
        try:
            if not parent_conn.poll(SPAWN_TIMEOUT_S):
                raise StorageError(
                    f"worker {idx} did not come up within "
                    f"{SPAWN_TIMEOUT_S:.0f}s"
                )
            doc, _ = decode_json(parent_conn.recv_bytes())
            if "error" in doc:
                raise StorageError(
                    f"worker {idx} failed to open {self._path}: "
                    f"{doc['error_type']}: {doc['error']}\n"
                    f"{doc.get('traceback', '')}".rstrip())
        except BaseException as exc:
            self._reap(idx)
            parent_conn.close()
            if isinstance(exc, (EOFError, OSError)):
                raise StorageError(
                    f"worker {idx} died during startup"
                ) from exc
            raise
        #: The newest handshake: dims, kind, size (and that worker's pid).
        self._info = doc["ready"]
        self._pids[idx] = self._info["pid"]

    def _respawn(self, idx: int, reason: str) -> None:
        """Kill worker ``idx`` (if alive) and bring up a replacement.

        The dead worker's last-reported stats are retired into the pool
        total so :meth:`stats` stays cumulative across respawns.
        """
        self._stop(idx)
        self._retired_stats = self._retired_stats + self._worker_stats[idx]
        self._worker_stats[idx] = IOStats()
        self._respawn_counts[idx] += 1
        on_worker_respawned(idx, reason)
        self._start(idx)
        self._await_ready(idx)

    def _stop(self, idx: int, grace: float = 0.0) -> None:
        """Wait ``grace`` seconds for worker ``idx`` to exit, terminate
        it if it has not, and close its pipe."""
        proc, conn = self._procs[idx], self._conns[idx]
        if proc is not None:
            proc.join(timeout=grace)
            self._reap(idx)
        if conn is not None:
            conn.close()

    def _reap(self, idx: int) -> None:
        """Terminate worker ``idx`` if it still runs (kill it if that
        fails), reap it and close its ``Process``: the sentinel pipe
        closes now, not when the object is collected, and the slot is
        cleared."""
        proc = self._procs[idx]
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5)
            if proc.is_alive():
                proc.kill()
        proc.join()
        self._exit_codes[idx] = proc.exitcode
        proc.close()
        self._procs[idx] = None

    # ------------------------------------------------------------------

    @property
    def workers(self) -> int:
        """Number of worker processes (== private index handles)."""
        return self._workers

    @property
    def dims(self) -> int:
        """Dimensionality of the served index."""
        return self._info["dims"]

    @property
    def kind(self) -> str:
        """Registry name of the served index family."""
        return self._info["kind"]

    @property
    def size(self) -> int:
        """Number of points in the served index."""
        return self._info["size"]

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has completed."""
        return self._closed

    @property
    def degraded_queries(self) -> int:
        """Queries of lost shards so far (each call raised ShardLostError)."""
        return self._degraded_queries

    @property
    def respawned_workers(self) -> int:
        """Total worker respawns (timeouts + deaths) over the pool's life."""
        return sum(self._respawn_counts)

    # ------------------------------------------------------------------

    def knn(self, queries, k: int = 1, *, block_size: int | None = None,
            with_times: bool = False, timeout: float | None = None):
        """The ``k`` nearest neighbors, single query or batch.

        A single 1-D ``point`` returns one ``list[Neighbor]`` — the
        :class:`~repro.api.QuerySurface` contract, same shape as
        ``Database.knn`` — while a 2-D ``(n, dims)`` batch returns one
        list per query (see :meth:`knn_batch` for the keyword details).
        """
        return self._query("knn", queries, np.ndim(queries) == 1, k,
                           block_size, with_times, timeout)

    def knn_batch(self, queries, k: int = 1, *,
                  block_size: int | None = None, with_times: bool = False,
                  timeout: float | None = None):
        """The ``k`` nearest neighbors of every query, in input order.

        ``k`` is a scalar shared by every query or a ``(Q,)`` array
        with one ``k`` per query.  Each shard runs the block engine in
        blocks of ``block_size`` (default
        :data:`~repro.exec.batch.DEFAULT_BLOCK_SIZE`) queries.

        With ``with_times=True``, returns ``(results, times)``:
        ``times`` holds the per-block ``(wall_ms, queries)`` pairs
        measured inside the workers (one entry per traversal block).  A
        block appears once; its time spans any transient-I/O retries.

        ``timeout`` overrides the pool-level deadline for this one call
        (the network server propagates each request's remaining
        ``X-Repro-Deadline-Ms`` budget through it).  A shard no worker
        computed makes the call raise
        :class:`~repro.exceptions.ShardLostError`.
        """
        return self._query("knn", queries, False, k, block_size, with_times,
                           timeout)

    def range(self, queries, radius: float, *, with_times: bool = False,
              timeout: float | None = None):
        """All stored points within ``radius``, single query or batch.

        Shapes follow :meth:`knn`: a 1-D point returns one
        ``list[Neighbor]``, a 2-D batch one list per query.
        ``with_times``/``timeout`` behave as in :meth:`knn_batch`.
        """
        return self._query("range", queries, np.ndim(queries) == 1, radius,
                           None, with_times, timeout)

    def range_batch(self, queries, radius, *, with_times: bool = False,
                    timeout: float | None = None):
        """Batched range query: one result list per query row.

        The :class:`~repro.api.QuerySurface` batch entry point —
        ``radius`` is a scalar shared by every query or a ``(Q,)``
        array with one radius per query.
        """
        return self._query("range", queries, False, radius, None,
                           with_times, timeout)

    def window(self, low, high, *, timeout: float | None = None
               ) -> list[Neighbor]:
        """All stored points inside the box ``[low, high]``.

        A one-row shard of low and high corners, so it runs on one
        worker under the same retry / timeout / respawn policy as the
        sharded calls, and raises
        :class:`~repro.exceptions.ShardLostError` as they do.  The
        answer is in ``(leaf page id, slot)`` order.
        """
        return self._scatter("window", as_point(low, self.dims)[None],
                             as_point(high, self.dims)[None],
                             timeout=timeout)[0][0]

    def lookup(self, point, *, timeout: float | None = None) -> list[object]:
        """Exact-match point query: every payload stored at ``point``.

        Same degenerate-window identity as
        :meth:`repro.indexes.base.SpatialIndex.lookup`.
        """
        return [n.value for n in self.window(point, point, timeout=timeout)]

    def _query(self, op: str, queries, single: bool, value, block_size,
               with_times: bool, timeout):
        """Validate a knn/range call, scatter it, package the answer."""
        queries = (as_point(queries, self.dims)[None] if single
                   else as_points(queries, self.dims))
        values = per_query("k" if op == "knn" else "radius", value,
                           queries.shape[0])
        results, times = self._scatter(op, queries, values,
                                       block_size=block_size, timeout=timeout)
        if single:  # a 1-D query unwraps its one row
            results = results[0]
        return (results, times) if with_times else results

    def _scatter(self, op: str, first: np.ndarray, second: np.ndarray, *,
                 block_size: int | None = None,
                 timeout: float | None = None):
        """Shard one call over the workers and gather it.

        ``first`` and ``second`` are the two frames sharded together,
        row by row: the points and one ``k`` or radius per point, or the
        windows' low and high corners.  Returns ``(results,
        block_times)`` in input order, or raises once every shard is
        collected: what a worker raised first, else
        :class:`~repro.exceptions.ShardLostError` if a shard was lost.
        """
        timeout = self._timeout if timeout is None else _checked_timeout(
            timeout)
        with self._mu:
            if self._closed:
                raise RuntimeError("serving pool is closed")
            n = first.shape[0]
            head = encode_json({"op": op, "block_size": block_size}, ())
            results: list[list[Neighbor] | None] = [None] * n
            lost = 0
            times: list[tuple[float, int]] = []
            pending = []
            for worker, shard in enumerate(np.array_split(np.arange(n),
                                                          self._workers)):
                if shard.size == 0:
                    continue
                try:
                    self._conns[worker].send_bytes(
                        head + encode_matrix(first[shard])
                        + encode_matrix(second[shard]))
                    sent = True
                except OSError:
                    sent = False
                pending.append((worker, shard, sent))
            deadline = None if timeout is None else time.monotonic() + timeout
            error: Exception | None = None
            for worker, shard, sent in pending:
                try:
                    reason, answer = self._collect(worker, sent, deadline)
                except Exception as exc:  # noqa: BLE001 - a worker's bug
                    # The first one is re-raised below, once every shard of
                    # this call has answered and no pipe holds a stale reply.
                    error = error or exc
                    continue
                if reason is not None:
                    if reason in ("timeout", "worker_died"):
                        self._respawn(worker, reason)
                    on_degraded(reason, len(shard))
                    lost += len(shard)
                    continue
                out, block_times = answer
                for pos, qi in enumerate(shard):
                    results[qi] = out[pos]
                for wall_ms, _count in block_times:
                    on_pool_block(f"pool_{op}", wall_ms / 1e3)
                times.extend(block_times)
            self._degraded_queries += lost
            if error is not None:
                raise error
            if lost:
                raise ShardLostError(lost, n)
            return results, times

    def _collect(self, worker: int, sent: bool, deadline):
        """Receive one worker's answer, merging its telemetry.

        An answer is one JSON part — block times, the worker's
        cumulative I/O counters, counter deltas and new flight records —
        then the neighbor block; a refusal is the JSON part alone.
        Returns ``(None, (results, block_times))``, or ``(reason, None)``
        for a lost shard; raises what the worker raised when its class is
        in :data:`~repro.exceptions.RERAISABLE`.
        """
        if not sent:
            return "worker_died", None
        conn = self._conns[worker]
        try:
            if not conn.poll(_remaining(deadline)):
                return "timeout", None
            msg = conn.recv_bytes()
        except (EOFError, OSError):
            return "worker_died", None
        doc, end = decode_json(msg)
        if "error" in doc:
            if "degraded" in doc:
                return doc["degraded"], None
            name = doc["error_type"]
            if name in RERAISABLE:
                raise RERAISABLE[name](doc["error"])
            raise RuntimeError(f"serving-pool worker raised:\n{name}: "
                               f"{doc.get('traceback')}")
        results = decode_neighbor_block(msg[end:])
        self._worker_stats[worker] = IOStats(**doc["stats"])
        _apply_counter_deltas(doc["counters"])
        for fields in doc["records"]:
            if fields["levels"] is not None:  # JSON keys are strings
                fields["levels"] = {int(level): tally for level, tally
                                    in fields["levels"].items()}
            FLIGHT.record(**fields, worker=f"proc{worker}")
        return None, (results, [tuple(pair) for pair in doc["times"]])

    # ------------------------------------------------------------------

    def stats(self) -> IOStats:
        """Aggregate I/O counters summed over every worker process.

        Counters are merged from the workers' last query responses (and
        the retired totals of any respawned workers), so the figure is
        current as of the last completed call.
        """
        total = self._retired_stats
        for stats in self._worker_stats:
            total = total + stats
        return total

    def worker_stats(self) -> list[dict]:
        """Per-worker I/O breakdown (attributes the pool aggregate).

        One dict per worker: page reads split by level, buffer
        outcomes with the worker's own hit ratio, distance
        computations, the worker's ``pid`` and how many times its slot
        was ``respawns``-ed — so a skewed pool-level
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
            "pid": self._pids[worker],
            "respawns": self._respawn_counts[worker],
        } for worker, stats in enumerate(self._worker_stats)]

    def drop_caches(self) -> None:
        """Cold-start every worker (empties buffer pools).

        A worker that fails to answer the drop is respawned — which is
        an even colder start.
        """
        with self._mu:
            if self._closed:
                raise RuntimeError("serving pool is closed")
            pending = []
            for idx in range(self._workers):
                try:
                    self._conns[idx].send_bytes(encode_json({"op": "drop"}, ()))
                    pending.append(idx)
                except OSError:
                    self._respawn(idx, "worker_died")
            for idx in pending:
                try:
                    if not self._conns[idx].poll(SPAWN_TIMEOUT_S):
                        raise EOFError
                    self._conns[idx].recv_bytes()
                except (EOFError, OSError):
                    self._respawn(idx, "worker_died")

    def close(self) -> None:
        """Release every worker (idempotent).

        Workers are asked to stop, given a grace period, then
        terminated; their pipes are closed either way.  The index is
        read-only here, so nothing is written back.
        """
        with self._mu:
            if self._closed:
                return
            self._closed = True
            for conn in self._conns:
                if conn is not None:
                    try:
                        conn.send_bytes(encode_json({"op": "stop"}, ()))
                    except OSError:
                        pass
            for idx in range(len(self._procs)):
                self._stop(idx, grace=5)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False


#: The name the ledger's traced run patches; the same class object.
ProcessServingPool = ServingPool
