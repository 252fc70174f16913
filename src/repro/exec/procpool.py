"""The serving pool's process backend: workers over a shared mmap.

:class:`ProcessServingPool` is :class:`~repro.exec.parallel.PoolCore`
(query surface, sharding, gather, degradation — see
:mod:`repro.exec.parallel`, which also says when to choose this
backend) with the worker primitives implemented by **processes**.
Every worker re-opens the saved index file ``readonly`` — an
:class:`~repro.storage.pagefile.MmapPageFile` under its private buffer
pool — so the OS page cache physically shares one copy of the data
across the whole pool, each page read is a zero-copy ``memoryview``
into the shared map, and no GIL serializes the workers.

::

    with ServingPool("tree.db", workers=4, backend="process") as pool:
        answers = pool.knn(queries, k=21)
    print(pool.stats().page_reads)        # merged across processes

A shard ships to its worker as pickled ndarray buffers; the child runs
the same :func:`~repro.exec.parallel._run_blocks` a pool thread would,
and answers with three telemetry payloads that the parent merges so the
process boundary stays invisible to operators:

* the worker's cumulative :class:`~repro.storage.stats.IOStats`
  (feeds :meth:`ProcessServingPool.stats` / ``worker_stats()``);
* per-family **counter deltas** from the worker's metrics registry,
  re-applied to the parent's :data:`~repro.obs.registry.REGISTRY` (so
  ``/metrics`` and ``/varz`` keep totalling the whole pool);
* the worker's new flight-recorder records, re-recorded into the
  parent's ring with ``worker="procN"``.

Histograms are *not* merged (bucket merges are lossy); the core
observes each returned per-block wall time instead.

**Retiring a worker.**  A worker that times out or dies (``SIGKILL``,
OOM, torn pipe — degradation reason ``worker_died``) is **terminated
and respawned** rather than quarantined: killing a process cannot
corrupt the parent (its mmap, buffer pool, and caches die with it), so
the pool is back at full strength for the next call.

**An exception a worker raises** crosses the pipe by the rule it
crosses the network by: the worker ships ``(type name, message,
traceback)``, and a class listed in
:data:`repro.exceptions.RERAISABLE` (the library's own errors,
``ValueError``, ``TypeError``, ...) is re-raised in the caller as
itself, with the message — so both backends raise the same class for
the same mistake and a server over either answers 400.  Anything not
listed is a defect in the worker and arrives as a ``RuntimeError``
carrying the child's traceback.

Live :class:`~repro.api.Database` sources are **not** supported — an
epoch-pinned snapshot view shares the writer's in-process store, which
cannot cross a process boundary.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time

from ..exceptions import RERAISABLE, StorageError, TransientIOError
from ..obs.flightrec import FLIGHT
from ..obs.hooks import on_worker_respawned
from ..obs.registry import REGISTRY
from ..storage.stats import IOStats
from .parallel import PoolCore, _remaining, _run_blocks

__all__ = ["ProcessServingPool", "DEFAULT_START_METHOD"]

DEFAULT_START_METHOD = "spawn"
"""Default multiprocessing start method (override: ``REPRO_MP_START_METHOD``).

``spawn`` is the only method with identical semantics on Linux, macOS,
and Windows, and the only one that is safe no matter what threads the
parent holds; ``fork`` is accepted for tests that need fast startup.
"""

#: How long (seconds) to wait for a fresh worker's ready handshake.
SPAWN_TIMEOUT_S = 60.0

#: Fields of a flight-recorder record dict the parent must not replay
#: (they are recomputed by ``FlightRecorder.record``).
_COMPUTED_RECORD_FIELDS = ("slow", "traced", "ts")


def _counter_snapshot() -> dict:
    """``{(family_name, label_values): value}`` for every counter child."""
    snap: dict = {}
    for family in REGISTRY.families():
        if family.kind != "counter":
            continue
        for key, child in family.samples():
            snap[(family.name, key)] = child.value
    return snap


def _counter_deltas(prev: dict) -> tuple[dict, dict]:
    """New snapshot plus the positive per-child deltas since ``prev``."""
    cur = _counter_snapshot()
    deltas = {}
    for key, value in cur.items():
        grown = value - prev.get(key, 0.0)
        if grown > 0:
            deltas[key] = grown
    return cur, deltas


def _apply_counter_deltas(deltas: dict) -> None:
    """Re-apply a worker's counter growth to the parent registry.

    Only counters are merged: they are sums, so addition is exact.
    Unknown families (a worker ahead of the parent's catalog) are
    skipped rather than guessed at.
    """
    for (name, key), amount in deltas.items():
        family = REGISTRY.get(name)
        if family is None or family.kind != "counter":
            continue
        family.labels(**dict(zip(family.label_names, key))).inc(amount)


def _worker_main(conn, path: str, opts: dict) -> None:
    """Worker process entry point: open the index, serve the pipe.

    Spawn-safe: everything the worker needs arrives through ``path`` and
    the (picklable) ``opts`` dict.  The worker opens the saved file
    ``readonly`` — mmap-backed, zero-copy reads, private buffer pool —
    and then answers commands until told to stop or the pipe dies.
    """
    import traceback

    from ..indexes.factory import _open_index

    try:
        index = _open_index(path, opts["buffer_capacity"], readonly=True)
    except BaseException as exc:  # noqa: BLE001 - must report, then die
        try:
            conn.send(("error", type(exc).__name__, str(exc),
                       traceback.format_exc()))
        finally:
            conn.close()
        return
    try:
        conn.send(("ready", {
            "dims": index.dims,
            "kind": index.NAME,
            "size": index.size,
            "pid": os.getpid(),
        }))
        counters = _counter_snapshot()
        flight_seen = FLIGHT.recorded
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            if msg[0] == "stop":
                break
            if msg[0] == "drop":
                index.store.drop_cache()
                conn.send(("ok", None))
                continue
            _, op, queries, params = msg  # a "query"
            if opts["test_delay_s"]:
                time.sleep(opts["test_delay_s"])
            try:
                results, times = _run_blocks(
                    index, op, queries, params,
                    opts["read_retries"], opts["retry_backoff"])
            except TransientIOError as exc:
                conn.send(("degraded", "io_error", str(exc)))
                continue
            except StorageError as exc:
                conn.send(("degraded", "storage_error", str(exc)))
                continue
            except Exception as exc:  # noqa: BLE001 - the caller's to raise
                conn.send(("error", type(exc).__name__, str(exc),
                           traceback.format_exc()))
                continue
            counters, deltas = _counter_deltas(counters)
            new = FLIGHT.recorded - flight_seen
            flight_seen = FLIGHT.recorded
            records = [
                r.to_dict()
                for r in FLIGHT.records(min(new, FLIGHT.capacity))
            ] if new else []
            conn.send(("ok", (
                results, times, index.stats.snapshot(), deltas, records,
            )))
    except OSError:
        pass  # parent died; nothing left to report to
    finally:
        try:
            index.close()
        except StorageError:
            pass
        conn.close()


class ProcessServingPool(PoolCore):
    """A fixed pool of worker *processes* over one saved index file.

    ``ServingPool(path, backend="process")`` constructs this class.

    Parameters (the rest are :class:`~repro.exec.parallel.PoolCore`'s)
    ----------
    source:
        A page file written by ``index.save()`` / ``repro build``.
    start_method:
        Multiprocessing start method (``None`` = the
        ``REPRO_MP_START_METHOD`` environment variable, default
        ``spawn``).
    """

    backend = "process"

    def __init__(self, source, *, start_method: str | None = None,
                 _test_delay_s: float = 0.0, **kwargs) -> None:
        from ..api import Database

        if isinstance(source, Database):
            raise ValueError(
                "backend='process' serves immutable saved index files; a "
                "live Database is served by epoch-pinned snapshot views, "
                "which share the writer's in-process store and cannot "
                "cross a process boundary — use backend='thread'"
            )
        self._ctx = mp.get_context(start_method or os.environ.get(
            "REPRO_MP_START_METHOD", DEFAULT_START_METHOD))
        self._test_delay_s = _test_delay_s
        super().__init__(source, **kwargs)

    def _open_workers(self, source, workers, buffer_capacity) -> None:
        self._path = os.fspath(source)
        if not os.path.exists(self._path):
            raise FileNotFoundError(self._path)
        self._opts = {
            "buffer_capacity": buffer_capacity,
            "read_retries": self._read_retries,
            "retry_backoff": self._retry_backoff,
            "test_delay_s": self._test_delay_s,
        }
        self._procs: list = [None] * workers
        self._conns: list = [None] * workers
        self._pids: list[int | None] = [None] * workers
        #: Latest cumulative IOStats received from each live worker.
        self._worker_stats = [IOStats() for _ in range(workers)]
        #: Stats of workers that died/respawned, folded into the total.
        self._retired_stats = IOStats()
        self._respawn_counts: dict[int, int] = {}
        try:
            for idx in range(workers):
                self._spawn(idx)
        except BaseException:
            self.close()
            raise

    def _spawn(self, idx: int) -> None:
        """Start worker ``idx`` and wait for its ready handshake."""
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._path, self._opts),
            name=f"repro-serve-{idx}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        try:
            if not parent_conn.poll(SPAWN_TIMEOUT_S):
                raise StorageError(
                    f"worker {idx} did not come up within "
                    f"{SPAWN_TIMEOUT_S:.0f}s"
                )
            msg = parent_conn.recv()
            if msg[0] == "error":
                raise StorageError(
                    f"worker {idx} failed to open {self._path}: "
                    f"{msg[1]}\n{msg[3]}"
                )
        except BaseException as exc:
            proc.terminate()
            proc.join(timeout=5)
            parent_conn.close()
            if isinstance(exc, (EOFError, OSError)):
                raise StorageError(
                    f"worker {idx} died during startup"
                ) from exc
            raise
        #: The newest handshake: dims, kind, size (and that worker's pid).
        self._info = msg[1]
        self._pids[idx] = msg[1]["pid"]
        self._procs[idx] = proc
        self._conns[idx] = parent_conn

    def _respawn(self, idx: int, reason: str) -> None:
        """Kill worker ``idx`` (if alive) and bring up a replacement.

        The dead worker's last-reported stats are retired into the pool
        total so :meth:`stats` stays cumulative across respawns.
        """
        self._stop(idx)
        self._retired_stats = self._retired_stats + self._worker_stats[idx]
        self._worker_stats[idx] = IOStats()
        self._respawn_counts[idx] = self._respawn_counts.get(idx, 0) + 1
        on_worker_respawned(idx, reason)
        self._spawn(idx)

    def _stop(self, idx: int, grace: float = 0.0) -> None:
        """Wait ``grace`` seconds for worker ``idx`` to exit, terminate
        it if it has not, and close its pipe."""
        proc, conn = self._procs[idx], self._conns[idx]
        if proc is not None:
            proc.join(timeout=grace)
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=5)
        if conn is not None:
            conn.close()

    # ------------------------------------------------------------------

    def _describe(self) -> dict:
        return self._info

    @property
    def respawned_workers(self) -> int:
        """Total worker respawns (timeouts + deaths) over the pool's life."""
        return sum(self._respawn_counts.values())

    def _submit(self, worker: int, op: str, queries, params: dict) -> bool:
        """Whether the shard reached the worker's pipe."""
        try:
            self._conns[worker].send(("query", op, queries, params))
            return True
        except OSError:
            return False

    def _collect(self, worker: int, sent: bool, deadline):
        """Receive one worker's answer, merging its telemetry."""
        if not sent:
            return "worker_died", None
        conn = self._conns[worker]
        try:
            if not conn.poll(_remaining(deadline)):
                return "timeout", None
            msg = conn.recv()
        except (EOFError, OSError):
            return "worker_died", None
        if msg[0] == "degraded":
            return msg[1], None
        if msg[0] == "error":
            _, name, message, worker_traceback = msg
            if name in RERAISABLE:
                raise RERAISABLE[name](message)
            raise RuntimeError(
                f"serving-pool worker raised:\n{name}: {worker_traceback}")
        out, block_times, stats, deltas, records = msg[1]
        self._worker_stats[worker] = stats
        _apply_counter_deltas(deltas)
        for record in records:
            fields = dict(record)
            for name in _COMPUTED_RECORD_FIELDS:
                fields.pop(name, None)
            fields["worker"] = f"proc{worker}"
            FLIGHT.record(**fields)
        return None, (out, block_times)

    def _retire(self, worker: int, reason: str, sent: bool) -> None:
        if reason in ("timeout", "worker_died"):
            self._respawn(worker, reason)

    def _io_stats(self) -> list[IOStats]:
        return self._worker_stats

    def stats(self) -> IOStats:
        """Aggregate I/O counters summed over every worker process.

        Counters are merged from the workers' last query responses (and
        the retired totals of any respawned workers), so the figure is
        current as of the last completed call.
        """
        return self._retired_stats + super().stats()

    def _health(self, worker: int) -> dict:
        # Never quarantined: the respawn count is the health signal.
        return {"pid": self._pids[worker], "quarantines": 0,
                "quarantined": False,
                "respawns": self._respawn_counts.get(worker, 0)}

    def _drop(self, workers: list[int]) -> None:
        """A worker that fails to answer the drop is respawned — which
        is an even colder start."""
        pending = []
        for idx in workers:
            try:
                self._conns[idx].send(("drop",))
                pending.append(idx)
            except OSError:
                self._respawn(idx, "worker_died")
        for idx in pending:
            try:
                if not self._conns[idx].poll(SPAWN_TIMEOUT_S):
                    raise EOFError
                self._conns[idx].recv()
            except (EOFError, OSError):
                self._respawn(idx, "worker_died")

    def _close_workers(self) -> None:
        """Workers are asked to stop, given a grace period, then
        terminated; their pipes are closed either way."""
        for conn in self._conns:
            if conn is not None:
                try:
                    conn.send(("stop",))
                except OSError:
                    pass
        for idx in range(len(self._procs)):
            self._stop(idx, grace=5)
