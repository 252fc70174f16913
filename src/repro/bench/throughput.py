"""Throughput benchmark: single-query loop vs batched vs parallel serving.

The paper's benchmarks (:mod:`repro.bench.runner`) measure *per-query
disk reads* with a cold buffer pool — the right metric for comparing
index structures.  This module measures the orthogonal *serving* axis:
how many queries per second one saved index sustains under the three
execution modes of :mod:`repro.exec`:

* ``single``  — a plain ``index.nearest`` loop (the baseline);
* ``batched`` — :func:`repro.exec.batch_knn`, one traversal per block;
* ``parallel`` — :class:`repro.exec.ServingPool`, batched blocks across
  workers, each with a private index handle.  The worker backend is
  selectable (``backend="process"`` by default here: worker processes
  over a shared mmap, the only backend that scales with cores;
  ``"thread"`` measures the GIL-bound thread pool);
* ``mixed``   — the parallel pool serving epoch-pinned snapshot views of
  a **live** database while a background writer commits inserts through
  the WAL at ``--writer-qps`` (runs against a scratch copy of the index,
  so the saved file is untouched).  This measures what snapshot
  isolation costs under write pressure rather than on a frozen file;
* ``remote`` / ``remote_coalesced`` — a full network round trip:
  an in-process :class:`repro.net.QueryServer` serves the index over
  HTTP while ``--clients`` threads issue single-point ``/v1/knn``
  requests as fast as they can.  ``remote`` dispatches every request
  individually (the serial baseline); ``remote_coalesced`` enables the
  server's dynamic micro-batching (``batch_delay_ms`` > 0), which
  coalesces the concurrent requests into shared batched traversals —
  same wire format, same per-request results, one traversal.

Every mode starts **cold** (fresh index handle, empty caches) and runs
the same query set against the same page file, so the qps ratios
isolate the execution engine.  Pool modes get their latency samples
from the pool's own per-block timing (``knn(..., with_times=True)``) —
real dispersion across blocks and workers, never a flat ``wall / N``
average — and attach a ``per_worker`` IOStats breakdown
(:meth:`~repro.exec.ServingPool.worker_stats`).  Results serialize to
the ``BENCH_throughput.json`` schema documented in
``docs/PERFORMANCE.md``::

    {"dataset": {...}, "cpu_count": ..., "modes": {"single": {"qps": ...,
     "p50_ms": ..., "p95_ms": ..., "page_reads_per_query": ...,
     "speedup_vs_single": ..., "backend": ..., ...}, ...},
     "speedups": {"batched_vs_single": ..., "parallel_vs_single": ...}}

``cpu_count`` records the machine the numbers came from: parallel
speedups are meaningless to compare without it (on a 1-core runner the
process pool cannot beat one batched worker, and the regression gate in
``tools/bench_check.py`` knows to skip the scaling check there).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

__all__ = ["ThroughputResult", "run_throughput", "sample_queries", "write_json"]

_MODES = ("single", "batched", "parallel", "mixed", "remote",
          "remote_coalesced")
#: Modes measured when the caller does not ask for a specific set; the
#: remote modes bind a listening socket, so they are opt-in.
_DEFAULT_MODES = ("single", "batched", "parallel", "mixed")

#: Default background write rate for the ``mixed`` mode (commits/sec).
DEFAULT_WRITER_QPS = 50.0


@dataclass
class ThroughputResult:
    """Measured cost of one execution mode over one query set."""

    mode: str
    queries: int
    k: int
    wall_seconds: float
    qps: float
    p50_ms: float                 #: median per-unit latency (query or block)
    p95_ms: float
    page_reads_per_query: float   #: physical pages read / query (cold start)
    buffer_hit_ratio: float
    workers: int = 1
    #: worker backend for pool modes ("thread" | "process"); "inline"
    #: for the single/batched modes, which have no pool.
    backend: str = "inline"
    #: this mode's qps over the single mode's (1.0 for single itself;
    #: 0.0 when the single mode was not measured).
    speedup_vs_single: float = 0.0
    writer_qps: float = 0.0       #: requested background write rate (mixed)
    writer_commits: int = 0       #: WAL commits that landed during the run
    #: pool modes: per-worker IOStats breakdown (reads, buffer hits,
    #: quarantine count) so the pool-level ratios are attributable.
    per_worker: list = field(default_factory=list)


def sample_queries(index, count: int, seed: int = 0) -> np.ndarray:
    """Reservoir-sample ``count`` stored points to use as query points."""
    rng = np.random.default_rng(seed)
    reservoir: list[np.ndarray] = []
    for i, (point, _value) in enumerate(index.iter_points()):
        if len(reservoir) < count:
            reservoir.append(point)
        else:
            j = int(rng.integers(0, i + 1))
            if j < count:
                reservoir[j] = point
        if i >= 20 * count:
            break
    if not reservoir:
        raise ValueError("cannot sample queries from an empty index")
    base = len(reservoir)
    while len(reservoir) < count:
        reservoir.append(reservoir[len(reservoir) % base])
    return np.vstack(reservoir[:count])


def _percentiles(samples_ms: list[float]) -> tuple[float, float]:
    arr = np.asarray(samples_ms, dtype=np.float64)
    return float(np.percentile(arr, 50)), float(np.percentile(arr, 95))


def _result(mode, queries, k, wall, samples_ms, stats_delta, workers=1,
            per_worker=None):
    return ThroughputResult(
        mode=mode,
        queries=queries,
        k=k,
        wall_seconds=wall,
        qps=queries / wall if wall > 0 else float("inf"),
        p50_ms=_percentiles(samples_ms)[0],
        p95_ms=_percentiles(samples_ms)[1],
        page_reads_per_query=stats_delta.page_reads / queries,
        buffer_hit_ratio=stats_delta.hit_ratio,
        workers=workers,
        per_worker=list(per_worker or []),
    )


def _expand_block_times(block_times) -> list[float]:
    """Per-block ``(wall_ms, queries)`` pairs → per-query samples.

    A query's wall time is its block's wall time (the same amortization
    the batched mode uses), but each *block* keeps its own measured
    time — so p50 and p95 reflect real dispersion across blocks and
    workers instead of one flat ``wall/N`` average.
    """
    samples: list[float] = []
    for wall_ms, count in block_times:
        samples.extend([wall_ms] * count)
    return samples


def _run_single(path, queries, k, buffer_capacity):
    from ..indexes.factory import _open_index

    index = _open_index(path, buffer_capacity)
    try:
        index.store.drop_cache()
        before = index.stats.snapshot()
        samples: list[float] = []
        t0 = time.perf_counter()
        for point in queries:
            q0 = time.perf_counter()
            index.nearest(point, k=k)
            samples.append((time.perf_counter() - q0) * 1e3)
        wall = time.perf_counter() - t0
        delta = index.stats.since(before)
    finally:
        index.store.close()
    return _result("single", len(queries), k, wall, samples, delta)


def _run_batched(path, queries, k, block_size, buffer_capacity):
    from ..exec import batch_knn
    from ..indexes.factory import _open_index

    index = _open_index(path, buffer_capacity)
    try:
        index.store.drop_cache()
        before = index.stats.snapshot()
        samples: list[float] = []
        t0 = time.perf_counter()
        for start in range(0, len(queries), block_size):
            block = queries[start : start + block_size]
            b0 = time.perf_counter()
            batch_knn(index, block, k, block_size=block_size)
            # Amortized per-query latency within the block: a query's
            # wall time is its block's wall time.
            samples.extend([(time.perf_counter() - b0) * 1e3] * len(block))
        wall = time.perf_counter() - t0
        delta = index.stats.since(before)
    finally:
        index.store.close()
    return _result("batched", len(queries), k, wall, samples, delta)


def _run_parallel(path, queries, k, block_size, workers, buffer_capacity,
                  backend):
    from ..exec import ServingPool

    # Pool construction (spawning worker processes under
    # backend="process") happens before t0: startup cost is a one-time
    # serving-deployment cost, not per-query throughput.
    with ServingPool(path, workers=workers, buffer_capacity=buffer_capacity,
                     backend=backend) as pool:
        pool.drop_caches()
        before = pool.stats()
        t0 = time.perf_counter()
        _, block_times = pool.knn(queries, k=k, block_size=block_size,
                                  with_times=True)
        wall = time.perf_counter() - t0
        delta = pool.stats().since(before)
        samples = _expand_block_times(block_times)
        res = _result("parallel", len(queries), k, wall, samples, delta,
                      workers=pool.workers, per_worker=pool.worker_stats())
        res.backend = pool.backend
        return res


def _run_mixed(path, queries, k, block_size, workers, buffer_capacity,
               writer_qps):
    """Serve snapshot-pinned k-NN blocks while a WAL writer commits.

    The saved index is copied to a scratch directory first — the writer
    genuinely mutates its copy through the WAL while the pool refreshes
    its workers to each newest committed epoch between blocks.
    """
    import os
    import shutil
    import tempfile
    import threading

    from ..api import Database
    from ..exec import ServingPool

    if writer_qps <= 0:
        raise ValueError(f"writer_qps must be positive, got {writer_qps}")
    with tempfile.TemporaryDirectory(prefix="repro-mixed-") as tmp:
        scratch = os.path.join(tmp, os.path.basename(str(path)))
        shutil.copy(str(path), scratch)
        rng = np.random.default_rng(0)
        lo = queries.min(axis=0)
        hi = queries.max(axis=0)
        stop = threading.Event()
        commits = [0]
        with Database.open(scratch, durability="wal") as db:
            interval = 1.0 / writer_qps

            def write_loop():
                next_t = time.perf_counter()
                while not stop.is_set():
                    db.insert(rng.uniform(lo, hi))
                    commits[0] += 1
                    next_t += interval
                    delay = next_t - time.perf_counter()
                    if delay > 0:
                        stop.wait(delay)

            writer = threading.Thread(target=write_loop,
                                      name="repro-mixed-writer")
            with ServingPool(db, workers=workers,
                             buffer_capacity=buffer_capacity) as pool:
                writer.start()
                try:
                    before = pool.stats()
                    samples: list[float] = []
                    t0 = time.perf_counter()
                    for start in range(0, len(queries), block_size):
                        block = queries[start : start + block_size]
                        b0 = time.perf_counter()
                        pool.knn(block, k=k, block_size=block_size)
                        samples.extend(
                            [(time.perf_counter() - b0) * 1e3] * len(block)
                        )
                    wall = time.perf_counter() - t0
                    delta = pool.stats().since(before)
                finally:
                    stop.set()
                    writer.join()
                res = _result("mixed", len(queries), k, wall, samples, delta,
                              workers=pool.workers,
                              per_worker=pool.worker_stats())
        # Mixed mode serves a *live* database through snapshot views,
        # which only the thread backend supports.
        res.backend = "thread"
        res.writer_qps = writer_qps
        res.writer_commits = commits[0]
        return res


def _run_remote(path, queries, k, *, clients, coalesce, batch_delay_ms,
                max_batch, buffer_capacity):
    """Serve the index over HTTP and hammer it with client threads.

    Every client thread owns one keep-alive connection from a shared
    :class:`~repro.net.RemoteDatabase` pool and issues single-point
    ``/v1/knn`` requests, pulling query indices from a shared cursor —
    the load profile dynamic batching is built for.  With ``coalesce``
    the server coalesces those concurrent requests into shared batched
    traversals; without it, each request dispatches individually (the
    serial remote baseline).
    """
    import threading

    from ..api import Database
    from ..net import QueryServer, RemoteDatabase

    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    mode = "remote_coalesced" if coalesce else "remote"
    samples = [0.0] * len(queries)
    cursor = [0]
    cursor_lock = threading.Lock()
    with Database.open(path, buffer_pages=buffer_capacity) as db:
        db.index.store.drop_cache()
        before = db.index.stats.snapshot()
        server = QueryServer(
            db, host="127.0.0.1", port=0,
            max_inflight=clients, max_queue=2 * clients,
            batch_delay_ms=batch_delay_ms if coalesce else 0.0,
            max_batch=max_batch)
        try:
            host, port = server.address
            with RemoteDatabase.connect(f"{host}:{port}",
                                        pool_size=clients) as rdb:
                def client_loop():
                    while True:
                        with cursor_lock:
                            i = cursor[0]
                            if i >= len(queries):
                                return
                            cursor[0] += 1
                        q0 = time.perf_counter()
                        rdb.knn(queries[i], k=k)
                        samples[i] = (time.perf_counter() - q0) * 1e3

                threads = [threading.Thread(target=client_loop,
                                            name=f"repro-bench-client-{i}")
                           for i in range(clients)]
                t0 = time.perf_counter()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                wall = time.perf_counter() - t0
        finally:
            server.close()
        delta = db.index.stats.since(before)
    res = _result(mode, len(queries), k, wall, samples, delta,
                  workers=clients)
    res.backend = "remote"
    return res


def run_throughput(
    path,
    queries: np.ndarray,
    k: int = 21,
    *,
    modes=_DEFAULT_MODES,
    block_size: int = 64,
    workers: int = 4,
    buffer_capacity: int | None = None,
    writer_qps: float = DEFAULT_WRITER_QPS,
    backend: str = "process",
    clients: int = 8,
    remote_batch_delay_ms: float = 1.0,
    dataset_info: dict | None = None,
) -> dict:
    """Measure every requested mode over the saved index at ``path``.

    ``writer_qps`` only affects the ``mixed`` mode (background commit
    rate); ``backend`` only the ``parallel`` mode (``mixed`` serves a
    live database and is always thread-backed); ``clients`` and
    ``remote_batch_delay_ms`` only the remote modes.  Returns the
    ``BENCH_throughput.json`` document as a dict.
    """
    if backend not in ("thread", "process"):
        raise ValueError(
            f"unknown backend {backend!r}; choose 'thread' or 'process'"
        )
    queries = np.ascontiguousarray(queries, dtype=np.float64)
    results: dict[str, ThroughputResult] = {}
    for mode in modes:
        if mode == "single":
            results[mode] = _run_single(path, queries, k, buffer_capacity)
        elif mode == "batched":
            results[mode] = _run_batched(path, queries, k, block_size,
                                         buffer_capacity)
        elif mode == "parallel":
            results[mode] = _run_parallel(path, queries, k, block_size,
                                          workers, buffer_capacity, backend)
        elif mode == "mixed":
            results[mode] = _run_mixed(path, queries, k, block_size,
                                       workers, buffer_capacity, writer_qps)
        elif mode in ("remote", "remote_coalesced"):
            results[mode] = _run_remote(
                path, queries, k, clients=clients,
                coalesce=(mode == "remote_coalesced"),
                batch_delay_ms=remote_batch_delay_ms,
                max_batch=max(2, clients),
                buffer_capacity=buffer_capacity)
        else:
            raise ValueError(f"unknown mode {mode!r}; choose from {_MODES}")
    single = results.get("single")
    for mode, res in results.items():
        if mode == "single":
            res.speedup_vs_single = 1.0
        elif single is not None and single.qps > 0:
            res.speedup_vs_single = res.qps / single.qps
    doc = {
        "benchmark": "throughput",
        "dataset": dict(dataset_info or {}),
        "cpu_count": os.cpu_count() or 1,
        "k": k,
        "queries": int(queries.shape[0]),
        "block_size": block_size,
        "modes": {mode: asdict(res) for mode, res in results.items()},
        "speedups": {},
    }
    if single is not None:
        for mode, res in results.items():
            if mode != "single" and single.qps > 0:
                doc["speedups"][f"{mode}_vs_single"] = res.qps / single.qps
    return doc


def write_json(doc: dict, out_path) -> None:
    """Write the benchmark document as pretty-printed JSON."""
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
