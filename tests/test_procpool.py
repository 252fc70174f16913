"""ProcessServingPool: multiprocess serving over the mmap page store.

The process backend's contract is the thread pool's contract, minus
nothing: results are byte-for-byte those of single-query search, the
parent's metrics/flight-recorder/IOStats keep working (worker telemetry
is merged back over the pipe), and a worker that dies mid-call degrades
its shard with reason ``worker_died`` — it never hangs the caller and
it never poisons the pool, because the dead process is respawned.

Workers are real OS processes under the spawn start method (the
``REPRO_MP_START_METHOD`` env var can override); each pool here costs a
process startup, so the suite keeps pools few and datasets small.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import warnings

import numpy as np
import pytest

from repro.api import Database
from repro.exceptions import DimensionalityError, StorageError
from repro.exec import ProcessServingPool, ServingPool
from repro.obs.flightrec import FLIGHT
from repro.obs.hooks import DEGRADED_QUERIES, QUERIES
from repro.workloads import cluster_dataset, histogram_dataset, uniform_dataset

WORKLOADS = {
    "uniform": lambda: uniform_dataset(400, 8, seed=3),
    "clusters": lambda: cluster_dataset(6, 60, 8, seed=4),
    "histograms": lambda: histogram_dataset(240, bins=16, seed=5),
}


@pytest.fixture(scope="module")
def saved_indexes(tmp_path_factory):
    """One saved SR-tree file per paper workload family."""
    root = tmp_path_factory.mktemp("procpool")
    paths: dict[str, tuple[str, np.ndarray]] = {}
    for name, make in WORKLOADS.items():
        data = make()
        path = str(root / f"{name}.srtree")
        with Database.create(path, kind="sr", dims=data.shape[1],
                             page_size=2048) as db:
            db.insert_many(data)
        paths[name] = (path, data)
    return paths


@pytest.fixture
def uniform_index(saved_indexes):
    return saved_indexes["uniform"][0]


def _random_queries(data: np.ndarray, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    picks = rng.choice(data.shape[0], size=n // 2, replace=False)
    jitter = data[picks] + rng.normal(scale=0.05,
                                      size=(n // 2, data.shape[1]))
    fresh = rng.random((n - n // 2, data.shape[1]))
    return np.vstack([jitter, fresh])


def assert_byte_equal(got, want):
    """Pool results must be *identical* to single-query search — same
    values, bit-equal distances, bit-equal points.  No tolerance."""
    assert len(got) == len(want)
    for g_list, w_list in zip(got, want):
        assert [n.value for n in g_list] == [n.value for n in w_list]
        for g, w in zip(g_list, w_list):
            assert g.distance == w.distance
            assert np.array_equal(g.point, w.point)


# ---------------------------------------------------------------------------
# Result equivalence across the paper's three workload families
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_process_pool_matches_single_query_search(saved_indexes, name):
    path, data = saved_indexes[name]
    rng = np.random.default_rng(sum(map(ord, name)))
    queries = _random_queries(data, 24, seed=17)
    k = int(rng.integers(1, 16))
    radius = float(rng.uniform(0.15, 0.5))

    with Database.open(path) as db:
        want_knn = [db.knn(q, k=k) for q in queries]
        want_range = [db.range(q, radius) for q in queries]

    with ServingPool(path, workers=2, backend="process") as pool:
        assert pool.dims == data.shape[1]
        got_knn, complete = pool.knn(queries, k=k, with_flags=True)
        assert complete == [True] * len(queries)
        assert_byte_equal(got_knn, want_knn)

        got_range = pool.range(queries, radius)
        assert_byte_equal(got_range, want_range)


# ---------------------------------------------------------------------------
# Crash resilience: SIGKILL mid-call degrades, never hangs
# ---------------------------------------------------------------------------


def test_sigkilled_worker_degrades_with_worker_died_and_respawns(
        uniform_index):
    queries = np.random.default_rng(11).random((12, 8))
    before = DEGRADED_QUERIES.labels(reason="worker_died").value
    with ServingPool(uniform_index, workers=2, backend="process",
                     _test_delay_s=0.6) as pool:
        victim = pool._pids[0]
        survivor = pool._pids[1]
        # Kill worker 0 while it is inside the call (each worker sleeps
        # 0.6 s before answering, the timer fires at 0.15 s).
        timer = threading.Timer(0.15, os.kill,
                                args=(victim, signal.SIGKILL))
        timer.start()
        try:
            results, complete = pool.knn(queries, k=3, with_flags=True)
        finally:
            timer.cancel()

        # The dead worker's shard degraded to empty results; the other
        # worker's shard is intact.  Nothing hung, nothing raised.
        assert not all(complete)
        assert any(complete)
        for res, ok in zip(results, complete):
            assert ok == bool(res)
        assert pool.degraded_queries == complete.count(False)
        assert (DEGRADED_QUERIES.labels(reason="worker_died").value
                == before + complete.count(False))

        # The process was respawned, not quarantined: the slot has a
        # fresh pid and the next call is answered in full.
        assert pool.respawned_workers == 1
        assert pool.quarantined_workers == 0
        assert pool._pids[0] not in (None, victim)
        assert pool._pids[1] == survivor
        results2, complete2 = pool.knn(queries, k=3, with_flags=True)
        assert complete2 == [True] * len(queries)
        assert all(results2)


def test_timed_out_worker_is_respawned_not_quarantined(uniform_index):
    queries = np.random.default_rng(12).random((4, 8))
    with ServingPool(uniform_index, workers=1, timeout=0.25,
                     backend="process", _test_delay_s=30.0) as pool:
        results, complete = pool.knn(queries, k=2, with_flags=True)
        assert complete == [False] * 4
        assert results == [[], [], [], []]
        assert pool.degraded_queries == 4
        assert pool.respawned_workers == 1
        assert pool.quarantined_workers == 0


def test_dead_worker_detected_even_without_timeout(uniform_index):
    # No timeout configured: the only wake-up is the pipe EOF the dying
    # process leaves behind.  The call must still return promptly.
    queries = np.random.default_rng(13).random((4, 8))
    with ServingPool(uniform_index, workers=1, backend="process",
                     _test_delay_s=0.6) as pool:
        threading.Timer(0.15, os.kill,
                        args=(pool._pids[0], signal.SIGKILL)).start()
        results, complete = pool.knn(queries, k=2, with_flags=True)
        assert complete == [False] * 4
        assert pool.respawned_workers == 1


# ---------------------------------------------------------------------------
# Telemetry: worker-side counters/stats/records merge into the parent
# ---------------------------------------------------------------------------


def test_worker_telemetry_merges_into_parent(uniform_index):
    queries = np.random.default_rng(14).random((10, 8))
    batch = QUERIES.labels(index_kind="srtree", op="batch_knn")
    queries_before = batch.value
    flight_before = FLIGHT.recorded
    with ServingPool(uniform_index, workers=2, backend="process") as pool:
        pool.knn(queries, k=4)

        # The workers executed batch_knn in their own interpreters, yet
        # the parent's registry saw the increments.
        assert batch.value > queries_before

        # Aggregate I/O happened in the children, reported over the pipe.
        stats = pool.stats()
        assert stats.page_reads > 0
        assert stats.distance_computations > 0

        per_worker = pool.worker_stats()
        assert len(per_worker) == 2
        for idx, entry in enumerate(per_worker):
            assert entry["worker"] == idx
            assert entry["pid"] == pool._pids[idx]
            assert entry["page_reads"] > 0
            assert entry["quarantines"] == 0
            assert entry["respawns"] == 0

        # Flight-recorder records crossed the pipe, tagged per process.
        assert FLIGHT.recorded > flight_before
        workers_seen = {r.worker for r in FLIGHT.records(20)}
        assert "proc0" in workers_seen or "proc1" in workers_seen


def test_stats_stay_cumulative_across_respawn(uniform_index):
    queries = np.random.default_rng(15).random((6, 8))
    with ServingPool(uniform_index, workers=1, backend="process") as pool:
        pool.knn(queries, k=3)
        reads_before = pool.stats().page_reads
        assert reads_before > 0
        pool._respawn(0, "worker_died")
        # The retired worker's counters are folded in, not lost.
        assert pool.stats().page_reads == reads_before
        pool.knn(queries, k=3)
        assert pool.stats().page_reads > reads_before
        assert pool.worker_stats()[0]["respawns"] == 1


def test_drop_caches_resets_worker_buffers(uniform_index):
    queries = np.random.default_rng(16).random((6, 8))
    with ServingPool(uniform_index, workers=1, backend="process") as pool:
        pool.knn(queries, k=3)
        misses_before = pool.stats().buffer_misses
        pool.drop_caches()
        pool.knn(queries, k=3)
        # Cold buffers again: the same traversal misses a second time.
        assert pool.stats().buffer_misses > misses_before


# ---------------------------------------------------------------------------
# Facade dispatch and argument validation
# ---------------------------------------------------------------------------


def test_serving_pool_backend_process_builds_process_pool(uniform_index):
    with ServingPool(uniform_index, workers=1,
                     backend="process") as pool:
        assert isinstance(pool, ProcessServingPool)
        assert pool.backend == "process"
        assert pool.snapshot_epoch is None
        res = pool.knn(np.random.default_rng(2).random((3, 8)), k=2)
        assert all(res)


def test_serving_pool_backend_defaults_to_thread(uniform_index):
    with ServingPool(uniform_index, workers=1) as pool:
        assert type(pool) is ServingPool
        assert pool.backend == "thread"


def test_unknown_backend_rejected(uniform_index):
    with pytest.raises(ValueError, match="backend"):
        ServingPool(uniform_index, workers=1, backend="fiber")


def test_live_database_rejected_by_process_backend(uniform_index):
    with Database.open(uniform_index) as db:
        with pytest.raises(ValueError, match="thread"):
            ServingPool(db, backend="process")
        with pytest.raises(ValueError, match="thread"):
            ProcessServingPool(db)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(FileNotFoundError):
        ServingPool(str(tmp_path / "nope.srtree"), workers=1,
                    backend="process")


def test_workers_that_cannot_open_the_file_leave_no_process(tmp_path):
    # Every worker starts before any handshake is read, so a refusal
    # must take down the workers still starting, not only the one that
    # answered first.
    path = tmp_path / "not-an-index.srtree"
    path.write_bytes(os.urandom(8192))
    before = set(multiprocessing.active_children())
    with pytest.raises(StorageError, match="failed to open"):
        ProcessServingPool(str(path), workers=2)
    assert set(multiprocessing.active_children()) <= before


def test_direct_construction_is_the_same_class_and_does_not_warn(
        uniform_index):
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        direct = ProcessServingPool(uniform_index, workers=1)
        facade = ServingPool(uniform_index, workers=1, backend="process")
    with direct, facade:
        assert type(direct) is type(facade) is ProcessServingPool
    # A keyword only one backend understands is rejected by the other.
    with pytest.raises(TypeError, match="start_method"):
        ServingPool(uniform_index, workers=1, start_method="fork")
    with pytest.raises(TypeError, match="_test_delay_s"):
        ServingPool(uniform_index, workers=1, _test_delay_s=0.1)
    with pytest.raises(TypeError, match="backend"):
        ProcessServingPool(uniform_index, workers=1, backend="process")


def test_what_a_worker_raised_crosses_the_pipe_by_the_whitelist():
    """A listed class is re-raised as itself; anything else is a defect
    in the worker and keeps its traceback (``exceptions.RERAISABLE``)."""
    class Pipe:
        def __init__(self, message):
            self.message = message

        def poll(self, timeout):
            return True

        def recv(self):
            return self.message

    pool = object.__new__(ProcessServingPool)
    pool._conns = [Pipe(("error", "DimensionalityError", "expected 4",
                         "Traceback ...")),
                   Pipe(("error", "ZeroDivisionError", "division by zero",
                         "Traceback (most recent call last): worker.py"))]
    with pytest.raises(DimensionalityError, match="^expected 4$"):
        pool._collect(0, True, None)
    with pytest.raises(RuntimeError, match="ZeroDivisionError.*worker.py"):
        pool._collect(1, True, None)
