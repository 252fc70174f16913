"""ServingPool: multiprocess serving over read-only page files.

Results are byte-for-byte those of single-query search, the parent's
metrics/flight-recorder/IOStats keep working (worker telemetry is
merged back over the pipe), and a worker that dies mid-call loses its
shard with reason ``worker_died`` — the call raises
:class:`~repro.exceptions.ShardLostError`, it never hangs the caller
and it never poisons the pool, because the dead process is respawned.

Workers are real OS processes, started by the method the
``serving_pool`` fixture picks (``fork`` in tier-1, ``spawn`` under
``make test-mp``); each pool here costs a process startup, so the suite
keeps pools few and datasets small.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
import warnings

import numpy as np
import pytest

from repro.api import Database
from repro.exceptions import (
    DimensionalityError, NetError, ReproError, ShardLostError, StorageError,
)
from repro.exec import ProcessServingPool, ServingPool
from repro.net.protocol import encode_json
from repro.obs.flightrec import FLIGHT
from repro.obs.hooks import DEGRADED_QUERIES, QUERIES
from repro.storage import FaultPlan
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


class _SlowFirstRead(FaultPlan):
    """Sleeps 0.6 s before a worker's first page read, then reads freely."""

    slow = True

    def on_read(self, page_id, data):
        if self.slow:
            self.slow = False
            time.sleep(0.6)
        return super().on_read(page_id, data)


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
def test_process_pool_matches_single_query_search(saved_indexes, name,
                                                  serving_pool):
    path, data = saved_indexes[name]
    rng = np.random.default_rng(sum(map(ord, name)))
    queries = _random_queries(data, 24, seed=17)
    k = int(rng.integers(1, 16))
    radius = float(rng.uniform(0.15, 0.5))

    with Database.open(path) as db:
        want_knn = [db.knn(q, k=k) for q in queries]
        want_range = [db.range(q, radius) for q in queries]

    with serving_pool(path, workers=2) as pool:
        assert pool.dims == data.shape[1]
        got_knn = pool.knn(queries, k=k)
        assert_byte_equal(got_knn, want_knn)

        got_range = pool.range(queries, radius)
        assert_byte_equal(got_range, want_range)


# ---------------------------------------------------------------------------
# Crash resilience: SIGKILL mid-call raises ShardLostError, never hangs
# ---------------------------------------------------------------------------


def test_sigkilled_worker_degrades_with_worker_died_and_respawns(
        uniform_index, serving_pool):
    queries = np.random.default_rng(11).random((12, 8))
    before = DEGRADED_QUERIES.labels(reason="worker_died").value
    with serving_pool(uniform_index, workers=2,
                      _fault_plans={0: _SlowFirstRead()}) as pool:
        victim = pool._pids[0]
        survivor = pool._pids[1]
        # Kill worker 0 while it is inside the call (its first page read
        # sleeps 0.6 s, the timer fires at 0.15 s).
        timer = threading.Timer(0.15, os.kill,
                                args=(victim, signal.SIGKILL))
        timer.start()
        try:
            with pytest.raises(ShardLostError) as lost:
                pool.knn(queries, k=3)
        finally:
            timer.cancel()

        # The dead worker's shard was lost and counted; the other
        # worker's was not.  Nothing hung.
        assert lost.value.lost == 6  # worker 0's contiguous half
        assert pool.degraded_queries == lost.value.lost
        assert (DEGRADED_QUERIES.labels(reason="worker_died").value
                == before + lost.value.lost)

        # The process was respawned: the slot has a fresh pid and the
        # next call is answered in full.
        assert pool.respawned_workers == 1
        assert pool._pids[0] not in (None, victim)
        assert pool._pids[1] == survivor
        assert all(pool.knn(queries, k=3))


def test_timed_out_worker_is_respawned_not_quarantined(uniform_index,
                                                       serving_pool):
    queries = np.random.default_rng(12).random((4, 8))
    stuck = FaultPlan(slow_read_seconds=30.0)
    with serving_pool(uniform_index, workers=1, timeout=0.25,
                      _fault_plans={0: stuck}) as pool:
        with pytest.raises(ShardLostError, match="4 of 4 queries"):
            pool.knn(queries, k=2)
        assert pool.degraded_queries == 4
        assert pool.respawned_workers == 1


def test_dead_worker_detected_even_without_timeout(uniform_index,
                                                   serving_pool):
    # No timeout configured: the only wake-up is the pipe EOF the dying
    # process leaves behind.  The call must still return promptly.
    queries = np.random.default_rng(13).random((4, 8))
    slow = FaultPlan(slow_read_seconds=0.6)
    with serving_pool(uniform_index, workers=1,
                      _fault_plans={0: slow}) as pool:
        threading.Timer(0.15, os.kill,
                        args=(pool._pids[0], signal.SIGKILL)).start()
        with pytest.raises(ShardLostError, match="4 of 4 queries"):
            pool.knn(queries, k=2)
        assert pool.respawned_workers == 1


# ---------------------------------------------------------------------------
# Telemetry: worker-side counters/stats/records merge into the parent
# ---------------------------------------------------------------------------


def test_worker_telemetry_merges_into_parent(uniform_index, serving_pool):
    queries = np.random.default_rng(14).random((10, 8))
    batch = QUERIES.labels(index_kind="srtree", op="batch_knn")
    queries_before = batch.value
    flight_before = FLIGHT.recorded
    with serving_pool(uniform_index, workers=2) as pool:
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
            assert entry["respawns"] == 0
            assert "quarantined" not in entry

        # Flight-recorder records crossed the pipe, tagged per process.
        assert FLIGHT.recorded > flight_before
        workers_seen = {r.worker for r in FLIGHT.records(20)}
        assert "proc0" in workers_seen or "proc1" in workers_seen


def test_stats_stay_cumulative_across_respawn(uniform_index, serving_pool):
    queries = np.random.default_rng(15).random((6, 8))
    with serving_pool(uniform_index, workers=1) as pool:
        pool.knn(queries, k=3)
        reads_before = pool.stats().page_reads
        assert reads_before > 0
        pool._respawn(0, "worker_died")
        # The retired worker's counters are folded in, not lost.
        assert pool.stats().page_reads == reads_before
        pool.knn(queries, k=3)
        assert pool.stats().page_reads > reads_before
        assert pool.worker_stats()[0]["respawns"] == 1


def test_drop_caches_resets_worker_buffers(uniform_index, serving_pool):
    queries = np.random.default_rng(16).random((6, 8))
    with serving_pool(uniform_index, workers=1) as pool:
        pool.knn(queries, k=3)
        misses_before = pool.stats().buffer_misses
        pool.drop_caches()
        pool.knn(queries, k=3)
        # Cold buffers again: the same traversal misses a second time.
        assert pool.stats().buffer_misses > misses_before


# ---------------------------------------------------------------------------
# Many threads, one pool (a QueryServer calls it from every request thread)
# ---------------------------------------------------------------------------


def test_concurrent_calls_each_get_their_own_answers(saved_indexes,
                                                     serving_pool):
    """Regression: calls from several threads must not share a pipe.
    Without the pool's lock two calls send on one worker's connection and
    each takes whichever answer arrives first, so a caller gets another
    caller's neighbours (or a torn message)."""
    path, data = saved_indexes["uniform"]
    threads, rounds, k = 4, 20, 5
    blocks = [_random_queries(data, 16, seed=40 + t) for t in range(threads)]
    with Database.open(path) as db:
        want = [db.knn_batch(block, k) for block in blocks]
    start = threading.Barrier(threads)
    failures: list[BaseException] = []

    with serving_pool(path, workers=2) as pool:
        def client(t):
            try:
                for _ in range(rounds):
                    start.wait()
                    assert_byte_equal(pool.knn_batch(blocks[t], k), want[t])
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures.append(exc)
                start.abort()

        runners = [threading.Thread(target=client, args=(t,))
                   for t in range(threads)]
        for runner in runners:
            runner.start()
        for runner in runners:
            runner.join(timeout=60)
        assert not any(runner.is_alive() for runner in runners)
    assert not failures, failures[0]


# ---------------------------------------------------------------------------
# Facade dispatch and argument validation
# ---------------------------------------------------------------------------


def test_serving_pool_backend_process_builds_process_pool(uniform_index,
                                                         serving_pool):
    with serving_pool(uniform_index, workers=1, backend="process") as pool:
        assert isinstance(pool, ProcessServingPool)
        res = pool.knn(np.random.default_rng(2).random((3, 8)), k=2)
        assert all(res)


def test_unknown_backend_rejected(uniform_index):
    with pytest.raises(ValueError, match="backend"):
        ServingPool(uniform_index, workers=1, backend="fiber")


#: What every refusal of a live source names instead.
RECIPE = r"db\.snapshot\(\).*Snapshot\.refresh\(\).*knn_batch"


def test_thread_backend_is_refused_with_the_snapshot_recipe(uniform_index):
    with pytest.raises(ValueError, match=RECIPE):
        ServingPool(uniform_index, workers=1, backend="thread")


def test_live_database_rejected_by_process_backend(uniform_index):
    with Database.open(uniform_index) as db:
        with pytest.raises(ValueError, match=RECIPE):
            ServingPool(db)
        with pytest.raises(ValueError, match=RECIPE):
            ServingPool(db, backend="process")
        with pytest.raises(ValueError, match=RECIPE):
            ProcessServingPool(db)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(FileNotFoundError):
        ServingPool(str(tmp_path / "nope.srtree"), workers=1)


def test_a_file_that_is_not_an_index_is_refused_before_any_worker(
        tmp_path, serving_pool):
    path = tmp_path / "not-an-index.srtree"
    path.write_bytes(os.urandom(8192))
    before = set(multiprocessing.active_children())
    with pytest.raises(ReproError, match="is not a repro index file") as info:
        serving_pool(str(path), workers=2)
    assert not isinstance(info.value, StorageError)
    assert set(multiprocessing.active_children()) <= before


def test_workers_that_cannot_open_the_file_leave_no_process(
        tmp_path, uniform_index, serving_pool):
    # Every worker starts before any handshake is read, so a refusal
    # must take down the workers still starting, not only the one that
    # answered first.  The superblock is intact (the parent checks it);
    # the meta page behind it fails its CRC in the workers.
    image = bytearray(open(uniform_index, "rb").read())
    image[40:48] = bytes(b ^ 0xFF for b in image[40:48])
    path = tmp_path / "torn-meta.srtree"
    path.write_bytes(bytes(image))
    before = set(multiprocessing.active_children())
    with pytest.raises(StorageError, match="failed to open"):
        serving_pool(str(path), workers=2)
    assert set(multiprocessing.active_children()) <= before


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="counts /proc/self/fd")
def test_a_closed_pool_holds_no_fd_while_it_is_referenced(uniform_index,
                                                          serving_pool):
    # close() closes each worker's Process, so its sentinel pipe does not
    # wait for the pool to be collected: a server thread still holding a
    # closed pool costs no fd.  No gc.collect() here on purpose.
    before = len(os.listdir("/proc/self/fd"))
    pool = serving_pool(uniform_index, workers=2)
    pool.knn(np.zeros(8), k=1)
    pool.close()
    assert len(os.listdir("/proc/self/fd")) == before
    assert pool._procs == [None, None]


def test_direct_construction_is_the_same_class_and_does_not_warn(
        uniform_index, serving_pool):
    assert ProcessServingPool is ServingPool
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        with serving_pool(uniform_index, workers=1) as pool:
            assert type(pool) is ProcessServingPool
    # The one fault seam is a per-worker FaultPlan; the sleep is gone.
    with pytest.raises(TypeError, match="_test_delay_s"):
        ServingPool(uniform_index, workers=1, _test_delay_s=0.1)


def test_what_a_worker_raised_crosses_the_pipe_by_the_whitelist():
    """A listed class is re-raised as itself; anything else is a defect
    in the worker and keeps its traceback (``exceptions.RERAISABLE``).
    A worker refuses with one JSON part in ``error_doc``'s shape."""
    class Pipe:
        def __init__(self, doc):
            self.part = encode_json(doc, ())

        def poll(self, timeout):
            return True

        def recv_bytes(self):
            return self.part

    pool = object.__new__(ProcessServingPool)
    pool._conns = [Pipe({"error": "expected 4",
                         "error_type": "DimensionalityError"}),
                   Pipe({"error": "division by zero",
                         "error_type": "ZeroDivisionError",
                         "traceback": "Traceback (most recent call last): "
                                      "worker.py"})]
    with pytest.raises(DimensionalityError, match="^expected 4$"):
        pool._collect(0, True, None)
    with pytest.raises(RuntimeError, match="ZeroDivisionError.*worker.py"):
        pool._collect(1, True, None)


def test_a_pool_carries_the_payload_values_the_wire_carries(tmp_path,
                                                           serving_pool):
    # Answers cross the pipe as neighbor blocks: row ids and strings come
    # back as stored, a tuple as a list (as over HTTP), and a value JSON
    # cannot carry is refused with NetError naming it, as RemoteDatabase
    # refuses it.
    path = str(tmp_path / "payloads.srtree")
    with Database.create(path, kind="sr", dims=2, page_size=2048) as db:
        db.insert([0.1, 0.1], 7)
        db.insert([0.3, 0.3], "row")
        db.insert([0.5, 0.5], (1, "two"))
        db.insert([0.9, 0.9], b"raw")
    with serving_pool(path, workers=1) as pool:
        assert [n.value for n in pool.knn([0.1, 0.1], k=1)] == [7]
        assert pool.lookup([0.3, 0.3]) == ["row"]
        assert pool.lookup([0.5, 0.5]) == [[1, "two"]]
        with pytest.raises(NetError, match=r"b'raw'.*not JSON"):
            pool.knn([0.9, 0.9], k=1)
        # The refusal left nothing in the pipe: the next call is answered.
        assert [n.value for n in pool.knn([0.5, 0.5], k=1)] == [[1, "two"]]
        assert pool.respawned_workers == 0
