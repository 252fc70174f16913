"""ServingPool resilience: retries, timeouts, graceful degradation."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Database
from repro.exec.parallel import ServingPool
from repro.obs.hooks import DEGRADED_QUERIES
from repro.storage import FaultInjectingPageFile, FaultPlan
from repro.workloads import uniform_dataset

DIMS = 5
POINTS = 80
K = 3


@pytest.fixture
def index_path(tmp_path):
    path = str(tmp_path / "served.db")
    with Database.create(path, kind="sr", dims=DIMS, page_size=2048) as db:
        db.insert_many(uniform_dataset(POINTS, DIMS, seed=11))
    return path


def _inject(pool: ServingPool, worker: int, plan: FaultPlan) -> None:
    """Splice a fault-injecting layer under one worker's store."""
    store = pool._indexes[worker].store
    store.pagefile = FaultInjectingPageFile(store.pagefile, plan)
    pool.drop_caches()  # force the next query to hit the faulty layer


def _root_page(pool: ServingPool, worker: int) -> int:
    return pool._indexes[worker]._root_id


def test_clean_pool_reports_complete(index_path):
    queries = uniform_dataset(8, DIMS, seed=1)
    with ServingPool(index_path, workers=2) as pool:
        results, complete = pool.knn(queries, k=K, with_flags=True)
        assert all(complete)
        assert all(len(row) == K for row in results)
        assert pool.degraded_queries == 0


def test_transient_read_fault_is_retried(index_path):
    queries = uniform_dataset(8, DIMS, seed=2)
    with ServingPool(index_path, workers=2, read_retries=2,
                     retry_backoff=0.001) as pool:
        plan = FaultPlan(read_error_pages=(_root_page(pool, 0),),
                         transient_read_errors=1)
        _inject(pool, 0, plan)
        results, complete = pool.knn(queries, k=K, with_flags=True)
        # The first attempt died on the injected EIO; the retry succeeded.
        assert all(complete)
        assert all(len(row) == K for row in results)
        assert pool.degraded_queries == 0


def test_permanent_read_fault_degrades_only_its_shard(index_path):
    queries = uniform_dataset(8, DIMS, seed=3)
    before = DEGRADED_QUERIES.labels(reason="io_error").value
    with ServingPool(index_path, workers=2, read_retries=1,
                     retry_backoff=0.001) as pool:
        plan = FaultPlan(read_error_pages=(_root_page(pool, 0),),
                         transient_read_errors=0)  # permanent EIO
        _inject(pool, 0, plan)
        results, complete = pool.knn(queries, k=K, with_flags=True)
        # Worker 0 owns the first contiguous shard (4 of 8 queries).
        assert complete == [False] * 4 + [True] * 4
        assert results[:4] == [[], [], [], []]
        assert all(len(row) == K for row in results[4:])
        assert pool.degraded_queries == 4
    assert DEGRADED_QUERIES.labels(reason="io_error").value == before + 4


def test_crashed_backend_degrades_not_raises(index_path):
    queries = uniform_dataset(6, DIMS, seed=4)
    before = DEGRADED_QUERIES.labels(reason="storage_error").value
    with ServingPool(index_path, workers=2) as pool:
        plan = FaultPlan()
        plan.dead = True  # simulated already-crashed process
        _inject(pool, 0, plan)
        results, complete = pool.knn(queries, k=K, with_flags=True)
        assert complete == [False] * 3 + [True] * 3
        assert all(len(row) == K for row in results[3:])
    assert (DEGRADED_QUERIES.labels(reason="storage_error").value
            == before + 3)


def test_slow_shard_times_out_and_degrades(index_path):
    queries = uniform_dataset(4, DIMS, seed=5)
    before = DEGRADED_QUERIES.labels(reason="timeout").value
    with ServingPool(index_path, workers=2, timeout=0.05) as pool:
        plan = FaultPlan(slow_read_seconds=0.1)
        _inject(pool, 0, plan)
        results, complete = pool.knn(queries, k=K, with_flags=True)
        assert complete == [False, False, True, True]
        assert results[0] == [] and results[1] == []
        assert pool.degraded_queries == 2
    assert DEGRADED_QUERIES.labels(reason="timeout").value == before + 2


def test_timed_out_worker_is_quarantined_not_reused(index_path):
    """After a timeout the worker's thread is still running against its
    (non-thread-safe) index handle; the next call must reshard across
    the healthy workers instead of handing the same handle to a second
    thread."""
    queries = uniform_dataset(4, DIMS, seed=8)
    with ServingPool(index_path, workers=2, timeout=0.05) as pool:
        plan = FaultPlan(slow_read_seconds=0.1)
        _inject(pool, 0, plan)
        _, complete = pool.knn(queries, k=K, with_flags=True)
        assert complete == [False, False, True, True]
        assert pool.quarantined_workers == 1
        # Immediately issue another call: worker 0 is skipped, the whole
        # batch lands on worker 1 and fully succeeds.
        results, complete = pool.knn(queries, k=K, with_flags=True)
        assert all(complete)
        assert all(len(row) == K for row in results)


def test_quarantined_worker_is_released_once_its_task_finishes(index_path):
    import time as _time

    queries = uniform_dataset(2, DIMS, seed=9)
    with ServingPool(index_path, workers=2, timeout=0.05) as pool:
        plan = FaultPlan(slow_read_seconds=0.1)
        _inject(pool, 0, plan)
        pool.knn(queries, k=K, with_flags=True)
        assert pool.quarantined_workers == 1
        deadline = _time.monotonic() + 10.0
        while pool.quarantined_workers and _time.monotonic() < deadline:
            _time.sleep(0.02)
        assert pool.quarantined_workers == 0


def test_released_worker_serves_from_cold_caches(index_path):
    """Regression: a rejoining worker's private caches must be dropped.

    While a worker is quarantined, ``drop_caches()`` deliberately skips
    it (its caches are in use by the still-running stale task).  On
    release the pool has to make up for that: whatever the stale task —
    which timed out against a misbehaving disk — left in the buffer
    pool is suspect and must not serve the next query."""
    import time as _time

    queries = uniform_dataset(2, DIMS, seed=12)
    with ServingPool(index_path, workers=2, timeout=0.05) as pool:
        plan = FaultPlan(slow_read_seconds=0.1)
        _inject(pool, 0, plan)
        pool.knn(queries, k=K, with_flags=True)
        assert pool.quarantined_workers == 1
        deadline = _time.monotonic() + 10.0
        while pool.quarantined_workers and _time.monotonic() < deadline:
            _time.sleep(0.02)
        assert pool.quarantined_workers == 0  # the stale task has finished
        # Clear the injected slowdown and watch the rejoin path: the
        # next call must drop the worker's caches BEFORE it serves.
        store = pool._indexes[0].store
        store.pagefile.plan.slow_read_seconds = 0.0
        dropped = []
        original = store.drop_cache

        def recording_drop():
            dropped.append(True)
            original()

        store.drop_cache = recording_drop
        try:
            results, complete = pool.knn(queries, k=K, with_flags=True)
        finally:
            store.drop_cache = original
        assert dropped, "rejoining worker must cold-start its caches"
        assert all(complete)
        assert all(len(row) == K for row in results)


def test_empty_query_block_is_complete_and_not_degraded(index_path,
                                                        pool_backend):
    """Regression: an empty block must not report incomplete results."""
    empty = np.empty((0, DIMS))
    with ServingPool(index_path, workers=1, **pool_backend) as pool:
        results, complete = pool.knn(empty, k=K, with_flags=True)
        assert results == [] and complete == []
        assert pool.range(empty, 0.5) == []
        assert pool.degraded_queries == 0


def test_empty_query_block_is_complete_with_every_worker_quarantined(
        index_path):
    empty = np.empty((0, DIMS))
    before = DEGRADED_QUERIES.labels(reason="quarantined").value
    with ServingPool(index_path, workers=1, timeout=0.05) as pool:
        # Quarantine the only worker, then ask: still trivially
        # complete, and the degraded counter must not move.
        plan = FaultPlan(slow_read_seconds=0.1)
        _inject(pool, 0, plan)
        pool.knn(uniform_dataset(2, DIMS, seed=13), k=K)
        assert pool.quarantined_workers == 1
        results, complete = pool.knn(empty, k=K, with_flags=True)
        assert results == [] and complete == []
    assert DEGRADED_QUERIES.labels(reason="quarantined").value == before


def test_flags_stay_aligned_after_resharding_around_quarantine(index_path):
    """Regression: with a worker quarantined, shards move to different
    workers — per-query flags and results must stay in input order."""
    queries = uniform_dataset(9, DIMS, seed=14)
    with ServingPool(index_path, workers=3, timeout=0.05,
                     read_retries=0) as pool:
        # Quarantine worker 0 via a slow shard.
        plan = FaultPlan(slow_read_seconds=0.1)
        _inject(pool, 0, plan)
        _, complete = pool.knn(queries, k=K, with_flags=True)
        assert complete == [False] * 3 + [True] * 6
        assert pool.quarantined_workers == 1
        # Now 9 queries reshard over workers 1 and 2 (5 + 4).  Break
        # worker 2 permanently: exactly the LAST 4 queries must flag
        # incomplete — a shard/flag misalignment would shift the window.
        plan2 = FaultPlan(read_error_pages=(_root_page(pool, 2),),
                          transient_read_errors=0)
        _inject(pool, 2, plan2)
        results, complete = pool.knn(queries, k=K, with_flags=True)
        assert complete == [True] * 5 + [False] * 4
        assert all(len(row) == K for row in results[:5])
        assert results[5:] == [[], [], [], []]


def test_all_workers_quarantined_degrades_the_whole_call(index_path):
    queries = uniform_dataset(2, DIMS, seed=10)
    before = DEGRADED_QUERIES.labels(reason="quarantined").value
    with ServingPool(index_path, workers=1, timeout=0.05) as pool:
        plan = FaultPlan(slow_read_seconds=0.1)
        _inject(pool, 0, plan)
        _, complete = pool.knn(queries, k=K, with_flags=True)
        assert complete == [False, False]
        # The only worker is quarantined: the next call degrades rather
        # than risking two threads on one buffer pool.
        results, complete = pool.knn(queries, k=K, with_flags=True)
        assert results == [[], []]
        assert complete == [False, False]
    assert DEGRADED_QUERIES.labels(reason="quarantined").value == before + 2


def test_without_flags_degraded_queries_come_back_empty(index_path):
    queries = uniform_dataset(4, DIMS, seed=6)
    with ServingPool(index_path, workers=2, read_retries=0) as pool:
        plan = FaultPlan(read_error_pages=(_root_page(pool, 0),),
                         transient_read_errors=0)
        _inject(pool, 0, plan)
        results = pool.knn(queries, k=K)
        assert results[:2] == [[], []]
        assert all(len(row) == K for row in results[2:])


def test_range_queries_degrade_the_same_way(index_path):
    queries = uniform_dataset(4, DIMS, seed=7)
    with ServingPool(index_path, workers=2, read_retries=0) as pool:
        plan = FaultPlan(read_error_pages=(_root_page(pool, 0),),
                         transient_read_errors=0)
        _inject(pool, 0, plan)
        results, complete = pool.range(queries, 0.6, with_flags=True)
        assert complete == [False, False, True, True]
        assert results[0] == []


def test_invalid_resilience_parameters_rejected(index_path, pool_backend):
    with pytest.raises(ValueError, match="workers"):
        ServingPool(index_path, workers=0, **pool_backend)
    with pytest.raises(ValueError, match="timeout"):
        ServingPool(index_path, workers=1, timeout=0.0, **pool_backend)
    with pytest.raises(ValueError, match="read_retries"):
        ServingPool(index_path, workers=1, read_retries=-1, **pool_backend)


def test_programming_errors_still_raise(index_path):
    with ServingPool(index_path, workers=1) as pool:
        with pytest.raises(Exception):
            pool.knn(np.zeros((2, DIMS + 3)), k=K)  # wrong dimensionality


def test_raised_shard_leaves_no_thread_on_a_worker_handle(index_path):
    """Regression: a shard's programming error used to re-raise while a
    sibling shard was still traversing, so the next call put a second
    thread on that worker's private, non-thread-safe handle."""
    import threading

    queries = uniform_dataset(8, DIMS, seed=15)
    with ServingPool(index_path, workers=2) as pool:
        _inject(pool, 1, FaultPlan(slow_read_seconds=0.02))
        index = pool._indexes[1]
        read_node = index.read_node
        inside = threading.Lock()
        overlaps = []

        def guarded_read_node(*args, **kwargs):
            alone = inside.acquire(blocking=False)
            if not alone:
                overlaps.append(threading.current_thread().name)
            try:
                return read_node(*args, **kwargs)
            finally:
                if alone:
                    inside.release()

        index.read_node = guarded_read_node

        def buggy_read_node(*args, **kwargs):
            raise ValueError("a bug inside worker 0's shard")

        # (A bad k no longer gets this far: the pool rejects it before
        # any shard goes out.)
        pool._indexes[0].read_node = buggy_read_node
        with pytest.raises(ValueError, match="worker 0's shard"):
            pool.knn(queries, K)
        del pool._indexes[0].read_node
        with pytest.raises(ValueError, match="k must be positive"):
            pool.knn(queries, np.array([0, 3, 3, 3, 3, 3, 3, 3]))
        results = pool.knn(queries, K)
        assert overlaps == []
        assert all(len(row) == K for row in results)


def test_pool_close_survives_a_dead_worker(index_path):
    pool = ServingPool(index_path, workers=2)
    plan = FaultPlan()
    plan.dead = True
    _inject(pool, 0, plan)
    pool.close()  # must not raise despite the crashed backend
    assert pool._closed
