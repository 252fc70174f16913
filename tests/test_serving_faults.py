"""ServingPool resilience: retries, timeouts, graceful degradation.

Faults reach a worker process through the pool's one private seam: a
:class:`~repro.storage.FaultPlan` per worker, spliced under that
worker's store every time it starts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Database
from repro.exceptions import DeadlineExceededError, ServerOverloadedError
from repro.net import QueryServer, RemoteDatabase
from repro.obs.hooks import DEGRADED_QUERIES
from repro.storage import FaultPlan
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


def _root_page(path: str) -> int:
    with Database.open(path) as db:
        return db.index._root_id


class _OneBug(FaultPlan):
    """A plan whose first page read hits a bug, not a disk fault."""

    bugs = 1

    def on_read(self, page_id, data):
        if self.bugs:
            self.bugs -= 1
            raise ValueError("a bug inside worker 0's shard")
        return super().on_read(page_id, data)


def test_clean_pool_reports_complete(index_path, serving_pool):
    queries = uniform_dataset(8, DIMS, seed=1)
    with serving_pool(index_path, workers=2) as pool:
        results, complete = pool.knn(queries, k=K, with_flags=True)
        assert all(complete)
        assert all(len(row) == K for row in results)
        assert pool.degraded_queries == 0


def test_transient_read_fault_is_retried(index_path, serving_pool):
    queries = uniform_dataset(8, DIMS, seed=2)
    plan = FaultPlan(read_error_pages=(_root_page(index_path),),
                     transient_read_errors=1)
    with serving_pool(index_path, workers=2, read_retries=2,
                      retry_backoff=0.001, _fault_plans={0: plan}) as pool:
        results, complete = pool.knn(queries, k=K, with_flags=True)
        # The first attempt died on the injected EIO; the retry succeeded.
        assert all(complete)
        assert all(len(row) == K for row in results)
        assert pool.degraded_queries == 0


def test_permanent_read_fault_degrades_only_its_shard(index_path,
                                                      serving_pool):
    queries = uniform_dataset(8, DIMS, seed=3)
    before = DEGRADED_QUERIES.labels(reason="io_error").value
    plan = FaultPlan(read_error_pages=(_root_page(index_path),),
                     transient_read_errors=0)  # permanent EIO
    with serving_pool(index_path, workers=2, read_retries=1,
                      retry_backoff=0.001, _fault_plans={0: plan}) as pool:
        results, complete = pool.knn(queries, k=K, with_flags=True)
        # Worker 0 owns the first contiguous shard (4 of 8 queries).
        assert complete == [False] * 4 + [True] * 4
        assert results[:4] == [[], [], [], []]
        assert all(len(row) == K for row in results[4:])
        assert pool.degraded_queries == 4
    assert DEGRADED_QUERIES.labels(reason="io_error").value == before + 4


def test_flags_stay_aligned_when_the_last_shard_degrades(index_path,
                                                         serving_pool):
    queries = uniform_dataset(9, DIMS, seed=13)
    plan = FaultPlan(read_error_pages=(_root_page(index_path),),
                     transient_read_errors=0)
    with serving_pool(index_path, workers=3, read_retries=0,
                      _fault_plans={2: plan}) as pool:
        results, complete = pool.knn(queries, k=K, with_flags=True)
        # Worker 2 owns the last contiguous shard, queries [6, 9).
        assert complete == [True] * 6 + [False] * 3
        assert results[6:] == [[], [], []]
        assert all(len(row) == K for row in results[:6])


def test_crashed_backend_degrades_not_raises(index_path, serving_pool):
    queries = uniform_dataset(6, DIMS, seed=4)
    before = DEGRADED_QUERIES.labels(reason="storage_error").value
    plan = FaultPlan()
    plan.dead = True  # simulated already-crashed process
    with serving_pool(index_path, workers=2, _fault_plans={0: plan}) as pool:
        results, complete = pool.knn(queries, k=K, with_flags=True)
        assert complete == [False] * 3 + [True] * 3
        assert all(len(row) == K for row in results[3:])
    assert (DEGRADED_QUERIES.labels(reason="storage_error").value
            == before + 3)


def test_slow_shard_times_out_and_degrades(index_path, serving_pool):
    queries = uniform_dataset(4, DIMS, seed=5)
    before = DEGRADED_QUERIES.labels(reason="timeout").value
    plan = FaultPlan(slow_read_seconds=0.4)
    with serving_pool(index_path, workers=2, timeout=0.2,
                      _fault_plans={0: plan}) as pool:
        slow = pool.worker_stats()[0]["pid"]
        results, complete = pool.knn(queries, k=K, with_flags=True)
        assert complete == [False, False, True, True]
        assert results[0] == [] and results[1] == []
        assert pool.degraded_queries == 2
        # The worker was killed and replaced, not left running.
        assert pool.respawned_workers == 1
        assert pool.worker_stats()[0]["pid"] not in (None, slow)
    assert DEGRADED_QUERIES.labels(reason="timeout").value == before + 2


def test_served_pool_refuses_a_shard_it_did_not_compute(index_path,
                                                       serving_pool):
    # Regression: the server sent a degraded shard's empty rows as a 200.
    queries = uniform_dataset(2, DIMS, seed=6)
    with Database.open(index_path) as db:
        assert len(db.knn(queries[0], k=K)) == K
    plan = FaultPlan(slow_read_seconds=0.4)
    with serving_pool(index_path, workers=1, timeout=0.2,
                      _fault_plans={0: plan}) as pool, \
            QueryServer(pool) as server, \
            RemoteDatabase.connect("%s:%d" % server.address) as rdb:
        with pytest.raises(DeadlineExceededError, match="not computed"):
            rdb.knn(queries[0], k=K, deadline_ms=200)
        with pytest.raises(DeadlineExceededError, match="not computed"):
            rdb.knn_batch(queries, k=K, deadline_ms=200)
        # No deadline header: the pool's own timeout lost the shard.
        with pytest.raises(ServerOverloadedError) as lost:
            rdb.range_batch(queries, 0.5)
        assert lost.value.retry_after == 1.0
        with QueryServer(pool, batch_delay_ms=1.0) as batching, \
                RemoteDatabase.connect("%s:%d" % batching.address) as rdb:
            with pytest.raises(DeadlineExceededError, match="not computed"):
                rdb.knn(queries[0], k=K, deadline_ms=200)  # coalesced
        assert pool.degraded_queries == 6


def test_empty_query_block_is_complete_and_not_degraded(index_path,
                                                        serving_pool):
    """Regression: an empty block must not report incomplete results."""
    empty = np.empty((0, DIMS))
    with serving_pool(index_path, workers=1) as pool:
        results, complete = pool.knn(empty, k=K, with_flags=True)
        assert results == [] and complete == []
        assert pool.range(empty, 0.5) == []
        assert pool.degraded_queries == 0


def test_without_flags_degraded_queries_come_back_empty(index_path,
                                                        serving_pool):
    queries = uniform_dataset(4, DIMS, seed=6)
    plan = FaultPlan(read_error_pages=(_root_page(index_path),),
                     transient_read_errors=0)
    with serving_pool(index_path, workers=2, read_retries=0,
                      _fault_plans={0: plan}) as pool:
        results = pool.knn(queries, k=K)
        assert results[:2] == [[], []]
        assert all(len(row) == K for row in results[2:])


def test_range_queries_degrade_the_same_way(index_path, serving_pool):
    queries = uniform_dataset(4, DIMS, seed=7)
    plan = FaultPlan(read_error_pages=(_root_page(index_path),),
                     transient_read_errors=0)
    with serving_pool(index_path, workers=2, read_retries=0,
                      _fault_plans={0: plan}) as pool:
        results, complete = pool.range(queries, 0.6, with_flags=True)
        assert complete == [False, False, True, True]
        assert results[0] == []


def test_invalid_resilience_parameters_rejected(index_path, serving_pool):
    with pytest.raises(ValueError, match="workers"):
        serving_pool(index_path, workers=0)
    with pytest.raises(ValueError, match="timeout"):
        serving_pool(index_path, workers=1, timeout=0.0)
    with pytest.raises(ValueError, match="read_retries"):
        serving_pool(index_path, workers=1, read_retries=-1)


def test_programming_errors_still_raise(index_path, serving_pool):
    with serving_pool(index_path, workers=1) as pool:
        with pytest.raises(Exception):
            pool.knn(np.zeros((2, DIMS + 3)), k=K)  # wrong dimensionality


def test_raised_shard_leaves_no_stale_answer_in_a_pipe(index_path,
                                                       serving_pool):
    """Regression: a shard's programming error must be re-raised only
    once every shard of the call has answered.  Raising while a sibling
    was still traversing would leave its answer in the pipe, and the
    next call would read it as its own."""
    queries = uniform_dataset(8, DIMS, seed=15)
    again = uniform_dataset(8, DIMS, seed=16)
    with Database.open(index_path) as db:
        want = [[n.distance for n in row] for row in db.knn_batch(again, K)]
    plans = {0: _OneBug(), 1: FaultPlan(slow_read_seconds=0.02)}
    with serving_pool(index_path, workers=2, _fault_plans=plans) as pool:
        with pytest.raises(ValueError, match="worker 0's shard"):
            pool.knn(queries, K)
        # (A bad k never gets this far: the pool rejects it before any
        # shard goes out.)
        with pytest.raises(ValueError, match="k must be positive"):
            pool.knn(queries, np.array([0, 3, 3, 3, 3, 3, 3, 3]))
        results, complete = pool.knn(again, K, with_flags=True)
        assert all(complete)
        assert [[n.distance for n in row] for row in results] == want


def test_pool_close_survives_a_dead_worker(index_path, serving_pool):
    plan = FaultPlan()
    plan.dead = True
    pool = serving_pool(index_path, workers=2, _fault_plans={0: plan})
    queries = uniform_dataset(4, DIMS, seed=14)
    _, complete = pool.knn(queries, k=K, with_flags=True)
    assert complete == [False, False, True, True]  # storage_error
    pool.close()  # must not raise despite the crashed backend
    assert pool._closed
    # Each worker stopped on its own: the one whose store had crashed
    # swallowed the close error instead of dying with a traceback.
    assert [proc.exitcode for proc in pool._procs] == [0, 0]
