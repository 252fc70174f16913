"""ServingPool resilience: retries, timeouts, and lost shards refused.

A pool read answers whole or raises: a shard no worker computed makes
the call raise :class:`~repro.exceptions.ShardLostError` (served: 504
with a deadline, else 503), and is counted.  Faults reach a worker
process through the pool's one private seam: a
:class:`~repro.storage.FaultPlan` per worker, spliced under that
worker's store every time it starts.
"""

from __future__ import annotations

import math
import threading

import numpy as np
import pytest

from repro import Database
from repro.cli import main
from repro.exceptions import (
    ChecksumError, DeadlineExceededError, ServerOverloadedError, ShardLostError,
)
from repro.exec.procpool import READ_RETRIES
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


def _eio(path: str) -> FaultPlan:
    """A permanent EIO on the root page: every read of a shard fails."""
    return FaultPlan(read_error_pages=(_root_page(path),),
                     transient_read_errors=0)


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
        results = pool.knn(queries, k=K)
        assert all(len(row) == K for row in results)
        assert pool.degraded_queries == 0


def test_transient_read_fault_is_retried(index_path, serving_pool):
    queries = uniform_dataset(8, DIMS, seed=2)
    plan = FaultPlan(read_error_pages=(_root_page(index_path),),
                     transient_read_errors=1)
    with serving_pool(index_path, workers=2, _fault_plans={0: plan}) as pool:
        results = pool.knn(queries, k=K)
        # The first attempt died on the injected EIO; the retry succeeded.
        assert all(len(row) == K for row in results)
        assert pool.degraded_queries == 0


def test_permanent_read_fault_degrades_only_its_shard(index_path,
                                                      serving_pool):
    queries = uniform_dataset(8, DIMS, seed=3)
    before = DEGRADED_QUERIES.labels(reason="io_error").value
    with serving_pool(index_path, workers=2,
                      _fault_plans={0: _eio(index_path)}) as pool:
        # Worker 0 owns the first contiguous shard (4 of 8 queries).
        with pytest.raises(ShardLostError,
                           match="4 of 8 queries were not computed") as lost:
            pool.knn(queries, k=K)
        assert lost.value.lost == 4
        assert pool.degraded_queries == 4
    assert DEGRADED_QUERIES.labels(reason="io_error").value == before + 4


def test_a_lost_last_shard_counts_only_its_queries(index_path,
                                                   serving_pool):
    queries = uniform_dataset(9, DIMS, seed=13)
    with serving_pool(index_path, workers=3,
                      _fault_plans={2: _eio(index_path)}) as pool:
        # Worker 2 owns the last contiguous shard, queries [6, 9).
        with pytest.raises(ShardLostError, match="3 of 9 queries"):
            pool.knn(queries, k=K)
        assert pool.degraded_queries == 3


def test_a_bit_flipped_in_a_read_is_a_lost_shard_not_a_wrong_answer(
        index_path, serving_pool):
    """A worker's faults sit under the CRC32 seal, as they do under
    ``Database.open(fault_plan=)``: the flipped bit fails the page's
    checksum and never reaches the answer."""
    with Database.open(index_path) as db:
        leaf = next(db.index.iter_leaves())
        point = leaf.points[0].copy()
    # The high byte of the leaf's first coordinate (rows start after the
    # 12-byte page header).
    plan = FaultPlan(flip_bit_in_read=(leaf.page_id, 12 + 7, 6))
    with pytest.raises(ChecksumError):
        with Database.open(index_path, fault_plan=plan) as db:
            db.knn(point, k=1)
    before = DEGRADED_QUERIES.labels(reason="storage_error").value
    with serving_pool(index_path, workers=1, _fault_plans={0: plan}) as pool:
        with pytest.raises(ShardLostError, match="1 of 1 queries"):
            pool.knn(point[None], k=1)
    assert DEGRADED_QUERIES.labels(reason="storage_error").value == before + 1


def test_crashed_backend_is_a_lost_shard(index_path, serving_pool):
    queries = uniform_dataset(6, DIMS, seed=4)
    before = DEGRADED_QUERIES.labels(reason="storage_error").value
    plan = FaultPlan()
    plan.dead = True  # simulated already-crashed process
    with serving_pool(index_path, workers=2, _fault_plans={0: plan}) as pool:
        with pytest.raises(ShardLostError, match="3 of 6 queries"):
            pool.knn(queries, k=K)
        assert pool.degraded_queries == 3
    assert (DEGRADED_QUERIES.labels(reason="storage_error").value
            == before + 3)


def test_slow_shard_times_out_and_degrades(index_path, serving_pool):
    queries = uniform_dataset(4, DIMS, seed=5)
    before = DEGRADED_QUERIES.labels(reason="timeout").value
    plan = FaultPlan(slow_read_seconds=0.4)
    with serving_pool(index_path, workers=2, timeout=0.2,
                      _fault_plans={0: plan}) as pool:
        slow = pool.worker_stats()[0]["pid"]
        with pytest.raises(ShardLostError, match="2 of 4 queries"):
            pool.knn(queries, k=K)
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
        # Reads that queue behind a running one are answered by one
        # group call; a shard lost there refuses each of them.
        outcomes = []

        def read(point):
            try:
                rdb.knn(point, k=K)
            except ServerOverloadedError as exc:
                outcomes.append(str(exc))

        readers = [threading.Thread(target=read, args=(point,))
                   for point in (queries[0], queries[1], queries[0])]
        for reader in readers:
            reader.start()
        for reader in readers:
            reader.join(timeout=30.0)
        assert len(outcomes) == 3
        assert all("not computed" in text for text in outcomes)
        assert server.describe()["batching"]["flushes"] >= 1
        assert pool.degraded_queries == 8


def test_served_window_and_lookup_refuse_a_lost_shard(index_path,
                                                      serving_pool):
    # Regression: over a pool, /v1/window and /v1/lookup answered a lost
    # shard with a 200 carrying an empty list.
    point = uniform_dataset(POINTS, DIMS, seed=11)[0]
    with serving_pool(index_path, workers=1,
                      _fault_plans={0: _eio(index_path)}) as pool, \
            QueryServer(pool) as server, \
            RemoteDatabase.connect("%s:%d" % server.address) as rdb:
        low, high = np.zeros(DIMS), np.ones(DIMS)
        for read in (lambda **kw: rdb.window(low, high, **kw),
                     lambda **kw: rdb.lookup(point, **kw)):
            with pytest.raises(ServerOverloadedError,
                               match="not computed") as lost:
                read()
            assert lost.value.retry_after == 1.0
            with pytest.raises(DeadlineExceededError, match="not computed"):
                read(deadline_ms=5000)
        assert pool.degraded_queries == 4


def test_empty_query_block_is_complete_and_not_degraded(index_path,
                                                        serving_pool):
    """Regression: an empty block must not report incomplete results."""
    empty = np.empty((0, DIMS))
    with serving_pool(index_path, workers=1) as pool:
        assert pool.knn(empty, k=K) == []
        assert pool.range(empty, 0.5) == []
        assert pool.degraded_queries == 0


def test_every_pool_read_raises_on_a_lost_shard(index_path, serving_pool):
    # Regression: the pool answered a lost shard's queries with [] (and
    # window/lookup with an empty list), no error.
    queries = uniform_dataset(4, DIMS, seed=6)
    batches = [
        lambda pool: pool.knn(queries, k=K),
        lambda pool: pool.knn_batch(queries, k=K),
        lambda pool: pool.range(queries, 0.6),
        lambda pool: pool.range_batch(queries, 0.6),
    ]
    singles = [
        lambda pool: pool.knn(queries[0], k=K),
        lambda pool: pool.range(queries[0], 0.6),
        lambda pool: pool.window(np.zeros(DIMS), np.ones(DIMS)),
        lambda pool: pool.lookup(queries[0]),
    ]
    with serving_pool(index_path, workers=2,
                      _fault_plans={0: _eio(index_path)}) as pool:
        for read in batches + singles:
            with pytest.raises(ShardLostError, match="not computed"):
                read(pool)
        # Worker 0 owns half of each 4-query batch and every single read.
        assert pool.degraded_queries == 2 * len(batches) + len(singles)


def test_range_queries_degrade_the_same_way(index_path, serving_pool):
    queries = uniform_dataset(4, DIMS, seed=7)
    before = DEGRADED_QUERIES.labels(reason="io_error").value
    with serving_pool(index_path, workers=2,
                      _fault_plans={0: _eio(index_path)}) as pool:
        with pytest.raises(ShardLostError, match="2 of 4 queries"):
            pool.range(queries, 0.6)
        assert pool.degraded_queries == 2
    assert DEGRADED_QUERIES.labels(reason="io_error").value == before + 2


def test_invalid_resilience_parameters_rejected(index_path, serving_pool):
    with pytest.raises(ValueError, match="workers"):
        serving_pool(index_path, workers=0)
    with pytest.raises(ValueError, match="timeout"):
        serving_pool(index_path, workers=1, timeout=0.0)


@pytest.mark.parametrize("where, timeout", [
    ("pool", math.nan), ("pool", math.inf), ("call", 0.0),
    ("call", -1.0), ("call", math.nan), ("call", math.inf),
    ("serve", math.nan),
])
def test_a_timeout_that_loses_every_shard_is_refused(index_path,
                                                     serving_pool, capsys,
                                                     where, timeout):
    # Regression: NaN passed the constructor's ``<= 0`` check and a
    # per-call timeout was not checked at all; either lost every shard
    # of every call and respawned every worker.
    if where == "serve":
        assert main(["serve", "--index", index_path, "--workers", "2",
                     "--timeout", str(timeout), "--port", "0",
                     "--duration", "0.1"]) == 2
        assert "timeout" in capsys.readouterr().err
        return
    if where == "pool":
        with pytest.raises(ValueError, match="timeout"):
            serving_pool(index_path, workers=2, timeout=timeout)
        return
    with serving_pool(index_path, workers=2) as pool:
        with pytest.raises(ValueError, match="timeout"):
            pool.knn_batch(uniform_dataset(64, DIMS, seed=8), k=K,
                           timeout=timeout)
        assert pool.degraded_queries == 0
        assert pool.respawned_workers == 0


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
        results = pool.knn(again, K)
        assert [[n.distance for n in row] for row in results] == want
    # The same for a lost shard: worker 0's first call fails every
    # retry, and the call raises only after worker 1 has answered.
    with Database.open(index_path) as db:
        want = db.knn_batch(again, K)
    plans = {0: FaultPlan(read_error_pages=(_root_page(index_path),),
                          transient_read_errors=READ_RETRIES + 1),
             1: FaultPlan(slow_read_seconds=0.02)}
    with serving_pool(index_path, workers=2, _fault_plans=plans) as pool:
        with pytest.raises(ShardLostError, match="4 of 8 queries"):
            pool.knn(queries, K)
        got = pool.knn_batch(again, K)
        assert [[n.value for n in row] for row in got] == \
            [[n.value for n in row] for row in want]
        assert [[n.distance for n in row] for row in got] == \
            [[n.distance for n in row] for row in want]


def test_pool_close_survives_a_dead_worker(index_path, serving_pool):
    plan = FaultPlan()
    plan.dead = True
    pool = serving_pool(index_path, workers=2, _fault_plans={0: plan})
    queries = uniform_dataset(4, DIMS, seed=14)
    with pytest.raises(ShardLostError, match="2 of 4 queries"):
        pool.knn(queries, k=K)  # storage_error
    pool.close()  # must not raise despite the crashed backend
    assert pool._closed
    # Each worker stopped on its own: the one whose store had crashed
    # swallowed the close error instead of dying with a traceback.
    assert pool._exit_codes == [0, 0]
