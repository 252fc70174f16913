"""Tests for the batched execution engine (repro.exec) and serving pool.

The acceptance bar: ``batch_knn`` and the single-query ``knn_search``
(a block of one) must both return the brute-force neighbor lists
(values in ``(distance, page, slot)`` order, distances within 1e-9) on
at least three workloads, across index families.
"""

import numpy as np
import pytest

from repro import Database
from repro.exceptions import EmptyIndexError
from repro.exec import batch_knn, batch_range
from repro.indexes import build_index
from repro.workloads import cluster_dataset, histogram_dataset, uniform_dataset

from tests.helpers import ranked_knn

KINDS = ["srtree", "rstar", "sstree", "linear"]

WORKLOADS = {
    "uniform": uniform_dataset(300, 8, seed=11),
    "cluster": cluster_dataset(10, 30, 8, seed=12),
    "real": histogram_dataset(300, bins=8, seed=13),
}


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def workload(request):
    return request.param, WORKLOADS[request.param]


def _queries(data: np.ndarray, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    picks = rng.choice(data.shape[0], size=n // 2, replace=False)
    jitter = data[picks] + rng.normal(scale=0.05, size=(n // 2, data.shape[1]))
    fresh = rng.random((n - n // 2, data.shape[1]))
    return np.vstack([jitter, fresh])


def assert_same_neighbors(batch, single, tol=1e-9):
    assert len(batch) == len(single)
    for got, want in zip(batch, single):
        assert [n.value for n in got] == [n.value for n in want]
        for g, w in zip(got, want):
            assert abs(g.distance - w.distance) <= tol


class TestBatchKnnCorrectness:
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_single_query_search(self, kind, workload):
        name, data = workload
        index = build_index(kind, data)
        queries = _queries(data, 12, seed=21)
        batch = batch_knn(index, queries, k=10)
        single = [index.nearest(q, k=10) for q in queries]
        oracle = [ranked_knn(index, data, q, 10) for q in queries]
        for got in (batch, single):
            assert [[n.value for n in a] for a in got] == \
                [[value for _, value in want] for want in oracle]
            for a, want in zip(got, oracle):
                for n, (distance, _) in zip(a, want):
                    assert abs(n.distance - distance) <= 1e-9

    def test_small_blocks_equal_large_blocks(self, workload):
        _name, data = workload
        index = build_index("srtree", data)
        queries = _queries(data, 10, seed=22)
        a = batch_knn(index, queries, k=7, block_size=2)
        b = batch_knn(index, queries, k=7, block_size=64)
        assert_same_neighbors(a, b)

    def test_k_larger_than_index(self, workload):
        _name, data = workload
        index = build_index("srtree", data[:5])
        out = batch_knn(index, data[:3], k=10)
        assert all(len(res) == 5 for res in out)

    def test_single_query_batch(self, workload):
        _name, data = workload
        index = build_index("srtree", data)
        q = data[0:1]
        batch = batch_knn(index, q, k=5)
        assert_same_neighbors(batch, [index.nearest(data[0], k=5)])

    def test_empty_index_raises(self):
        from repro.indexes import make_index

        index = make_index("srtree", 4)
        with pytest.raises(EmptyIndexError):
            batch_knn(index, np.zeros((2, 4)), k=1)

    def test_bad_k_rejected(self, workload):
        _name, data = workload
        index = build_index("srtree", data)
        with pytest.raises(ValueError):
            batch_knn(index, data[:2], k=0)


class TestBatchRange:
    @pytest.mark.parametrize("kind", ["srtree", "rstar"])
    def test_matches_within(self, kind, workload):
        _name, data = workload
        index = build_index(kind, data)
        queries = _queries(data, 8, seed=23)
        radius = 0.4
        batch = batch_range(index, queries, radius)
        for got, q in zip(batch, queries):
            want = index.within(q, radius)
            assert [n.value for n in got] == [n.value for n in want]
            for g, w in zip(got, want):
                assert abs(g.distance - w.distance) <= 1e-9


class TestNearestBatchMethod:
    def test_index_method_delegates(self, workload):
        _name, data = workload
        index = build_index("srtree", data)
        queries = _queries(data, 6, seed=24)
        assert_same_neighbors(
            index.nearest_batch(queries, k=5),
            [index.nearest(q, k=5) for q in queries],
        )


class TestServingPool:
    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        data = uniform_dataset(400, 6, seed=31)
        path = tmp_path_factory.mktemp("pool") / "tree.db"
        with Database.create(path, kind="srtree", dims=data.shape[1]) as db:
            db.insert_many(data)
        return path, data

    def test_parallel_matches_sequential(self, saved, serving_pool):
        path, data = saved
        queries = _queries(data, 20, seed=32)
        with Database.open(path) as db:
            want = [db.index.nearest(q, k=9) for q in queries]
        with serving_pool(path, workers=3) as pool:
            got = pool.knn(queries, k=9)
        assert_same_neighbors(got, want)

    def test_range_matches_sequential(self, saved, serving_pool):
        path, data = saved
        queries = _queries(data, 10, seed=33)
        with Database.open(path) as db:
            want = [db.index.within(q, 0.5) for q in queries]
        with serving_pool(path, workers=2) as pool:
            got = pool.range(queries, 0.5)
        for g_list, w_list in zip(got, want):
            assert [n.value for n in g_list] == [n.value for n in w_list]

    def test_stats_aggregate_over_workers(self, saved, serving_pool):
        path, data = saved
        with serving_pool(path, workers=2) as pool:
            pool.drop_caches()
            before = pool.stats()
            pool.knn(data[:8], k=5)
            delta = pool.stats().since(before)
        assert delta.page_reads > 0

    def test_with_times_returns_per_block_latencies(self, saved,
                                                    serving_pool):
        path, data = saved
        queries = _queries(data, 20, seed=35)
        with serving_pool(path, workers=2) as pool:
            got, times = pool.knn(queries, k=3, block_size=8,
                                  with_times=True)
        assert len(got) == len(queries)
        assert sum(count for _ms, count in times) == len(queries)
        assert all(ms >= 0 and count > 0 for ms, count in times)
        # 20 queries sharded over 2 workers in blocks of <= 8 means at
        # least 3 blocks were timed independently.
        assert len(times) >= 3

    def test_with_times_shapes_single_and_batch(self, saved, serving_pool):
        path, data = saved
        queries = _queries(data, 6, seed=36)
        with serving_pool(path, workers=2) as pool:
            got, times = pool.knn(queries, k=3, with_times=True)
            assert len(got) == len(queries)
            assert sum(count for _ms, count in times) == len(queries)
            # A 1-D query unwraps its row, not the times.
            one, times = pool.knn(queries[0], k=3, with_times=True)
            assert_same_neighbors([one], got[:1], tol=0)
            assert [count for _ms, count in times] == [1]
            one, times = pool.range(queries[0], 0.4, with_times=True)
            assert_same_neighbors([one], pool.range(queries[:1], 0.4), tol=0)
            assert [count for _ms, count in times] == [1]

    def test_range_with_times(self, saved, serving_pool):
        path, data = saved
        queries = _queries(data, 6, seed=37)
        with serving_pool(path, workers=2) as pool:
            got, times = pool.range(queries, 0.4, with_times=True)
        assert len(got) == len(queries)
        assert sum(count for _ms, count in times) == len(queries)

    def test_per_query_parameters_stay_aligned_across_shards(
            self, saved, serving_pool):
        path, data = saved
        queries = _queries(data, 7, seed=38)  # shards of 3, 2, 2
        ks = np.arange(1, 8)
        radii = np.linspace(0.2, 0.5, 7)
        with Database.open(path) as db:
            want_knn = [db.knn(q, k=int(k)) for q, k in zip(queries, ks)]
            want_range = [db.range(q, r) for q, r in zip(queries, radii)]
        with serving_pool(path, workers=3) as pool:
            assert_same_neighbors(pool.knn(queries, ks), want_knn, tol=0)
            assert_same_neighbors(pool.range(queries, radii), want_range,
                                  tol=0)

    def test_window_and_lookup_equal_the_database(self, saved, serving_pool):
        path, data = saved
        low, high = data[0] - 0.25, data[0] + 0.25
        with Database.open(path) as db:
            want_window = db.window(low, high)
            want_lookup = db.lookup(data[0])
        assert want_window and want_lookup
        with serving_pool(path, workers=2) as pool:
            got = pool.window(low, high)
            assert_same_neighbors([got], [want_window], tol=0)
            for g, w in zip(got, want_window):
                assert np.array_equal(g.point, w.point)
            assert pool.lookup(data[0]) == want_lookup

    def test_worker_stats_attributes_io_per_worker(self, saved, serving_pool):
        path, data = saved
        with serving_pool(path, workers=2) as pool:
            pool.drop_caches()
            pool.knn(data[:16], k=5)
            stats = pool.worker_stats()
            aggregate = pool.stats()
        assert [entry["worker"] for entry in stats] == [0, 1]
        assert sum(e["page_reads"] for e in stats) == aggregate.page_reads
        assert sum(e["buffer_hits"] for e in stats) == aggregate.buffer_hits
        for entry in stats:
            assert entry["respawns"] == 0
            assert 0.0 <= entry["buffer_hit_ratio"] <= 1.0

    def test_closed_pool_rejects_queries(self, saved, serving_pool):
        path, data = saved
        pool = serving_pool(path, workers=1)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.knn(data[:2], k=1)
        with pytest.raises(RuntimeError, match="closed"):
            pool.drop_caches()
        pool.close()  # idempotent

    def test_worker_count_validation(self, saved, serving_pool):
        path, _data = saved
        with pytest.raises(ValueError):
            serving_pool(path, workers=0)

    def test_removed_page_cache_keyword_is_refused(self, saved, serving_pool):
        path, _data = saved
        with pytest.raises(TypeError, match="page_cache_capacity"):
            serving_pool(path, workers=1, page_cache_capacity=8)


@pytest.mark.parametrize("kind", ["srtree", "linear"])
def test_a_filling_heap_takes_rows_whose_distances_overflow(kind):
    # Coordinates near 1e200 overflow every distance to inf: the block
    # engine must still offer such a leaf row to a heap that is not full.
    points = np.array([[1e200, 0.0], [-1e200, 0.0], [0.0, 1e200],
                       [0.5, 0.5], [0.1, 0.2]])
    index = build_index(kind, points)
    queries = np.array([[0.0, 0.0], [1e200, 1e200]])
    with np.errstate(over="ignore", invalid="ignore"):
        got = batch_knn(index, queries, k=5)
        want = [index.nearest(q, k=5) for q in queries]
    for g, w in zip(got, want):
        assert [(n.distance, n.value) for n in g] == [
            (n.distance, n.value) for n in w]
        assert len(g) == 5


class TestPerQueryScalarPath:
    """A plain Python ``k``/radius is filled in directly; the result is
    the checked path's, and every other value still takes that path."""

    @staticmethod
    def _spy(monkeypatch):
        from repro.exec import batch

        seen = []

        def checked(name, value, nq):
            seen.append(value)
            return original(name, value, nq)

        original = batch._checked
        monkeypatch.setattr(batch, "_checked", checked)
        return seen

    @pytest.mark.parametrize("name, value", [
        ("k", 1), ("k", 21), ("k", 2**53),
        ("radius", 0), ("radius", 7), ("radius", 0.0), ("radius", 0.25),
        ("radius", 2.0**53)])
    @pytest.mark.parametrize("nq", [1, 5])
    def test_fast_path_equals_the_checked_path(self, monkeypatch, name,
                                               value, nq):
        from repro.exec import batch

        want = batch._checked(name, value, nq)
        seen = self._spy(monkeypatch)
        got = batch.per_query(name, value, nq)
        assert seen == []  # answered without the checked path
        assert got.dtype == want.dtype
        assert got.shape == want.shape == (nq,)
        assert got.tolist() == want.tolist()
        assert not got.flags.writeable and not want.flags.writeable

    @pytest.mark.parametrize("name, value", [
        ("k", True), ("k", float("nan")), ("k", float("inf")), ("k", 2.5),
        ("k", 0), ("k", -1), ("k", 21.0), ("k", 2**53 + 1),
        ("k", np.int64(3)), ("k", np.float64(3.0)), ("k", [2, 3]),
        ("radius", True), ("radius", float("nan")), ("radius", float("inf")),
        ("radius", -1), ("radius", -0.5), ("radius", np.float64(0.5)),
        ("radius", np.int32(1)), ("radius", [0.5, 1.0])])
    def test_other_values_take_the_checked_path(self, monkeypatch, name,
                                                value):
        from repro.exec import batch

        seen = self._spy(monkeypatch)
        try:
            batch.per_query(name, value, 2)
        except ValueError:
            pass
        assert len(seen) == 1 and seen[0] is value

    @pytest.mark.parametrize("endpoint, value, bad", [
        ("knn", np.array([3]), np.array([0])),
        ("knn", np.array([3]), np.array([2.5])),
        ("range", np.array([0.25]), np.array([-1.0]))])
    def test_a_served_one_row_request_takes_the_fast_path(
            self, monkeypatch, endpoint, value, bad):
        """``/v1/knn`` and ``/v1/range`` hand a one-row request's value
        to ``per_query`` as a Python number; a bad one is still refused
        with the class a local call raises."""
        from repro.net import QueryServer

        from .helpers import post

        data = WORKLOADS["uniform"]
        with Database.create(None, kind="sr", dims=8) as db:
            db.insert_many(data)
            with QueryServer(db) as server:
                seen = self._spy(monkeypatch)
                status, _ = post(server.address, endpoint, (data[:1], value))
                assert (status, seen) == (200, [])
                status, text = post(server.address, endpoint, (data[:1], bad))
                assert status == 400 and '"error_type": "ValueError"' in text
                assert seen == [bad.item()]  # a number, not the frame


class TestPerQueryExactK:
    """An integer ``k`` — a Python ``int`` or an integer array, as every
    ``k`` arrives over the wire — converts to int64 exactly, and one
    outside int64 is refused as out of range, not as "not an integer"."""

    @pytest.mark.parametrize("value", [2**53 + 1, 2**62 + 1, 2**63 - 1])
    def test_an_integer_k_is_exact(self, value):
        from repro.exec.batch import per_query

        for given, nq in ((value, 1), (np.array([value]), 1),
                          (np.array([value], dtype=np.uint64), 1),
                          ([value, 3], 2)):
            got = per_query("k", given, nq)
            assert got.dtype == np.int64
            assert got.tolist() == ([value, 3] if nq == 2 else [value])

    def test_an_exact_k_reaches_the_index(self):
        db = Database.create(None, kind="sr", dims=3)
        db.insert_many(uniform_dataset(20, 3, seed=4))
        assert len(db.knn([0.5] * 3, k=2**63 - 1)) == 20
        assert [len(r) for r in db.knn_batch(np.full((2, 3), 0.5),
                                             k=[2**63 - 1, 3])] == [20, 3]

    @pytest.mark.parametrize("value, nq", [
        (2**63, 1), (2**64, 1), (2**100, 1), (-2**70, 1),
        (np.array([2**63], dtype=np.uint64), 1), ([1, 2**63], 2),
        (2.0**63, 1), (1e300, 1)])
    def test_a_k_outside_int64_is_out_of_range(self, value, nq):
        from repro.exec.batch import per_query

        with pytest.raises(ValueError, match="out of range"):
            per_query("k", value, nq)
