"""Cross-family integration tests: every index against ground truth.

Parameterized over all five tree structures (plus the linear scan where
applicable), these tests pin down the properties the paper relies on:
exact k-NN results, valid structural invariants after construction, and
meaningful I/O accounting.
"""

import numpy as np
import pytest

from repro.indexes import INDEX_KINDS, build_index, make_index

from tests.helpers import brute_force_knn

ALL_KINDS = sorted(INDEX_KINDS)
TREE_KINDS = [k for k in ALL_KINDS if k != "linear"]
DYNAMIC_KINDS = [k for k in TREE_KINDS if k != "vamsplit"]


@pytest.fixture(scope="module")
def cloud():
    return np.random.default_rng(77).random((400, 6))


@pytest.fixture(scope="module", params=ALL_KINDS)
def any_index(request, cloud):
    return request.param, build_index(request.param, cloud)


class TestExactness:
    def test_knn_matches_brute_force(self, any_index, cloud):
        kind, index = any_index
        rng = np.random.default_rng(5)
        for _ in range(15):
            q = rng.random(6)
            got = [n.value for n in index.nearest(q, 10)]
            assert got == brute_force_knn(cloud, q, 10), kind

    def test_knn_on_data_points(self, any_index, cloud):
        kind, index = any_index
        for i in (0, 57, 399):
            got = [n.value for n in index.nearest(cloud[i], 21)]
            assert got == brute_force_knn(cloud, cloud[i], 21), kind

    def test_range_matches_brute_force(self, any_index, cloud):
        kind, index = any_index
        q = np.full(6, 0.5)
        radius = 0.45
        got = sorted(n.value for n in index.within(q, radius))
        dists = np.linalg.norm(cloud - q, axis=1)
        expected = sorted(int(i) for i in np.nonzero(dists <= radius)[0])
        assert got == expected, kind

    def test_distances_are_exact(self, any_index, cloud):
        kind, index = any_index
        q = np.full(6, 0.25)
        for n in index.nearest(q, 5):
            assert n.distance == pytest.approx(
                float(np.linalg.norm(n.point - q)), abs=1e-12
            )


class TestStructure:
    def test_size_and_len(self, any_index, cloud):
        _, index = any_index
        assert index.size == len(cloud)
        assert len(index) == len(cloud)

    def test_iter_points_complete(self, any_index, cloud):
        _, index = any_index
        values = sorted(v for _, v in index.iter_points())
        assert values == list(range(len(cloud)))

    def test_invariants(self, any_index):
        _, index = any_index
        index.check_invariants()

    def test_batch_mindists_are_rows_of_the_scalar_mindists(self, any_index,
                                                            cloud):
        # One default serves every family but the SR-tree; the block
        # engine's matrix must be the scalar search's vectors, bit for bit.
        kind, index = any_index
        queries = cloud[:5] + 0.05
        internal = [n for n in index.iter_nodes() if not n.is_leaf]
        assert internal or kind == "linear"
        for node in internal:
            matrix = index.child_mindists_batch(node, queries)
            for row, q in zip(matrix, queries):
                assert np.array_equal(row, index.child_mindists(node, q)), kind

    def test_heights_reasonable(self, any_index, cloud):
        kind, index = any_index
        if kind == "linear":
            pytest.skip("linear scan is flat")
        # 400 points, leaf capacity >= 12 -> at least 2 levels, at most 5.
        assert 2 <= index.height <= 5, kind

    def test_leaf_count_positive(self, any_index):
        _, index = any_index
        assert index.leaf_count() >= 1


class TestAccounting:
    def test_cold_query_counts_reads(self, any_index, cloud):
        _, index = any_index
        index.store.drop_cache()
        before = index.stats.snapshot()
        index.nearest(cloud[0], 5)
        delta = index.stats.since(before)
        assert delta.page_reads > 0
        assert delta.page_reads == delta.node_reads + delta.leaf_reads

    def test_warm_query_reads_nothing(self, any_index, cloud):
        kind, index = any_index
        index.nearest(cloud[0], 5)  # warm the buffer on this path
        before = index.stats.snapshot()
        index.nearest(cloud[0], 5)
        # Default buffer (512 frames) holds this whole index.
        assert index.stats.since(before).page_reads == 0, kind


class TestConstructionEdgeCases:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_single_point(self, kind):
        index = build_index(kind, np.array([[0.5, 0.5]]))
        result = index.nearest([0.0, 0.0], 1)
        assert result[0].value == 0

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_two_identical_points(self, kind):
        index = build_index(kind, np.zeros((2, 3)))
        assert len(index.nearest([0.0, 0.0, 0.0], 2)) == 2

    @pytest.mark.parametrize("kind", DYNAMIC_KINDS + ["linear"])
    def test_incremental_insert_queryable_throughout(self, kind, rng):
        index = make_index(kind, 4)
        pts = rng.random((60, 4))
        for i, p in enumerate(pts):
            index.insert(p, i)
            assert index.size == i + 1
            got = index.nearest(p, 1)[0]
            assert got.distance == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("kind", TREE_KINDS)
    def test_payloads_roundtrip(self, kind, rng):
        pts = rng.random((30, 3))
        values = [f"img-{i:04d}" for i in range(30)]
        index = build_index(kind, pts, values=values)
        got = index.nearest(pts[7], 1)[0]
        assert got.value == "img-0007"

    @pytest.mark.parametrize("kind", DYNAMIC_KINDS)
    def test_delete_matches_a_point_exactly_as_lookup_does(self, kind):
        from repro.exceptions import KeyNotFoundError

        index = build_index(kind, np.array([[0.5, 0.5], [0.25, 0.75]]))
        near = [0.5 + 1e-10, 0.5]
        assert index.lookup(near) == []
        with pytest.raises(KeyNotFoundError):
            index.delete(near)
        assert index.size == 2
        index.delete([0.5, 0.5])
        assert index.size == 1

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_dimension_mismatch_rejected(self, kind):
        from repro.exceptions import DimensionalityError

        index = build_index(kind, np.zeros((3, 4)))
        with pytest.raises(DimensionalityError):
            index.nearest([0.0, 0.0], 1)


class TestFactory:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown index kind"):
            make_index("btree", 4)

    def test_build_rejects_1d(self):
        with pytest.raises(ValueError):
            build_index("srtree", np.zeros(4))

    def test_kwargs_forwarded(self):
        index = make_index("srtree", 4, page_size=4096)
        assert index.layout.page_size == 4096

    def test_registry_complete(self):
        assert set(INDEX_KINDS) == {
            "rtree", "rstar", "sstree", "srtree", "srx", "kdb", "vamsplit", "linear"
        }
