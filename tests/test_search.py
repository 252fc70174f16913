"""Unit tests for repro.search: k-NN, range search, candidates."""

import numpy as np
import pytest

from repro.exceptions import EmptyIndexError
from repro.indexes import SRTree
from repro.search.knn import KnnCandidates

from tests.helpers import brute_force_knn


def _offer(candidates, *pairs, page=0):
    """Offer ``(distance, value)`` pairs as the batch of leaf ``page``,
    in slot order."""
    dists = np.array([d for d, _ in pairs], dtype=np.float64)
    candidates.offer_batch(dists, dists[:, None], [v for _, v in pairs], page)


class TestKnnCandidates:
    def test_fills_up_to_k(self):
        c = KnnCandidates(3)
        _offer(c, (5.0, 5.0), (1.0, 1.0), (3.0, 3.0))
        assert len(c) == 3
        assert c.bound == 5.0

    def test_bound_infinite_while_filling(self):
        c = KnnCandidates(3)
        _offer(c, (1.0, 1))
        assert c.bound == float("inf")

    def test_replaces_worst(self):
        c = KnnCandidates(2)
        _offer(c, (5.0, "far"), (1.0, "near"))
        _offer(c, (2.0, "mid"))
        values = [n.value for n in c.results()]
        assert values == ["near", "mid"]

    def test_ignores_worse_candidate(self):
        c = KnnCandidates(1)
        _offer(c, (1.0, "keep"))
        _offer(c, (9.0, "drop"))
        assert [n.value for n in c.results()] == ["keep"]

    def test_results_sorted_ascending(self, rng):
        c = KnnCandidates(10)
        for _ in range(10):
            _offer(c, *((float(d), float(d)) for d in rng.random(5)))
        dists = [n.distance for n in c.results()]
        assert dists == sorted(dists)
        assert len(dists) == 10

    def test_offer_batch_matches_sequential(self, rng):
        pts = rng.random((40, 3))
        q = rng.random(3)
        dists = np.linalg.norm(pts - q, axis=1)

        a = KnnCandidates(7)
        a.offer_batch(dists, pts, list(range(40)), 0)
        b = KnnCandidates(7)
        for i in range(40):
            b.offer_batch(dists[i:i + 1], pts[i:i + 1], [i], i)
        assert [n.value for n in a.results()] == [n.value for n in b.results()]
        assert [n.value for n in a.results()] == list(np.argsort(dists)[:7])

    def test_tie_at_the_worst_evicts_the_higher_address(self):
        # Whichever five arrived first, the one on the higher page goes.
        for pages in [(1, 2), (2, 1)]:
            c = KnnCandidates(2)
            for page in pages:
                _offer(c, (5.0, f"five on page {page}"), page=page)
            _offer(c, (3.0, "three"), page=3)
            assert [n.value for n in c.results()] == ["three", "five on page 1"]

    def test_full_heap_takes_an_equal_distance_only_from_a_lower_address(self):
        c = KnnCandidates(2)
        _offer(c, (1.0, "one"), (2.0, "two"), page=5)
        _offer(c, (2.0, "equal, higher page"), (7.0, "far"), page=6)
        assert [n.value for n in c.results()] == ["one", "two"]
        _offer(c, (2.0, "equal, lower page"), page=4)
        assert [n.value for n in c.results()] == ["one", "equal, lower page"]
        assert c.bound == 2.0

    def test_filling_heap_takes_infinite_distances(self):
        # Coordinates near 1e200 overflow a distance to inf.
        c = KnnCandidates(2)
        _offer(c, (float("inf"), "overflowed"), page=0)
        _offer(c, (float("inf"), "refused"), (4.0, "four"), page=1)
        assert [n.value for n in c.results()] == ["four", "overflowed"]

    def test_ties_rank_by_page_then_slot(self):
        c = KnnCandidates(3)
        _offer(c, (1.0, "page 3 slot 0"), (1.0, "page 3 slot 1"), page=3)
        _offer(c, (1.0, "page 2 slot 0"), (1.0, "page 2 slot 1"), page=2)
        assert [n.value for n in c.results()] == [
            "page 2 slot 0", "page 2 slot 1", "page 3 slot 0"]
        one = KnnCandidates(1)
        _offer(one, (1.0, "page 3 slot 0"), page=3)
        _offer(one, (2.0, "page 2 slot 0"), (1.0, "page 2 slot 1"), page=2)
        assert [n.value for n in one.results()] == ["page 2 slot 1"]


class TestKnnOnTree:
    @pytest.fixture
    def tree(self, small_cloud):
        tree = SRTree(small_cloud.shape[1])
        tree.load(small_cloud)
        return tree

    def test_matches_brute_force(self, tree, small_cloud, rng):
        for _ in range(10):
            q = rng.random(small_cloud.shape[1])
            got = [n.value for n in tree.nearest(q, 7)]
            assert got == brute_force_knn(small_cloud, q, 7)

    def test_query_point_is_own_nearest(self, tree, small_cloud):
        result = tree.nearest(small_cloud[11], 1)
        assert result[0].value == 11
        assert result[0].distance == pytest.approx(0.0, abs=1e-12)

    def test_k_larger_than_size(self, tree, small_cloud):
        result = tree.nearest(small_cloud[0], k=len(small_cloud) + 50)
        assert len(result) == len(small_cloud)
        dists = [n.distance for n in result]
        assert dists == sorted(dists)

    def test_k_zero_rejected(self, tree, small_cloud):
        with pytest.raises(ValueError):
            tree.nearest(small_cloud[0], k=0)

    def test_empty_index_rejected(self):
        tree = SRTree(4)
        with pytest.raises(EmptyIndexError):
            tree.nearest([0.0, 0.0, 0.0, 0.0], 1)

    def test_neighbor_unpacking(self, tree, small_cloud):
        dist, point, value = tree.nearest(small_cloud[3], 1)[0]
        assert dist == pytest.approx(0.0, abs=1e-12)
        assert value == 3
        np.testing.assert_allclose(point, small_cloud[3])

    def test_counts_distance_computations(self, tree, small_cloud):
        before = tree.stats.distance_computations
        tree.nearest(small_cloud[0], 5)
        assert tree.stats.distance_computations > before


class TestRangeOnTree:
    @pytest.fixture
    def tree(self, small_cloud):
        tree = SRTree(small_cloud.shape[1])
        tree.load(small_cloud)
        return tree

    def test_matches_brute_force(self, tree, small_cloud, rng):
        q = rng.random(small_cloud.shape[1])
        radius = 0.6
        got = sorted(n.value for n in tree.within(q, radius))
        dists = np.linalg.norm(small_cloud - q, axis=1)
        expected = sorted(int(i) for i in np.nonzero(dists <= radius)[0])
        assert got == expected

    def test_results_sorted(self, tree, small_cloud):
        res = tree.within(small_cloud[0], 0.8)
        dists = [n.distance for n in res]
        assert dists == sorted(dists)

    def test_zero_radius_finds_exact_point(self, tree, small_cloud):
        res = tree.within(small_cloud[5], 0.0)
        assert 5 in [n.value for n in res]

    def test_negative_radius_rejected(self, tree):
        with pytest.raises(ValueError):
            tree.within(np.zeros(8), -1.0)

    def test_huge_radius_returns_everything(self, tree, small_cloud):
        res = tree.within(np.zeros(8), 100.0)
        assert len(res) == len(small_cloud)

