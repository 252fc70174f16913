"""Tests for the original Guttman R-tree (quadratic and linear splits)."""

import numpy as np
import pytest

from repro.indexes.rtree import RTree, linear_split, quadratic_split

from tests.helpers import brute_force_knn


class TestQuadraticSplit:
    def test_partitions_exactly(self, rng):
        pts = rng.random((13, 4))
        a, b = quadratic_split(pts, pts, m=5)
        assert sorted(np.concatenate([a, b]).tolist()) == list(range(13))
        assert len(a) >= 5 and len(b) >= 5

    def test_separates_clusters(self, rng):
        left = rng.random((6, 2)) * 0.1
        right = rng.random((7, 2)) * 0.1 + 10.0
        pts = np.vstack([left, right])
        a, b = quadratic_split(pts, pts, m=5)
        groups = {frozenset(a.tolist()), frozenset(b.tolist())}
        assert groups == {frozenset(range(6)), frozenset(range(6, 13))}

    def test_pickseeds_chooses_extreme_pair(self):
        # Three collinear points: the seeds must be the two extremes.
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0], [0.5, 0.0]])
        a, b = quadratic_split(pts, pts, m=1)
        seeds = {int(a[0]), int(b[0])}
        assert seeds == {0, 2} or 2 in seeds

    def test_degenerate_identical_entries(self):
        pts = np.zeros((8, 3))
        a, b = quadratic_split(pts, pts, m=3)
        assert len(a) + len(b) == 8
        assert len(a) >= 3 and len(b) >= 3


class TestLinearSplit:
    def test_partitions_exactly(self, rng):
        pts = rng.random((13, 4))
        a, b = linear_split(pts, pts, m=5)
        assert sorted(np.concatenate([a, b]).tolist()) == list(range(13))
        assert len(a) >= 5 and len(b) >= 5

    def test_seeds_by_normalized_separation(self):
        # Spread on dim 1 dominates after normalization.
        pts = np.zeros((6, 2))
        pts[:, 0] = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
        pts[:, 1] = [0.0, 0.0, 0.0, 0.0, 0.0, 100.0]
        a, b = linear_split(pts, pts, m=2)
        groups = {frozenset(a.tolist()), frozenset(b.tolist())}
        # Entry 5 (the y-outlier) must end up separated from most others.
        assert any(5 in g and len(g) <= 3 for g in groups)

    def test_degenerate_identical_entries(self):
        pts = np.ones((8, 3))
        a, b = linear_split(pts, pts, m=3)
        assert len(a) + len(b) == 8


@pytest.mark.parametrize("split", ["quadratic", "linear"])
class TestTree:
    def test_exact_knn(self, split, rng):
        pts = rng.random((600, 6))
        tree = RTree(6, split=split)
        tree.load(pts)
        tree.check_invariants()
        for _ in range(6):
            q = rng.random(6)
            assert [n.value for n in tree.nearest(q, 8)] == brute_force_knn(
                pts, q, 8
            )

    def test_delete(self, split, rng):
        pts = rng.random((150, 4))
        tree = RTree(4, split=split)
        tree.load(pts)
        for i in range(0, 150, 2):
            tree.delete(pts[i], value=i)
        tree.check_invariants()
        assert tree.size == 75

    def test_never_reinserts(self, split, rng):
        # No node may carry the reinserted flag: the original R-tree
        # always splits on overflow.
        tree = RTree(4, split=split)
        tree.load(rng.random((400, 4)))
        assert all(not node.reinserted for node in tree.iter_nodes())


class TestConfig:
    def test_invalid_split_rejected(self):
        with pytest.raises(ValueError):
            RTree(4, split="cubic")

    def test_persistence_keeps_strategy(self, tmp_path, rng):
        from repro import Database

        path = tmp_path / "rtree.idx"
        with Database.create(path, kind="rtree", dims=3, split="linear") as db:
            db.insert_many(rng.random((60, 3)))
        with Database.open(path) as reopened:
            assert reopened.index._split_strategy == "linear"
            assert reopened.size == 60

    def test_rstar_improves_on_rtree(self, rng):
        # The family's history in one assertion: on clustered data the
        # R*-tree reads no more pages than Guttman's original.
        from repro.indexes import RStarTree
        from repro.workloads import cluster_dataset, sample_queries

        data = cluster_dataset(10, 150, 8, seed=2)
        queries = sample_queries(data, 20, seed=4)

        def reads(tree):
            tree.load(data)
            total = 0
            for q in queries:
                tree.store.drop_cache()
                before = tree.stats.snapshot()
                tree.nearest(q, 21)
                total += tree.stats.since(before).page_reads
            return total

        assert reads(RStarTree(8)) <= reads(RTree(8)) * 1.05
