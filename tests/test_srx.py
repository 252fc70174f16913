"""Tests for the SRX-tree (SR-tree with X-tree-style supernodes)."""

import numpy as np
import pytest

from repro.indexes import SRTree, SRXTree
from repro import Database

from tests.helpers import brute_force_knn


def clustered(rng, n_clusters=8, per_cluster=60, dims=8):
    centers = rng.random((n_clusters, dims))
    pts = np.vstack([
        c + rng.normal(scale=0.02, size=(per_cluster, dims)) for c in centers
    ])
    return pts


@pytest.fixture(scope="module")
def overlap_heavy():
    """A workload large and clustered enough to trigger supernode growth."""
    from repro.workloads import cluster_dataset

    return cluster_dataset(20, 150, 16, seed=3)


@pytest.fixture(scope="module")
def srx_tree(overlap_heavy):
    tree = SRXTree(16, max_overlap=0.1)
    tree.load(overlap_heavy)
    assert tree.supernode_count() > 0
    return tree


class TestConstruction:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SRXTree(4, max_overlap=1.5)
        with pytest.raises(ValueError):
            SRXTree(4, max_extent=0)
        with pytest.raises(ValueError):
            SRXTree(4, max_extent=99)

    def test_forms_supernodes_on_overlapping_data(self, srx_tree):
        assert srx_tree.supernode_count() > 0
        srx_tree.check_invariants()

    def test_threshold_one_never_grows(self, rng):
        # max_overlap=1.0 can never be exceeded, so the SRX-tree must
        # behave exactly like an SR-tree.
        pts = clustered(rng)
        srx = SRXTree(8, max_overlap=1.0)
        srx.load(pts)
        assert srx.supernode_count() == 0
        sr = SRTree(8)
        sr.load(pts)
        assert srx.height == sr.height
        assert srx.leaf_count() == sr.leaf_count()

    def test_extent_bounded(self, rng):
        pts = clustered(rng, n_clusters=4, per_cluster=200)
        tree = SRXTree(8, max_overlap=0.01, max_extent=2)
        tree.load(pts)
        for node in tree.iter_nodes():
            if not node.is_leaf:
                assert node.extent <= 2
        tree.check_invariants()


class TestCorrectness:
    def test_knn_exact_with_supernodes(self, srx_tree, overlap_heavy, rng):
        for _ in range(8):
            q = rng.random(16)
            got = [n.value for n in srx_tree.nearest(q, 9)]
            assert got == brute_force_knn(overlap_heavy, q, 9)

    def test_delete_with_supernodes(self, rng):
        pts = clustered(rng)
        tree = SRXTree(8, max_overlap=0.05)
        tree.load(pts)
        victims = rng.choice(len(pts), size=len(pts) // 3, replace=False)
        for v in victims:
            tree.delete(pts[v], value=int(v))
        tree.check_invariants()
        assert tree.size == len(pts) - len(victims)

    def test_supernode_shrinks_on_clean_split(self, rng):
        # Keep inserting well-separated data after the supernodes formed:
        # eventually clean splits occur and produce ordinary nodes again.
        pts = clustered(rng)
        tree = SRXTree(8, max_overlap=0.1, max_extent=2)
        tree.load(pts)
        far = rng.random((400, 8)) + 10.0
        tree.load(far)
        tree.check_invariants()
        q = np.full(8, 10.5)
        everything = np.vstack([pts, far])
        # Values restart at 0 for the second load, so compare distances.
        expected = np.sort(np.linalg.norm(everything - q, axis=1))[:5]
        got = [n.distance for n in tree.nearest(q, 5)]
        np.testing.assert_allclose(got, expected, atol=1e-9)


class TestSplitOverlapMeasure:
    def test_disjoint_groups_zero(self, rng):
        tree = SRXTree(2)
        for i in range(30):
            tree.insert([0.01 * i, 0.0], i)
        for i in range(30):
            tree.insert([5.0 + 0.01 * i, 0.0], 100 + i)
        root = tree.read_node(tree.root_id)
        n = root.count
        xs = root.centers[:n, 0]
        group_a = np.nonzero(xs < 2.5)[0]
        group_b = np.nonzero(xs >= 2.5)[0]
        assert SRXTree.split_overlap(root, group_a, group_b) == 0.0

    def test_identical_groups_full_overlap(self, rng):
        tree = SRXTree(3)
        pts = rng.random((100, 3))
        tree.load(pts)
        root = tree.read_node(tree.root_id)
        n = root.count
        half = np.arange(n // 2)
        rest = np.arange(n // 2, n)
        # Interleaved groups over the same region overlap heavily.
        even = np.arange(0, n, 2)
        odd = np.arange(1, n, 2)
        if len(even) and len(odd):
            assert SRXTree.split_overlap(root, even, odd) > 0.3


class TestPersistence:
    def test_supernodes_survive_reopen(self, tmp_path, overlap_heavy, rng):
        pts = overlap_heavy
        path = tmp_path / "srx.idx"
        with Database.create(path, kind="srx", dims=16, max_overlap=0.05) as db:
            db.insert_many(pts)
            supernodes = db.index.supernode_count()
            assert supernodes > 0
            q = rng.random(16)
            expected = [n.value for n in db.knn(q, 7)]

        with Database.open(path) as reopened:
            assert reopened.index.supernode_count() == supernodes
            assert reopened.index._max_overlap == 0.05
            assert [n.value for n in reopened.knn(q, 7)] == expected
            reopened.verify()
