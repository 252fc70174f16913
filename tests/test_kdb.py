"""Unit tests for K-D-B-tree specifics: disjoint partitioning, forced splits."""

import numpy as np
import pytest

from repro.exceptions import IndexError_, KeyNotFoundError
from repro.indexes.kdb import KDBTree, _choose_point_plane, _choose_region_plane

from tests.helpers import brute_force_knn


class TestPointPlane:
    def test_picks_spreadiest_dimension(self, rng):
        pts = np.zeros((10, 3))
        pts[:, 2] = np.arange(10, dtype=float)
        pts[:, 0] = rng.random(10) * 0.01
        dim, plane = _choose_point_plane(pts)
        assert dim == 2
        assert 0.0 < plane <= 9.0
        left = np.sum(pts[:, 2] < plane)
        assert 0 < left < 10

    def test_handles_heavy_duplicates(self):
        pts = np.array([[0.0], [0.0], [0.0], [0.0], [1.0]])
        dim, plane = _choose_point_plane(pts)
        assert dim == 0
        assert np.sum(pts[:, 0] < plane) == 4

    def test_all_identical_raises(self):
        with pytest.raises(IndexError_):
            _choose_point_plane(np.ones((5, 2)))


class TestRegionPlane:
    def test_zero_crossing_plane_preferred(self):
        # Two columns of regions: x=1 separates them with no crossings.
        lows = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        highs = np.array([[1.0, 1.0], [1.0, 2.0], [2.0, 1.0], [2.0, 2.0]])
        dim, plane = _choose_region_plane(lows, highs)
        crossed = np.sum((lows[:, dim] < plane) & (highs[:, dim] > plane))
        assert crossed == 0

    def test_no_valid_plane_raises(self):
        lows = np.array([[0.0], [0.0]])
        highs = np.array([[1.0], [1.0]])
        with pytest.raises(IndexError_):
            _choose_region_plane(lows, highs)


class TestTree:
    def test_point_query_single_path(self, rng):
        # The K-D-B-tree's defining property (Section 2.1): a point
        # lookup reads exactly one node per level.
        pts = rng.random((500, 4))
        tree = KDBTree(4)
        tree.load(pts)
        tree.store.drop_cache()
        before = tree.stats.snapshot()
        tree._containing_path(pts[123])
        assert tree.stats.since(before).page_reads == tree.height

    def test_partition_is_exhaustive_and_disjoint(self, rng):
        tree = KDBTree(3)
        tree.load(rng.random((400, 3)))
        tree.check_invariants()
        # Any point in space lands in exactly one leaf.
        for _ in range(20):
            q = rng.random(3) * 2 - 0.5
            path = tree._containing_path(q)
            assert path[-1].is_leaf

    def test_forced_split_preserves_contents(self, rng):
        # Build deep enough for internal splits (which force-split
        # children) and verify nothing is lost.
        pts = rng.random((3000, 2))
        tree = KDBTree(2)
        tree.load(pts)
        assert tree.size == 3000
        values = sorted(v for _, v in tree.iter_points())
        assert values == list(range(3000))
        tree.check_invariants()
        q = rng.random(2)
        assert [n.value for n in tree.nearest(q, 15)] == brute_force_knn(pts, q, 15)

    def test_empty_leaves_tolerated(self, rng):
        # Forced splits may produce empty leaves; queries must survive them.
        pts = rng.random((2000, 2))
        tree = KDBTree(2)
        tree.load(pts)
        empty = sum(1 for leaf in tree.iter_leaves() if leaf.count == 0)
        # Not asserted > 0 (distribution-dependent), but the tree must be
        # consistent either way.
        assert empty >= 0
        tree.check_invariants()

    def test_delete(self, rng):
        pts = rng.random((100, 3))
        tree = KDBTree(3)
        tree.load(pts)
        tree.delete(pts[5], value=5)
        assert tree.size == 99
        assert 5 not in [v for _, v in tree.iter_points()]
        tree.check_invariants()

    def test_delete_missing_raises(self, rng):
        tree = KDBTree(3)
        tree.load(rng.random((20, 3)))
        with pytest.raises(KeyNotFoundError):
            tree.delete(np.full(3, 7.7))

    def test_storage_utilization_not_guaranteed(self, rng):
        # The paper's Section 2.1 criticism: forced splits break minimum
        # utilization.  Document the behaviour: fill factors may fall
        # under 40%, which the other trees never allow.
        pts = rng.random((2000, 2))
        tree = KDBTree(2)
        tree.load(pts)
        fills = [leaf.count for leaf in tree.iter_leaves()]
        assert min(fills) >= 0  # empties allowed
        assert tree.size == sum(fills)


@pytest.mark.parametrize("how", ["insert", "insert_many"])
def test_a_refused_insert_leaves_the_tree_as_it_was(how):
    # A leaf of copies of one point cannot be split: the point that would
    # overflow it is refused before the leaf or the size changes, so the
    # tree still checks and still saves.
    from repro import Database

    db = Database.create(None, kind="kdb", dims=3, page_size=2048)
    assert db.index.read_node(db.index.root_id).capacity == 3
    with pytest.raises(IndexError_, match="all identical"):
        if how == "insert":
            for _ in range(4):
                db.insert(np.zeros(3))
        else:
            db.insert_many(np.zeros((4, 3)))
    assert db.size == 3
    db.index.check_invariants()
    db.close()
