"""Unit tests for the node object model, Entry, and the exception tree."""

import numpy as np
import pytest

from repro import exceptions as exc
from repro.indexes.base import Entry, Neighbor
from repro.storage.nodes import InternalNode, LeafNode


class TestLeafNode:
    @pytest.fixture
    def leaf(self):
        return LeafNode(page_id=5, dims=3, capacity=4)

    def test_add_and_views(self, leaf, rng):
        pts = rng.random((3, 3))
        for i, p in enumerate(pts):
            leaf.add(p, i)
        assert leaf.count == 3
        assert leaf.weight == 3
        np.testing.assert_array_equal(leaf.live_points, pts)

    def test_overflow_slot_then_reject(self, leaf, rng):
        for i in range(5):  # capacity 4 + the overflow slot
            leaf.add(rng.random(3), i)
        with pytest.raises(ValueError):
            leaf.add(rng.random(3), 99)

    def test_remove_at_swaps_last(self, leaf, rng):
        pts = rng.random((4, 3))
        for i, p in enumerate(pts):
            leaf.add(p, i)
        point, value = leaf.remove_at(1)
        np.testing.assert_array_equal(point, pts[1])
        assert value == 1
        assert leaf.count == 3
        assert set(leaf.values) == {0, 2, 3}

    def test_remove_at_bounds(self, leaf):
        with pytest.raises(IndexError):
            leaf.remove_at(0)

    def test_take_all_empties(self, leaf, rng):
        for i in range(3):
            leaf.add(rng.random(3), i)
        points, values = leaf.take_all()
        assert points.shape == (3, 3)
        assert values == [0, 1, 2]
        assert leaf.count == 0
        assert leaf.values == []

    def test_leaf_metadata(self, leaf):
        assert leaf.is_leaf
        assert leaf.level == 0
        assert leaf.extent == 1
        assert leaf.all_page_ids == [5]
        assert "LeafNode" in repr(leaf)


class TestInternalNode:
    @pytest.fixture
    def node(self):
        return InternalNode(9, dims=2, capacity=4, level=1,
                            has_rects=True, has_spheres=True, has_weights=True)

    def test_add_requires_all_shapes(self, node):
        with pytest.raises(ValueError, match="rectangle"):
            node.add(1, center=np.zeros(2), radius=1.0, weight=1)
        with pytest.raises(ValueError, match="sphere"):
            node.add(1, low=np.zeros(2), high=np.ones(2), weight=1)
        with pytest.raises(ValueError, match="weight"):
            node.add(1, low=np.zeros(2), high=np.ones(2),
                     center=np.zeros(2), radius=1.0)

    def test_find_child(self, node):
        node.add(42, low=np.zeros(2), high=np.ones(2), center=np.zeros(2),
                 radius=1.0, weight=3)
        assert node.find_child(42) == 0
        with pytest.raises(KeyError):
            node.find_child(77)

    def test_weight_sums_entries(self, node):
        for i, w in enumerate((3, 4, 5)):
            node.add(i, low=np.zeros(2), high=np.ones(2), center=np.zeros(2),
                     radius=1.0, weight=w)
        assert node.weight == 12

    def test_weight_requires_weights(self):
        bare = InternalNode(9, dims=2, capacity=4, level=1,
                            has_rects=True, has_spheres=False, has_weights=False)
        with pytest.raises(AttributeError):
            bare.weight

    def test_level_must_be_positive(self):
        with pytest.raises(ValueError):
            InternalNode(1, 2, 4, level=0, has_rects=True, has_spheres=False,
                         has_weights=False)

    def test_remove_at_preserves_others(self, node):
        for i in range(3):
            node.add(i, low=np.full(2, float(i)), high=np.full(2, i + 1.0),
                     center=np.full(2, float(i)), radius=1.0, weight=i + 1)
        node.remove_at(0)
        assert node.count == 2
        assert set(node.child_ids[:2].tolist()) == {1, 2}

    def test_supernode_page_ids(self, node):
        node.extra_pages = [20, 21]
        assert node.extent == 3
        assert node.all_page_ids == [9, 20, 21]


class TestEntry:
    def test_for_point(self):
        p = np.array([1.0, 2.0])
        entry = Entry.for_point(p, "payload")
        assert entry.is_point
        assert entry.weight == 1
        assert entry.radius == 0.0
        np.testing.assert_array_equal(entry.low, p)
        np.testing.assert_array_equal(entry.high, p)
        assert entry.value == "payload"

    def test_subtree_entry(self):
        entry = Entry(child_id=7, center=np.zeros(2), radius=1.5, weight=40)
        assert not entry.is_point


class TestNeighbor:
    def test_unpacking_and_fields(self):
        n = Neighbor(0.5, np.array([1.0]), "v")
        d, p, v = n
        assert d == 0.5 and v == "v"
        assert n.distance == 0.5

    def test_frozen(self):
        n = Neighbor(0.5, np.array([1.0]), "v")
        with pytest.raises(AttributeError):
            n.distance = 1.0


class TestExceptionHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in ("DimensionalityError", "StorageError", "PageNotFoundError",
                     "PageOverflowError", "BufferPinError", "SerializationError",
                     "EmptyIndexError", "KeyNotFoundError",
                     "InvariantViolationError", "WorkloadError"):
            cls = getattr(exc, name)
            assert issubclass(cls, exc.ReproError), name

    def test_dual_inheritance_for_stdlib_compat(self):
        # Callers can catch these with stdlib exception types too.
        assert issubclass(exc.DimensionalityError, ValueError)
        assert issubclass(exc.PageNotFoundError, KeyError)
        assert issubclass(exc.KeyNotFoundError, KeyError)
        assert issubclass(exc.EmptyIndexError, LookupError)
        assert issubclass(exc.PageOverflowError, ValueError)

    def test_catch_all(self):
        from repro.indexes import SRTree

        tree = SRTree(2)
        with pytest.raises(exc.ReproError):
            tree.nearest([0.0, 0.0], 1)  # empty index
        with pytest.raises(exc.ReproError):
            tree.insert([0.0], None)  # wrong dims
