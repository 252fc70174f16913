"""The region rules have one home, and their checker can fail.

``SpatialIndex`` states what bounds a node once — ``_rect_of``
(Section 2.2), ``_sphere_of`` (Section 2.3), ``_entry_fields`` composing
them, ``_check_parent_entry`` verifying them — keyed by ``HAS_RECTS`` /
``HAS_SPHERES``.  These tests hold the two ends together: what is stored
is the rule's output, and a stored shape that is *not* makes
``check_invariants`` raise (every other test only sees it pass).
"""

import numpy as np
import pytest

from repro.analysis import measure_leaf_regions
from repro.exceptions import InvariantViolationError
from repro.geometry import rect_volume
from repro.indexes import make_index

RECT_KINDS = ["rtree", "rstar", "srtree", "srx", "vamsplit"]
SPHERE_KINDS = ["sstree", "srtree", "srx"]
DYNAMIC_KINDS = ["rtree", "rstar", "sstree", "srtree", "srx"]

# Pages this small put 300 points under a tree of height >= 3, so an
# entry above leaves and an entry above internal nodes both exist.
SMALL_PAGES = {"page_size": 512, "leaf_data_size": 16}


@pytest.fixture(scope="module")
def small_tree():
    """``small_tree(kind)``: one valid tree per family for the module
    (each test puts back what it corrupts)."""
    trees = {}

    def get(kind):
        if kind not in trees:
            tree = trees[kind] = make_index(kind, 4, **SMALL_PAGES)
            tree.load(np.random.default_rng(3).random((300, 4)))
            assert tree.height >= 3
        trees[kind].check_invariants()
        return trees[kind]

    return get


def entry_above(tree, child_level):
    """``(page id, slot)`` of an entry whose child is at ``child_level``."""
    for node in tree.iter_nodes():
        if node.level == child_level + 1:
            return node.page_id, node.count - 1
    raise AssertionError(f"no node above level {child_level}")


def store(tree, page_id, field, slot, value):
    """Overwrite one stored shape of one entry and write the node back."""
    node = tree.read_node(page_id)
    node.ensure_mutable()
    getattr(node, field)[slot] = value
    tree.store.write(node)


class TestCheckersCanFail:
    @pytest.mark.parametrize("side, onto", [("lows", "highs"), ("highs", "lows")])
    @pytest.mark.parametrize("child_level", [0, 1], ids=["leaf", "internal"])
    @pytest.mark.parametrize("kind", RECT_KINDS)
    def test_collapsed_rectangle_is_caught(self, small_tree, kind, child_level,
                                           side, onto):
        tree = small_tree(kind)
        page_id, slot = entry_above(tree, child_level)
        node = tree.read_node(page_id)
        saved = getattr(node, side)[slot].copy()
        store(tree, page_id, side, slot, getattr(node, onto)[slot].copy())
        try:
            with pytest.raises(InvariantViolationError, match="rectangle"):
                tree.check_invariants()
        finally:
            store(tree, page_id, side, slot, saved)
        tree.check_invariants()

    @pytest.mark.parametrize("child_level", [0, 1], ids=["leaf", "internal"])
    @pytest.mark.parametrize("kind", SPHERE_KINDS)
    def test_shrunken_sphere_is_caught(self, small_tree, kind, child_level):
        tree = small_tree(kind)
        page_id, slot = entry_above(tree, child_level)
        saved = float(tree.read_node(page_id).radii[slot])
        store(tree, page_id, "radii", slot, 0.01 * saved)
        try:
            with pytest.raises(InvariantViolationError, match="sphere"):
                tree.check_invariants()
        finally:
            store(tree, page_id, "radii", slot, saved)
        tree.check_invariants()

    def test_sr_sphere_smaller_than_a_child_sphere_is_valid(self):
        # min(d_s, d_r) lets a parent sphere stop short of a child
        # *sphere* while still covering every point, so the reach the
        # checker compares must keep the rectangle term.  The tree below
        # has such entries; a sphere-only reach would call them broken.
        tree = make_index("srtree", 8, radius_rule="min", **SMALL_PAGES)
        tree.load(np.random.default_rng(5).random((400, 8)))
        short = 0
        for node in tree.iter_nodes():
            if node.level < 2:
                continue
            for slot in range(node.count):
                child = tree.read_node(int(node.child_ids[slot]))
                sphere_only = tree._reach(node.centers[slot], child)
                short += sphere_only > node.radii[slot] + 1e-9
        assert short > 0
        tree.check_invariants()


class TestStoredEntryIsTheRulesOutput:
    @pytest.mark.parametrize("kind", DYNAMIC_KINDS)
    def test_no_stale_field_after_inserts_and_deletes(self, kind):
        rng = np.random.default_rng(11)
        pts = rng.random((900, 5))
        tree = make_index(kind, 5, page_size=1024, leaf_data_size=16)
        tree.load(pts)
        for i in rng.choice(900, size=300, replace=False):
            tree.delete(pts[i], value=int(i))
        stored = {"low": "lows", "high": "highs", "center": "centers",
                  "radius": "radii", "weight": "weights"}
        checked = 0
        for node in tree.iter_nodes():
            if node.is_leaf:
                continue
            for slot in range(node.count):
                child = tree.read_node(int(node.child_ids[slot]))
                for name, value in tree._entry_fields(child).items():
                    assert np.array_equal(getattr(node, stored[name])[slot],
                                          value), (kind, node.page_id, name)
                    checked += 1
        assert checked > 100

    def test_figure6_ss_leaves_as_rectangles_use_the_rstar_rule(self):
        pts = np.random.default_rng(13).random((500, 6))
        sstree = make_index("sstree", 6)
        sstree.load(pts)
        rstar = make_index("rstar", 6)
        boxes = [rstar._entry_fields(leaf) for leaf in sstree.iter_leaves()]
        stats = measure_leaf_regions(sstree)
        assert stats.leaf_count == len(boxes)
        assert stats.rect_volume_mean == float(np.mean(
            [rect_volume(box["low"], box["high"]) for box in boxes]))
        assert stats.rect_diameter_mean == float(np.mean(
            [np.linalg.norm(box["high"] - box["low"]) for box in boxes]))
