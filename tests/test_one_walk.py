"""Every family's ``verify()`` is one walk that reads each page once, and
every rule it states can fail.

``SpatialIndex.check_invariants`` runs the family-independent rules
(levels, capacity, no empty internal node, the leaves summing to
``size``) on the walk ``iter_nodes`` does, and hands each node to the
family's ``_check_entry``: the region and weight rules, the dynamic
trees' minimum fill, the K-D-B-tree's exact partition.  Each test here
plants one violation in a clean tree — written through
``NodeStore.write`` and read back from its sealed page, or set on
``_size`` — and expects the error to name the damaged page.
"""

import numpy as np
import pytest

from repro.exceptions import InvariantViolationError
from repro.indexes import make_index

# Pages this small put 300 points under a tree at least 3 high.
SMALL_PAGES = {"page_size": 512, "leaf_data_size": 16}

FAMILIES = {
    "rtree": {},
    "rstar": {},
    "sstree": {},
    "srtree": {},
    "srtree-sphere": {"radius_rule": "sphere"},
    "srx": {"max_overlap": 0.05},
    "kdb": {},
    "vamsplit": {},
    "linear": {},
}
TREES = [f for f in FAMILIES if f != "linear"]
DYNAMIC = ["rtree", "rstar", "sstree", "srtree", "srtree-sphere", "srx"]
WEIGHTED = ["sstree", "srtree", "srtree-sphere", "srx"]
RECTS = ["rtree", "rstar", "srtree", "srtree-sphere", "srx", "vamsplit"]


def build(family):
    tree = make_index(family.split("-")[0], 4, **SMALL_PAGES, **FAMILIES[family])
    tree.load(np.random.default_rng(3).random((300, 4)))
    if family != "linear":
        assert tree.height >= 3
    if family == "srx":
        assert tree.supernode_count() > 0
    tree.check_invariants()
    return tree


def edges(tree, below_root=False):
    """Every ``(parent, slot, node)`` of the walk with a parent (and, with
    ``below_root``, whose parent is not a top page either)."""
    tops = set(tree.top_ids())
    return [(parent, slot, node) for parent, slot, node in tree._walk()
            if parent is not None
            and not (below_root and parent.page_id in tops)]


def rewrite(tree, page_id, change):
    """Apply ``change`` to the node at ``page_id``, write it, and drop the
    buffer pool: the check reads the damage back from the sealed page."""
    node = tree.read_node(page_id)
    node.ensure_mutable()
    change(node)
    tree.store.write(node)
    tree.store.drop_cache()


def assert_caught(tree, pattern):
    with pytest.raises(InvariantViolationError, match=pattern):
        tree.check_invariants()


@pytest.mark.parametrize("family", FAMILIES)
def test_verify_looks_up_each_page_once(family):
    tree = build(family)
    nodes = sum(1 for _ in tree.iter_nodes())
    stats = tree.stats
    before = stats.buffer_hits + stats.buffer_misses
    tree.check_invariants()
    assert stats.buffer_hits + stats.buffer_misses - before == nodes


@pytest.mark.parametrize("family", FAMILIES)
def test_a_size_mismatch_is_caught(family):
    tree = build(family)
    tree._size += 1
    assert_caught(tree, "holds 300 points, size says 301")


@pytest.mark.parametrize("family", TREES)
def test_a_top_page_off_the_height_is_caught(family):
    tree = build(family)
    rewrite(tree, tree.root_id, lambda node: setattr(node, "level", node.level + 1))
    assert_caught(tree, f"top page {tree.root_id} at level")


@pytest.mark.parametrize("family", TREES)
def test_a_child_at_its_parents_level_is_caught(family):
    tree = build(family)
    parent, _, node = next(
        (p, s, n) for p, s, n in edges(tree)
        if not n.is_leaf and n.level == p.level - 1)
    rewrite(tree, node.page_id, lambda n: setattr(n, "level", parent.level))
    assert_caught(tree, f"node {node.page_id} level {parent.level} under "
                        f"parent {parent.page_id}")


@pytest.mark.parametrize("family", DYNAMIC + ["kdb"])
def test_a_leaf_two_levels_under_its_parent_is_caught(family):
    # A level-2 entry pointed straight at a grandchild leaf: its region
    # still bounds the leaf, so only the exact level rule of a balanced
    # family names it.
    tree = build(family)
    parent, slot, node = next(e for e in edges(tree) if e[0].level == 2)
    assert node.level == 1
    leaf_id = int(node.child_ids[0])

    def skip_a_level(n):
        n.child_ids[slot] = leaf_id

    rewrite(tree, parent.page_id, skip_a_level)
    assert_caught(tree, f"node {leaf_id} level 0 under parent "
                        f"{parent.page_id} level 2")


def test_a_vamsplit_remainder_subtree_may_sit_more_than_one_level_down():
    # The static build carves a small remainder group into a shorter
    # subtree, which is why the shared rule is "below", not "one below".
    tree = make_index("vamsplit", 4, **SMALL_PAGES)
    tree.load(np.random.default_rng(3).random((1000, 4)))
    assert any(node.level < parent.level - 1
               for parent, _, node in edges(tree))
    tree.check_invariants()


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_coordinate_that_is_not_finite_is_caught(family, bad):
    tree = build(family)
    leaf = next(tree.iter_leaves())

    def spoil(node):
        node.points[0, 0] = bad

    rewrite(tree, leaf.page_id, spoil)
    assert_caught(tree, f"leaf {leaf.page_id} holds a coordinate that is "
                        f"not finite")


@pytest.mark.parametrize("family", TREES)
def test_an_empty_internal_node_is_caught(family):
    tree = build(family)
    _, _, node = next(e for e in edges(tree) if not e[2].is_leaf)
    rewrite(tree, node.page_id, lambda n: setattr(n, "count", 0))
    assert_caught(tree, f"internal node {node.page_id} is empty")


@pytest.mark.parametrize("family", DYNAMIC)
def test_a_node_under_minimum_fill_is_caught(family):
    tree = build(family)
    _, _, leaf = edges(tree)[-1]
    assert leaf.is_leaf

    def shrink(node):
        while node.count >= tree.leaf_min_fill:
            node.remove_at(node.count - 1)

    rewrite(tree, leaf.page_id, shrink)
    assert_caught(tree, f"node {leaf.page_id} holds {tree.leaf_min_fill - 1} "
                        f"entries, minimum is {tree.leaf_min_fill}")


@pytest.mark.parametrize("family", WEIGHTED)
def test_a_wrong_weight_is_caught(family):
    tree = build(family)
    # A root entry: a weight changed lower down changes its node's weight,
    # which the entry above it reports first.
    parent, slot, _ = edges(tree)[0]

    def heavier(node):
        node.weights[slot] += 1

    rewrite(tree, parent.page_id, heavier)
    assert_caught(tree, f"parent {parent.page_id} entry {slot} weight")


@pytest.mark.parametrize("family", RECTS)
def test_a_rectangle_that_does_not_bound_is_caught(family):
    tree = build(family)
    parent, slot, _ = edges(tree, below_root=True)[0]

    def collapse(node):
        node.highs[slot] = node.lows[slot]

    rewrite(tree, parent.page_id, collapse)
    assert_caught(tree, f"parent {parent.page_id} entry {slot} rectangle")


@pytest.mark.parametrize("family", WEIGHTED)
def test_a_sphere_that_does_not_cover_is_caught(family):
    tree = build(family)
    parent, slot, _ = edges(tree, below_root=True)[0]

    def shrink(node):
        node.radii[slot] *= 0.01

    rewrite(tree, parent.page_id, shrink)
    assert_caught(tree, f"parent {parent.page_id} entry {slot} sphere")


class TestKDBPartition:
    """The K-D-B rules are exact and half-open: no ``_BOUND_EPS``."""

    def test_overlapping_siblings_are_caught(self):
        tree = build("kdb")

        def widen(node):
            node.lows[0] = -np.inf
            node.highs[0] = np.inf

        rewrite(tree, tree.root_id, widen)
        assert_caught(tree, f"children 0 and 1 of node {tree.root_id} overlap")

    def test_a_point_on_its_regions_high_side_leaks(self):
        tree = build("kdb")
        parent, slot, leaf = next(
            (p, s, n) for p, s, n in edges(tree)
            if n.is_leaf and n.count and np.isfinite(p.highs[s]).any())
        dim = int(np.argmax(np.isfinite(parent.highs[slot])))
        high = float(parent.highs[slot][dim])

        def onto_the_plane(node):
            node.points[0, dim] = high

        rewrite(tree, leaf.page_id, onto_the_plane)
        assert_caught(tree, f"leaf {leaf.page_id} holds points outside")

    def test_a_child_region_past_its_parent_region_leaks(self):
        tree = build("kdb")
        parent, slot, node = next(
            (p, s, n) for p, s, n in edges(tree)
            if not n.is_leaf and np.isfinite(p.highs[s]).any())
        dim = int(np.argmax(np.isfinite(parent.highs[slot])))
        high = float(parent.highs[slot][dim])

        def past_the_region(n):
            n.highs[0, dim] = high + 1.0

        rewrite(tree, node.page_id, past_the_region)
        assert_caught(tree, f"child region 0 of node {node.page_id} leaks")
