"""Property-based tests (hypothesis) for core invariants.

These cover the load-bearing mathematical properties: the geometry
kernels' bounds, the region rules every tree prunes with (on real
trees), codec round trips, heap semantics, and index exactness under
arbitrary point distributions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.geometry import farthest_point_rects, mindist_point_rects
from repro.indexes import KDBTree, RStarTree, SRTree, SSTree, make_index
from repro.search.knn import KnnCandidates
from repro.storage.layout import NodeLayout
from repro.storage.nodes import LeafNode
from repro.storage.serializer import NodeCodec

from tests.helpers import internal_entries


finite = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False,
                   allow_infinity=False)


def points_strategy(min_rows=2, max_rows=60, dims=4):
    return arrays(np.float64, st.tuples(st.integers(min_rows, max_rows),
                                        st.just(dims)),
                  elements=finite)


# ----------------------------------------------------------------------
# geometry kernels: the bounds hold on arbitrary point sets
# ----------------------------------------------------------------------


def bounding_box(points):
    return points.min(axis=0)[None, :], points.max(axis=0)[None, :]


@given(points=points_strategy(), query=arrays(np.float64, (4,), elements=finite))
@settings(max_examples=60, deadline=None)
def test_rect_mindist_is_valid_lower_bound(points, query):
    bound = mindist_point_rects(query, *bounding_box(points))[0]
    dists = np.linalg.norm(points - query, axis=1)
    assert np.all(dists >= bound - 1e-7)


@given(points=points_strategy(), query=arrays(np.float64, (4,), elements=finite))
@settings(max_examples=60, deadline=None)
def test_rect_farthest_is_valid_upper_bound(points, query):
    bound = farthest_point_rects(query, *bounding_box(points))[0]
    dists = np.linalg.norm(points - query, axis=1)
    assert np.all(dists <= bound + 1e-7)


@given(points=points_strategy(min_rows=1))
@settings(max_examples=60, deadline=None)
def test_sr_region_shapes_consistent(points):
    # The leaf construction of the SR-tree: sphere radius (to points)
    # never exceeds the farthest-vertex distance of the MBR.
    center = points.mean(axis=0)
    radius = float(np.max(np.linalg.norm(points - center, axis=1)))
    assert radius <= farthest_point_rects(center, *bounding_box(points))[0] + 1e-7


# ----------------------------------------------------------------------
# region rules: what the trees prune with is sound, on real trees
# ----------------------------------------------------------------------

#: Every family that bounds its nodes' contents, with each MINDIST rule
#: of the SR-tree (the K-D-B-tree partitions space instead).
REGION_FAMILIES = {
    "rtree": ("rtree", {}),
    "rstar": ("rstar", {}),
    "sstree": ("sstree", {}),
    "srtree-max": ("srtree", {"mindist_rule": "max"}),
    "srtree-sphere": ("srtree", {"mindist_rule": "sphere"}),
    "srtree-rect": ("srtree", {"mindist_rule": "rect"}),
    "srx": ("srx", {}),
    "vamsplit": ("vamsplit", {}),
}
SPHERE_FAMILIES = ["sstree", "srtree-max", "srx"]

# Pages this small put 150 points under a tree of height >= 3, so there
# are entries above leaves and entries above internal nodes.
SMALL_PAGES = {"page_size": 512, "leaf_data_size": 16}


@st.composite
def clustered_points(draw):
    """150-220 points scattered around a few drawn centres at a drawn
    spread — exact duplicates (spread 0) and near-ties included."""
    centres = draw(points_strategy(min_rows=1, max_rows=8))
    n = draw(st.integers(150, 220))
    spread = draw(st.sampled_from([0.0, 1e-9, 0.01, 1.0, 30.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    picks = centres[rng.integers(len(centres), size=n)]
    return picks + spread * rng.standard_normal(picks.shape)


def region_tree(family, points):
    kind, options = REGION_FAMILIES[family]
    tree = make_index(kind, points.shape[1], **SMALL_PAGES, **options)
    tree.load(points)
    assert tree.height >= 3
    return tree


@pytest.mark.parametrize("family", REGION_FAMILIES)
@given(points=clustered_points(), queries=points_strategy(min_rows=1, max_rows=3))
@settings(max_examples=10, deadline=None)
def test_child_mindists_bound_the_points_beneath(family, points, queries):
    # Pruning a child at MINDIST d is only sound if nothing beneath it
    # is nearer than d.
    tree = region_tree(family, points)
    for q in queries:
        for node, slot, _, below in internal_entries(tree):
            nearest = np.linalg.norm(below - q, axis=1).min()
            assert tree.child_mindists(node, q)[slot] <= nearest + 1e-9


@pytest.mark.parametrize("family", REGION_FAMILIES)
@given(points=clustered_points(), queries=points_strategy(min_rows=1, max_rows=6))
@settings(max_examples=6, deadline=None)
def test_child_mindists_batch_rows_equal_scalar(family, points, queries):
    tree = region_tree(family, points)
    for node in tree.iter_nodes():
        if node.is_leaf:
            continue
        block = tree.child_mindists_batch(node, queries)
        for q, row in zip(queries, block):
            assert np.array_equal(row, tree.child_mindists(node, q))


@pytest.mark.parametrize("family", SPHERE_FAMILIES)
@given(points=clustered_points())
@settings(max_examples=10, deadline=None)
def test_reach_bounds_the_points_beneath(family, points):
    # The reach the checker compares with the stored radius: an upper
    # bound on the distance from the stored centre to every point
    # beneath, and one the stored radius covers.
    tree = region_tree(family, points)
    for node, slot, child, below in internal_entries(tree):
        center = node.centers[slot]
        reach = tree._reach(center, child, tree.HAS_RECTS)
        assert np.linalg.norm(below - center, axis=1).max() <= reach + 1e-9
        assert reach <= node.radii[slot] + 1e-9


# ----------------------------------------------------------------------
# codec properties
# ----------------------------------------------------------------------


@given(
    points=points_strategy(min_rows=0, max_rows=12, dims=4),
    payloads=st.lists(
        st.one_of(st.integers(-2**31, 2**31), st.text(max_size=40), st.none()),
        max_size=12,
    ),
)
@settings(max_examples=60, deadline=None)
def test_leaf_codec_roundtrip(points, payloads):
    layout = NodeLayout(dims=4, has_rects=True, has_spheres=True, has_weights=True)
    codec = NodeCodec(layout)
    leaf = LeafNode(1, 4, layout.leaf_capacity)
    n = min(len(points), len(payloads), layout.leaf_capacity)
    for i in range(n):
        leaf.add(points[i], payloads[i])
    decoded = codec.decode(1, codec.encode(leaf))
    assert decoded.count == n
    np.testing.assert_array_equal(decoded.points[:n], leaf.points[:n])
    assert decoded.values == leaf.values


# ----------------------------------------------------------------------
# candidate-heap properties
# ----------------------------------------------------------------------


@given(
    dists=st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=1, max_size=80),
    k=st.integers(1, 20),
)
@settings(max_examples=80, deadline=None)
def test_candidates_keep_k_smallest(dists, k):
    heap = KnnCandidates(k)
    column = np.array(dists)
    for start in range(0, len(dists), 12):  # one offer per leaf's worth
        rows = slice(start, start + 12)
        heap.offer_batch(column[rows], column[rows, None],
                         range(len(dists))[rows], start)
    result = [n.distance for n in heap.results()]
    assert result == sorted(dists)[: min(k, len(dists))]


def _sequential_candidates(leaves, k):
    """The reference rule: every candidate of every ``(page, distances,
    values)`` leaf ranked by ``(distance, page, slot)``, the first ``k``
    kept."""
    every = [(d, page, slot, v) for page, leaf, values in leaves
             for slot, (d, v) in enumerate(zip(leaf, values))]
    return [(d, v) for d, _, _, v in sorted(every, key=lambda c: c[:3])[:k]]


@given(
    leaves=st.lists(
        st.lists(st.integers(0, 5).map(float) | st.just(float("inf")),
                 min_size=1, max_size=12),
        min_size=1, max_size=10),
    k=st.integers(1, 12),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_gated_offer_batch_is_the_sequential_rule(leaves, k, data):
    # Integer distances tie often; inf ones must enter a filling heap.
    # Leaves arrive in any page order, and the answer must not see it.
    pages = data.draw(st.permutations(range(len(leaves))))
    heap = KnnCandidates(k)
    numbered, start = [], 0
    for page, leaf in zip(pages, leaves):
        values = list(range(start, start + len(leaf)))
        start += len(leaf)
        column = np.array(leaf)
        heap.offer_batch(column, column[:, None], values, page)
        numbered.append((page, leaf, values))
    got = [(n.distance, n.value) for n in heap.results()]
    assert got == _sequential_candidates(numbered, k)


# ----------------------------------------------------------------------
# index exactness properties
# ----------------------------------------------------------------------


def assert_knn_distances_exact(points, query, k, neighbors):
    """Distance-based exactness check, robust to ties in the data.

    Arbitrary point sets contain exact ties; index and brute force may
    legitimately order them differently, so assert on distances and on
    consistency of each returned (point, distance) pair instead.
    """
    expected = np.sort(np.linalg.norm(points - query, axis=1))[: min(k, len(points))]
    got = np.array([n.distance for n in neighbors])
    np.testing.assert_allclose(got, expected, atol=1e-9)
    for n in neighbors:
        assert n.distance == pytest.approx(
            float(np.linalg.norm(n.point - query)), abs=1e-9
        )
        np.testing.assert_allclose(n.point, points[n.value])


@pytest.mark.parametrize("cls", [RStarTree, SSTree, SRTree], ids=lambda c: c.NAME)
@given(points=points_strategy(min_rows=2, max_rows=80),
       query=arrays(np.float64, (4,), elements=finite),
       k=st.integers(1, 10))
@settings(max_examples=25, deadline=None)
def test_dynamic_tree_knn_exact(cls, points, query, k):
    tree = cls(4)
    tree.load(points)
    assert_knn_distances_exact(points, query, k, tree.nearest(query, k))


@given(points=points_strategy(min_rows=2, max_rows=80),
       query=arrays(np.float64, (4,), elements=finite),
       k=st.integers(1, 10))
@settings(max_examples=25, deadline=None)
def test_kdb_knn_exact(points, query, k):
    # The K-D-B-tree cannot split a page of all-identical points; skip
    # those degenerate draws (documented limitation).
    unique = np.unique(points, axis=0)
    tree = KDBTree(4)
    try:
        tree.load(points)
    except Exception:
        assert len(unique) < len(points)
        return
    assert_knn_distances_exact(points, query, k, tree.nearest(query, k))


@pytest.mark.parametrize("cls", [SRTree], ids=lambda c: c.NAME)
@given(points=points_strategy(min_rows=4, max_rows=60),
       delete_seed=st.integers(0, 2**31))
@settings(max_examples=20, deadline=None)
def test_insert_delete_roundtrip(cls, points, delete_seed):
    tree = cls(4)
    tree.load(points)
    rng = np.random.default_rng(delete_seed)
    victims = rng.choice(len(points), size=len(points) // 2, replace=False)
    for v in victims:
        tree.delete(points[v], value=int(v))
    assert tree.size == len(points) - len(victims)
    tree.check_invariants()
    survivors = sorted(set(range(len(points))) - {int(v) for v in victims})
    assert sorted(v for _, v in tree.iter_points()) == survivors
