"""Property-based tests (hypothesis) for core invariants.

These cover the load-bearing mathematical properties: MINDIST bounds,
codec round trips, heap semantics, and index exactness under arbitrary
point distributions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.geometry.rectangle import Rect
from repro.geometry.sphere import Sphere
from repro.indexes import KDBTree, RStarTree, SRTree, SSTree
from repro.search.knn import KnnCandidates
from repro.storage.layout import NodeLayout
from repro.storage.nodes import LeafNode
from repro.storage.serializer import NodeCodec


finite = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False,
                   allow_infinity=False)


def points_strategy(min_rows=2, max_rows=60, dims=4):
    return arrays(np.float64, st.tuples(st.integers(min_rows, max_rows),
                                        st.just(dims)),
                  elements=finite)


# ----------------------------------------------------------------------
# geometry properties
# ----------------------------------------------------------------------


@given(points=points_strategy(), query=arrays(np.float64, (4,), elements=finite))
@settings(max_examples=60, deadline=None)
def test_rect_mindist_is_valid_lower_bound(points, query):
    rect = Rect.bounding(points)
    bound = rect.mindist(query)
    dists = np.linalg.norm(points - query, axis=1)
    assert np.all(dists >= bound - 1e-7)


@given(points=points_strategy(), query=arrays(np.float64, (4,), elements=finite))
@settings(max_examples=60, deadline=None)
def test_rect_farthest_is_valid_upper_bound(points, query):
    rect = Rect.bounding(points)
    bound = rect.farthest(query)
    dists = np.linalg.norm(points - query, axis=1)
    assert np.all(dists <= bound + 1e-7)


@given(points=points_strategy(), query=arrays(np.float64, (4,), elements=finite))
@settings(max_examples=60, deadline=None)
def test_sphere_mindist_maxdist_bracket_members(points, query):
    sphere = Sphere.bounding_centroid(points)
    dists = np.linalg.norm(points - query, axis=1)
    assert np.all(dists >= sphere.mindist(query) - 1e-7)
    assert np.all(dists <= sphere.maxdist(query) + 1e-7)


@given(points=points_strategy())
@settings(max_examples=60, deadline=None)
def test_union_contains_both(points):
    half = len(points) // 2
    if half == 0 or half == len(points):
        return
    a = Rect.bounding(points[:half])
    b = Rect.bounding(points[half:])
    union = a.union(b)
    assert union.contains_rect(a)
    assert union.contains_rect(b)
    assert union.volume() >= max(a.volume(), b.volume()) - 1e-12


@given(points=points_strategy(min_rows=1))
@settings(max_examples=60, deadline=None)
def test_sr_region_shapes_consistent(points):
    # The leaf construction of the SR-tree: sphere radius (to points)
    # never exceeds the farthest-vertex distance of the MBR.
    center = points.mean(axis=0)
    radius = float(np.max(np.linalg.norm(points - center, axis=1)))
    rect = Rect.bounding(points)
    assert radius <= rect.farthest(center) + 1e-7


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
                         range(len(dists))[rows])
    result = [n.distance for n in heap.results()]
    assert result == sorted(dists)[: min(k, len(dists))]


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
