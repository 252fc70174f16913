"""Property-based tests for the query extensions and bulk loading.

Complements ``test_properties.py`` with invariants over the newer
surface: window queries, incremental iteration (and its first ``k`` as a
best-first search), and
bulk-loaded trees — all checked against brute force on arbitrary
point clouds.
"""

from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.indexes import SRTree, SRXTree

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False,
                   allow_infinity=False)


def points_strategy(min_rows=2, max_rows=60, dims=4):
    return arrays(np.float64, st.tuples(st.integers(min_rows, max_rows),
                                        st.just(dims)),
                  elements=finite)


@given(points=points_strategy(),
       corner_a=arrays(np.float64, (4,), elements=finite),
       corner_b=arrays(np.float64, (4,), elements=finite))
@settings(max_examples=40, deadline=None)
def test_window_matches_brute_force(points, corner_a, corner_b):
    low = np.minimum(corner_a, corner_b)
    high = np.maximum(corner_a, corner_b)
    tree = SRTree(4)
    tree.load(points)
    got = sorted(n.value for n in tree.window(low, high))
    inside = np.all(points >= low, axis=1) & np.all(points <= high, axis=1)
    expected = sorted(int(i) for i in np.nonzero(inside)[0])
    assert got == expected


@given(points=points_strategy(),
       query=arrays(np.float64, (4,), elements=finite))
@settings(max_examples=40, deadline=None)
def test_incremental_iteration_is_sorted_and_complete(points, query):
    tree = SRTree(4)
    tree.load(points)
    stream = list(tree.iter_nearest(query))
    assert len(stream) == len(points)
    dists = [n.distance for n in stream]
    assert dists == sorted(dists)
    expected = np.sort(np.linalg.norm(points - query, axis=1))
    np.testing.assert_allclose(dists, expected, atol=1e-9)


@given(points=points_strategy(),
       query=arrays(np.float64, (4,), elements=finite),
       bound=st.floats(0.0, 60.0, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_incremental_bound_equals_range_query(points, query, bound):
    tree = SRTree(4)
    tree.load(points)
    streamed = list(tree.iter_nearest(query, max_distance=bound))
    ranged = tree.within(query, bound)
    assert len(streamed) == len(ranged)
    np.testing.assert_allclose(
        [n.distance for n in streamed], [n.distance for n in ranged], atol=1e-9
    )


@given(points=points_strategy(),
       query=arrays(np.float64, (4,), elements=finite),
       k=st.integers(1, 12))
@settings(max_examples=40, deadline=None)
def test_best_first_equals_depth_first(points, query, k):
    # Each traversal's first k are the brute-force answer.
    tree = SRTree(4)
    tree.load(points)
    expected = np.sort(np.linalg.norm(points - query, axis=1))[: min(k, len(points))]
    dfs = [n.distance for n in tree.nearest(query, k)]
    bfs = [n.distance for n in islice(tree.iter_nearest(query), k)]
    np.testing.assert_allclose(dfs, expected, atol=1e-9)
    np.testing.assert_allclose(bfs, expected, atol=1e-9)


@given(points=points_strategy(min_rows=2, max_rows=120),
       query=arrays(np.float64, (4,), elements=finite),
       k=st.integers(1, 8))
@settings(max_examples=25, deadline=None)
def test_bulk_loaded_tree_exact(points, query, k):
    tree = SRTree(4)
    tree.bulk_load(points)
    tree.check_invariants()
    expected = np.sort(np.linalg.norm(points - query, axis=1))[: min(k, len(points))]
    got = [n.distance for n in tree.nearest(query, k)]
    np.testing.assert_allclose(got, expected, atol=1e-9)


@given(points=points_strategy(min_rows=2, max_rows=120),
       query=arrays(np.float64, (4,), elements=finite),
       k=st.integers(1, 8))
@settings(max_examples=20, deadline=None)
def test_srx_tree_exact(points, query, k):
    tree = SRXTree(4, max_overlap=0.05)
    tree.load(points)
    tree.check_invariants()
    expected = np.sort(np.linalg.norm(points - query, axis=1))[: min(k, len(points))]
    got = [n.distance for n in tree.nearest(query, k)]
    np.testing.assert_allclose(got, expected, atol=1e-9)


@given(points=points_strategy(min_rows=1, max_rows=60))
@settings(max_examples=40, deadline=None)
def test_lookup_finds_every_stored_point(points):
    tree = SRTree(4)
    tree.load(points)
    index = int(len(points) // 2)
    assert index in tree.lookup(points[index])


@pytest.mark.parametrize("seed", range(3))
def test_vam_groups_property(seed):
    # Deterministic fuzz of the bulk-load partitioner across shapes.
    from repro.indexes.bulk import vam_groups

    rng = np.random.default_rng(seed)
    for _ in range(10):
        n = int(rng.integers(1, 400))
        dims = int(rng.integers(1, 10))
        capacity = int(rng.integers(2, 40))
        minimum = int(rng.integers(1, (capacity + 1) // 2 + 1))
        coords = rng.random((n, dims))
        groups = vam_groups(coords, capacity, minimum)
        flat = sorted(int(i) for g in groups for i in g)
        assert flat == list(range(n))
        assert all(len(g) <= capacity for g in groups)
        if n >= minimum:
            assert all(len(g) >= min(minimum, n) for g in groups)
