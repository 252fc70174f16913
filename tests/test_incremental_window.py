"""Tests for incremental NN iteration, window queries, and describe()."""

import itertools

import numpy as np
import pytest

from repro import REGISTRY
from repro.analysis import describe
from repro.exceptions import DimensionalityError
from repro.indexes import INDEX_KINDS, build_index
from repro.obs import FLIGHT
from repro.search import incremental

TREE_KINDS = [k for k in sorted(INDEX_KINDS) if k != "linear"]
ALL_KINDS = sorted(INDEX_KINDS)


@pytest.fixture(scope="module")
def cloud():
    return np.random.default_rng(2024).random((400, 5))


class TestIterNearest:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_full_iteration_is_sorted_and_complete(self, kind, cloud):
        index = build_index(kind, cloud)
        q = cloud[3]
        neighbors = list(index.iter_nearest(q))
        assert len(neighbors) == len(cloud)
        dists = [n.distance for n in neighbors]
        assert dists == sorted(dists)
        assert sorted(n.value for n in neighbors) == list(range(len(cloud)))

    @pytest.mark.parametrize("kind", TREE_KINDS)
    def test_prefix_matches_knn(self, kind, cloud, rng):
        index = build_index(kind, cloud)
        q = rng.random(5)
        from itertools import islice

        lazy = [n.value for n in islice(index.iter_nearest(q), 15)]
        eager = [n.value for n in index.nearest(q, 15)]
        assert lazy == eager

    def test_lazy_reads_fewer_pages(self, cloud):
        index = build_index("srtree", cloud)
        q = cloud[0]

        index.store.drop_cache()
        before = index.stats.snapshot()
        iterator = index.iter_nearest(q)
        next(iterator)
        one_reads = index.stats.since(before).page_reads

        index.store.drop_cache()
        before = index.stats.snapshot()
        list(index.iter_nearest(q))
        all_reads = index.stats.since(before).page_reads
        assert one_reads < all_reads

    def test_nodes_surface_before_points_at_equal_distance(self, monkeypatch):
        # A subtree at MINDIST d may hold a point at distance d stored at
        # a lower address than a queued point at d, so at equal distance
        # the subtree is expanded first: only then are the first k the
        # k-NN answer, (distance, page, slot) ties included.  Points on
        # an integer grid, each stored twice, tie often.
        rng = np.random.default_rng(7)
        grid = rng.integers(0, 6, size=(300, 4)).astype(np.float64)
        index = build_index("rstar", np.concatenate([grid, grid]),
                            page_size=4096)
        probes = rng.integers(0, 6, size=(40, 4)).astype(np.float64)

        def disagreements():
            return sum([n.value for n in itertools.islice(
                            index.iter_nearest(q), 5)]
                       != [n.value for n in index.nearest(q, 5)]
                       for q in probes)

        assert disagreements() == 0
        monkeypatch.setattr(incremental, "_POINT", -1)  # points first
        assert disagreements() > 0

    def test_max_distance_bound(self, cloud):
        index = build_index("srtree", cloud)
        q = cloud[0]
        bound = 0.5
        bounded = list(index.iter_nearest(q, max_distance=bound))
        assert all(n.distance <= bound for n in bounded)
        exact = index.within(q, bound)
        assert len(bounded) == len(exact)

    def test_empty_index(self):
        from repro.indexes import SRTree

        tree = SRTree(3)
        assert list(tree.iter_nearest([0.0, 0.0, 0.0])) == []


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_iter_nearest_is_checked_and_counted_at_the_call(kind, cloud):
    # Every family checks its arguments when ``iter_nearest`` is called,
    # before any ``next()``, as ``within`` does, and counts the query
    # once, as ``incremental``: never as a ``knn`` or its flight record.
    index = build_index(kind, cloud)
    with pytest.raises(ValueError, match="max_distance"):
        index.iter_nearest(cloud[0], max_distance=float("nan"))
    with pytest.raises(ValueError, match="max_distance"):
        index.iter_nearest(cloud[0], max_distance=-1)
    with pytest.raises(DimensionalityError):
        index.iter_nearest(cloud[0][:4])

    series = 'repro_queries_total{{index_kind="{}",op="{}"}}'.format
    before, last = REGISTRY.flatten(), FLIGHT.records(1)
    lazy = index.iter_nearest(cloud[0], max_distance=0.5)
    after = REGISTRY.flatten()
    assert (after.get(series(kind, "incremental"), 0)
            - before.get(series(kind, "incremental"), 0)) == 1
    list(lazy)
    after = REGISTRY.flatten()
    assert after.get(series(kind, "knn")) == before.get(series(kind, "knn"))
    assert FLIGHT.records(1) == last


class TestWindow:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_brute_force(self, kind, cloud):
        index = build_index(kind, cloud)
        low = np.full(5, 0.2)
        high = np.full(5, 0.7)
        got = sorted(n.value for n in index.window(low, high))
        inside = np.all(cloud >= low, axis=1) & np.all(cloud <= high, axis=1)
        expected = sorted(int(i) for i in np.nonzero(inside)[0])
        assert got == expected, kind

    @pytest.mark.parametrize("kind", ["srtree", "sstree", "rstar", "linear"])
    def test_empty_window(self, kind, cloud):
        index = build_index(kind, cloud)
        assert index.window(np.full(5, 2.0), np.full(5, 3.0)) == []

    @pytest.mark.parametrize("kind", ["srtree", "linear"])
    def test_degenerate_window_finds_exact_point(self, kind, cloud):
        index = build_index(kind, cloud)
        hits = index.window(cloud[17], cloud[17])
        assert 17 in [n.value for n in hits]

    def test_inverted_window_rejected(self, cloud):
        index = build_index("srtree", cloud)
        with pytest.raises(ValueError):
            index.window(np.full(5, 0.9), np.full(5, 0.1))

    def test_whole_space_returns_everything(self, cloud):
        index = build_index("srtree", cloud)
        hits = index.window(np.zeros(5), np.ones(5))
        assert len(hits) == len(cloud)

    def test_window_prunes_reads(self, cloud):
        index = build_index("srtree", cloud)
        index.store.drop_cache()
        before = index.stats.snapshot()
        index.window(np.full(5, 0.45), np.full(5, 0.55))
        narrow = index.stats.since(before).page_reads

        index.store.drop_cache()
        before = index.stats.snapshot()
        index.window(np.zeros(5), np.ones(5))
        full = index.stats.since(before).page_reads
        assert narrow < full


class TestLookup:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_finds_stored_point(self, kind, cloud):
        index = build_index(kind, cloud)
        assert index.lookup(cloud[42]) == [42]

    @pytest.mark.parametrize("kind", ["srtree", "kdb", "linear"])
    def test_absent_point_empty(self, kind, cloud):
        index = build_index(kind, cloud)
        assert index.lookup(np.full(5, 7.5)) == []

    def test_duplicates_all_returned(self):
        from repro.indexes import SRTree

        tree = SRTree(3)
        for tag in ("a", "b", "c"):
            tree.insert([0.5, 0.5, 0.5], tag)
        assert sorted(tree.lookup([0.5, 0.5, 0.5])) == ["a", "b", "c"]

    def test_kdb_lookup_is_cheap(self, cloud):
        # The K-D-B-tree's selling point (paper Section 2.1): point
        # queries touch one path; the overlapping trees may touch more.
        kdb = build_index("kdb", cloud)
        kdb.store.drop_cache()
        before = kdb.stats.snapshot()
        kdb.lookup(cloud[100])
        # One path plus at most a couple of boundary leaves.
        assert kdb.stats.since(before).page_reads <= kdb.height + 2


class TestDescribe:
    @pytest.mark.parametrize("kind", TREE_KINDS)
    def test_structure_consistent(self, kind, cloud):
        index = build_index(kind, cloud)
        info = describe(index)
        assert info.index_name == kind
        assert info.size == len(cloud)
        assert info.height == index.height
        assert len(info.levels) == index.height
        assert info.levels[0].entries == len(cloud)
        assert info.total_pages == index.leaf_count() + index.node_count()
        assert info.bytes_on_disk == info.total_pages * 8192

    @pytest.mark.parametrize("kind", ["rstar", "sstree", "srtree"])
    def test_dynamic_trees_guarantee_min_utilization(self, kind, cloud):
        # The R-tree family's 40 % guarantee (paper Section 2.2) — every
        # non-root page.
        index = build_index(kind, cloud)
        info = describe(index)
        for level in info.levels:
            if level.nodes > 1:  # the root is exempt
                assert level.min_entries >= index.leaf_min_fill if level.level == 0 \
                    else level.min_entries >= 1

    def test_kdb_utilization_not_guaranteed(self, rng):
        # The paper's criticism of the K-D-B-tree: it cannot enforce
        # minimum utilization (forced splits, no deletion rebalancing).
        # Drain one leaf below the 40 % bound and observe that the tree
        # tolerates it — a dynamic R-tree-family index would condense.
        pts = rng.random((200, 3))
        index = build_index("kdb", pts)
        leaf = next(l for l in index.iter_leaves() if l.count > 2)
        victims = [(leaf.points[i].copy(), leaf.values[i])
                   for i in range(leaf.count)]
        for point, value in victims[:-1]:
            index.delete(point, value=value)
        index.check_invariants()
        info = describe(index)
        assert info.levels[0].min_entries < index.leaf_min_fill

    def test_str_output(self, cloud):
        index = build_index("srtree", cloud)
        text = str(describe(index))
        assert "srtree" in text
        assert "level 0" in text
        assert "fill" in text

    def test_utilization_range(self, cloud):
        index = build_index("srtree", cloud)
        info = describe(index)
        assert 0.3 < info.leaf_utilization <= 1.0
