"""Tests for the best-first traversal (Hjaltason & Samet): the first
``k`` neighbors of ``iter_nearest`` are a k-NN answer."""

from itertools import islice

import numpy as np
import pytest

from repro.indexes import INDEX_KINDS, build_index

from tests.helpers import brute_force_knn, ranked_knn

TREE_KINDS = [k for k in sorted(INDEX_KINDS) if k != "linear"]


@pytest.fixture(scope="module")
def cloud():
    return np.random.default_rng(31337).random((500, 8))


def best_first(index, q, k):
    return list(islice(index.iter_nearest(q), k))


@pytest.mark.parametrize("kind", TREE_KINDS)
class TestBestFirst:
    def test_matches_brute_force(self, kind, cloud):
        index = build_index(kind, cloud)
        rng = np.random.default_rng(1)
        for _ in range(8):
            q = rng.random(8)
            got = [n.value for n in best_first(index, q, 9)]
            assert got == brute_force_knn(cloud, q, 9)

    def test_agrees_with_depth_first(self, kind, cloud):
        # Both rank by (distance, page, slot): each is the brute-force
        # answer, value for value, from a query on a stored point.
        index = build_index(kind, cloud)
        q = cloud[42]
        want = [value for _, value in ranked_knn(index, cloud, q, 21)]
        assert [n.value for n in index.nearest(q, 21)] == want
        assert [n.value for n in best_first(index, q, 21)] == want

    def test_never_reads_more_pages(self, kind, cloud):
        # Best-first is I/O-optimal: for the same tree and query its
        # first k neighbors cost no more pages than the depth-first
        # traversal's k.
        index = build_index(kind, cloud)
        rng = np.random.default_rng(2)
        for _ in range(5):
            q = rng.random(8)
            index.store.drop_cache()
            before = index.stats.snapshot()
            index.nearest(q, 11)
            dfs_reads = index.stats.since(before).page_reads

            index.store.drop_cache()
            before = index.stats.snapshot()
            best_first(index, q, 11)
            bfs_reads = index.stats.since(before).page_reads
            assert bfs_reads <= dfs_reads


class TestAlgorithmSelection:
    def test_k_larger_than_size(self, cloud):
        index = build_index("srtree", cloud)
        res = best_first(index, cloud[0], 1000)
        assert len(res) == len(cloud)
        dists = [n.distance for n in res]
        assert dists == sorted(dists)
