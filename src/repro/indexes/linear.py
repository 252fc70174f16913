"""Linear scan: the exact brute-force baseline.

Stores points in a flat chain of leaf pages and answers every query by
reading all of them.  It is the ground truth the test suite verifies
the tree indexes against, and the "no index" cost reference: its page
reads per query equal the total number of leaf pages.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from ..exceptions import InvariantViolationError
from ..geometry import as_point
from ..search.knn import KnnCandidates, leaf_distances, scan_leaf
from ..search.range import leaf_hits, ranked
from ..storage.nodes import LeafNode
from .base import Neighbor, SpatialIndex

__all__ = ["LinearScan"]


class LinearScan(SpatialIndex):
    """Brute-force index over a chain of leaf pages."""

    NAME = "linear"
    HAS_RECTS = True  # layout only; no internal nodes are ever created
    HAS_SPHERES = False
    HAS_WEIGHTS = False

    def __init__(self, dims: int, **kwargs) -> None:
        super().__init__(dims, **kwargs)
        self._leaf_ids: list[int] = [self._root_id]

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def _insert_point(self, point, value: object = None) -> None:
        """Append a point to the tail page, opening a new page when full."""
        point = as_point(point, self.dims)
        tail = self.read_node(self._leaf_ids[-1])
        if tail.count >= tail.capacity:
            tail = self._store.new_leaf()
            self._leaf_ids.append(tail.page_id)
        tail.add(point.copy(), value)
        self._store.write(tail)
        self._size += 1

    def _mutation_snapshot(self):
        return (super()._mutation_snapshot(), list(self._leaf_ids))

    def _restore_mutation_snapshot(self, snapshot) -> None:
        base_snapshot, leaf_ids = snapshot
        super()._restore_mutation_snapshot(base_snapshot)
        self._leaf_ids = leaf_ids

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    # The base class checks the arguments and observes the query; only
    # the traversal differs: every page.

    def _knn(self, point, k: int) -> list[Neighbor]:
        """Exact k nearest neighbors by scanning every page."""
        candidates = KnnCandidates(k)
        for leaf in self.iter_leaves():
            scan_leaf(leaf, point, candidates, self.stats)
        return candidates.results()

    def _range(self, point, radius: float) -> list[Neighbor]:
        """All points within ``radius``, closest first, by scanning every page."""
        hits: list[tuple] = []
        for leaf in self.iter_leaves():
            if leaf.count == 0:
                continue
            pts, dists = leaf_distances(leaf, point, self.stats)
            leaf_hits(leaf, pts, dists, radius, hits)
        return ranked(hits)

    def _window(self, low, high) -> list[Neighbor]:
        """All points inside the box, by scanning every page."""
        if np.any(low > high):
            raise ValueError("window query has low > high on some dimension")
        results: list[Neighbor] = []
        for leaf in self.iter_leaves():
            if leaf.count == 0:
                continue
            pts = leaf.points[: leaf.count]
            inside = np.all(pts >= low, axis=1) & np.all(pts <= high, axis=1)
            self.stats.distance_computations += leaf.count
            for i in np.nonzero(inside)[0]:
                results.append(Neighbor(0.0, pts[i].copy(), leaf.values[i]))
        return results

    def _iter_nearest(self, point, max_distance: float):
        """Every point within ``max_distance``, closest first (one scan)."""
        yield from self._range(point, max_distance)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def _extra_meta(self) -> dict:
        return {"leaf_ids": list(self._leaf_ids)}

    def _restore_extra(self, meta: dict) -> None:
        self._leaf_ids = list(meta["leaf_ids"])

    # ------------------------------------------------------------------
    # walking
    # ------------------------------------------------------------------

    def iter_nodes(self) -> Iterator[LeafNode]:
        for page_id in self._leaf_ids:
            yield self.read_node(page_id)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Every page of the chain is a leaf within capacity, and their
        counts sum to the stored size."""
        total = 0
        for node in self.iter_nodes():
            if not node.is_leaf or node.count > node.capacity:
                raise InvariantViolationError(
                    f"page {node.page_id} of the chain is not a leaf "
                    f"within capacity")
            total += node.count
        if total != self._size:
            raise InvariantViolationError(
                f"the chain holds {total} points, size says {self._size}")
