"""k-nearest-neighbor search: the candidate collector, and the query as a
block of one.

The search is the depth-first branch-and-bound of Roussopoulos, Kelley
and Vincent ("Nearest Neighbor Queries", SIGMOD 1995), which the paper
uses for every index structure (Section 4.4):

1. traverse the tree depth-first, visiting children in order of their
   MINDIST from the query point (the *active branch list*);
2. maintain the ``k`` best candidates found so far in a max-heap;
3. prune any subtree whose MINDIST exceeds the current ``k``-th best
   distance.

There is one traversal, :func:`repro.exec.batch.depth_first`, for a
block of queries; :func:`knn_search` runs it on a block of one, with
one :class:`KnnCandidates` as the heap.  A range query is the same
search with its bound held at the radius (:mod:`repro.search.range`).
The only index-specific ingredient is the MINDIST from a point to a
child region (``index.child_mindists_batch``): rectangles for the
R*-tree family, spheres for the SS-tree, and the combined
``max(sphere, rect)`` bound for the SR-tree.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..indexes.base import Neighbor

__all__ = ["knn_search", "KnnCandidates"]


class KnnCandidates:
    """A bounded max-heap of the best ``k`` candidates seen so far.

    Candidates are ordered by the total key ``(distance, leaf page id,
    slot)``: where distances tie, the lower storage address wins.  Every
    traversal that reads the same pages therefore keeps the same ``k``
    points, whatever order it reads them in.
    """

    def __init__(self, k: int) -> None:
        self.k = k
        # Heap items are (-distance, -page, -slot, point, value): heapq is
        # a min-heap, so the worst key sits at index 0.
        self._heap: list[tuple[float, int, int, np.ndarray, object]] = []

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def bound(self) -> float:
        """Current pruning distance: the k-th best, or +inf while filling."""
        if len(self._heap) < self.k:
            return float("inf")
        return -self._heap[0][0]

    def offer_batch(self, distances: np.ndarray, points: np.ndarray, values,
                    page_id: int) -> None:
        """Consider the entries of leaf ``page_id`` at once.

        Candidates are taken in ascending ``(distance, slot)`` order, so
        the first one whose key is not below the worst kept key ends the
        leaf.  A full heap sorts only the candidates that can beat its
        worst: distances below its bound, or equal to it when this page
        is not above the worst's, and none means no sort.  A heap still
        filling takes every candidate, ``inf`` distances included.
        """
        heap = self._heap
        if len(heap) < self.k:
            order = np.argsort(distances, kind="stable")
        else:
            worst = heap[0]
            if page_id <= -worst[1]:
                (below,) = np.nonzero(distances <= -worst[0])
            else:
                (below,) = np.nonzero(distances < -worst[0])
            if below.shape[0] == 0:
                return
            order = below[np.argsort(distances[below], kind="stable")]
        order = order.tolist()
        fill = self.k - len(heap)
        for i in order[:fill]:
            heapq.heappush(
                heap,
                (-float(distances[i]), -page_id, -i, points[i].copy(), values[i]),
            )
        for i in order[fill:]:
            key = (-float(distances[i]), -page_id, -i)
            if key <= heap[0][:3]:
                break
            heapq.heapreplace(heap, (*key, points[i].copy(), values[i]))

    def results(self) -> list[Neighbor]:
        """The candidates as :class:`Neighbor` objects, closest first."""
        ordered = sorted(self._heap, key=lambda item: item[:3], reverse=True)
        return [Neighbor(-item[0], item[3], item[4]) for item in ordered]


def knn_search(index, point: np.ndarray, k: int) -> list[Neighbor]:
    """Find the ``k`` nearest points to ``point`` in ``index``.

    Returns at most ``k`` :class:`Neighbor` results sorted by ascending
    distance (fewer when the index holds fewer than ``k`` points).
    """
    from ..exec.batch import depth_first

    return depth_first(index, point[None], [KnnCandidates(k)])[0]
