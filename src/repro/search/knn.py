"""Depth-first branch-and-bound search: k-NN, and range at a fixed bound.

This is the algorithm of Roussopoulos, Kelley and Vincent ("Nearest
Neighbor Queries", SIGMOD 1995), which the paper uses for every index
structure (Section 4.4):

1. traverse the tree depth-first, visiting children in order of their
   MINDIST from the query point (the *active branch list*);
2. maintain the ``k`` best candidates found so far in a max-heap;
3. prune any subtree whose MINDIST exceeds the current ``k``-th best
   distance.

A range query is the same search with its pruning bound held at the
radius (:mod:`repro.search.range` supplies that collector), so it too
reads its children in MINDIST order.  The search starts from the
index's top pages: a tree's root, or every page of the linear scan's
leaf chain, which is the case of a tree that is all leaves.

The only index-specific ingredient is the MINDIST from a point to a
child region, supplied by ``index.child_mindists`` — rectangles for the
R*-tree family, spheres for the SS-tree, and the combined
``max(sphere, rect)`` bound for the SR-tree.

Distance computations are tallied into the index's
:class:`~repro.storage.stats.IOStats` as a machine-independent CPU-cost
proxy; physical page reads are counted by the node store itself.

**Tracing.**  The search is one traversal that takes the active
span (``trace.active``, read once per query) and records its
visit/prune events under ``if span is not None`` at the places
where a node is expanded — never per leaf candidate.  The untraced query
pays those few branches per node and nothing else; there is no second
copy of any loop to keep in step.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..indexes.base import Neighbor
from ..obs.tracer import trace

__all__ = ["knn_search", "depth_first", "KnnCandidates"]


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


# ----------------------------------------------------------------------
# shared with the incremental search
# ----------------------------------------------------------------------


def leaf_distances(node, point: np.ndarray, stats):
    """The one leaf kernel: ``(points, distances)`` over a leaf's entries.

    Exact Euclidean distances from ``point`` to every point the leaf
    stores, tallied as distance computations.
    """
    pts = node.points[: node.count]
    diff = pts - point
    stats.distance_computations += node.count
    return pts, np.sqrt(np.einsum("ij,ij->i", diff, diff))


# ----------------------------------------------------------------------
# depth-first branch-and-bound
# ----------------------------------------------------------------------


def knn_search(index, point: np.ndarray, k: int) -> list[Neighbor]:
    """Find the ``k`` nearest points to ``point`` in ``index``.

    Returns at most ``k`` :class:`Neighbor` results sorted by ascending
    distance (fewer when the index holds fewer than ``k`` points).
    """
    return depth_first(index, point, KnnCandidates(k))


def depth_first(index, point: np.ndarray, candidates) -> list[Neighbor]:
    """Run the branch-and-bound search from the index's top pages
    (:meth:`~repro.indexes.base.SpatialIndex.top_ids`) into
    ``candidates`` and return its ``results()``.

    ``candidates`` is any collector with ``bound``, ``offer_batch`` and
    ``results``: :class:`KnnCandidates` for k-NN, whose bound shrinks,
    or :class:`~repro.search.range.RangeCandidates`, whose bound stays
    at the radius.
    """
    stats = index.stats
    span = trace.active
    level = index.height - 1
    for page_id in index.top_ids():
        if span is not None:
            span.visit(page_id, level, 0.0, candidates.bound)
        _visit(index, page_id, point, candidates, stats, span)
    return candidates.results()


def _visit(index, page_id: int, point: np.ndarray, candidates, stats,
           span) -> None:
    node = index.read_node(page_id)
    if node.is_leaf:
        if node.count:
            pts, dists = leaf_distances(node, point, stats)
            candidates.offer_batch(dists, pts, node.values, node.page_id)
        return
    dists = index.child_mindists(node, point)
    stats.distance_computations += node.count
    child_ids = node.child_ids
    order = np.argsort(dists, kind="stable")
    for pos, i in enumerate(order):
        # Children are visited in MINDIST order, so once one exceeds the
        # current bound every later one does too.
        if dists[i] > candidates.bound:
            if span is not None:
                bound = candidates.bound
                for j in order[pos:]:
                    span.prune(int(child_ids[j]), node.level - 1,
                               float(dists[j]), bound)
            break
        child_id = int(child_ids[i])
        if span is not None:
            span.visit(child_id, node.level - 1, float(dists[i]),
                       candidates.bound)
        _visit(index, child_id, point, candidates, stats, span)
