"""Range (ball) queries: every point within a radius of the query.

The traversal prunes a subtree as soon as its region MINDIST exceeds
the query radius, using the same per-family MINDIST as the k-NN search.

Like the k-NN algorithms, the one traversal takes the active span and
records a visit/prune verdict per child under ``if span is not None``.
"""

from __future__ import annotations

import numpy as np

from ..indexes.base import Neighbor
from ..obs.tracer import trace
from .knn import leaf_distances

__all__ = ["range_search", "leaf_hits", "ranked"]


def leaf_hits(node, pts: np.ndarray, dists: np.ndarray, radius: float,
              hits: list) -> None:
    """Append a ``(distance, page, slot, point, value)`` hit for each
    entry of leaf ``node`` within ``radius`` (``dists`` are its
    distances)."""
    page_id, values = node.page_id, node.values
    for i in np.flatnonzero(dists <= radius).tolist():
        hits.append((float(dists[i]), page_id, i, pts[i].copy(), values[i]))


def ranked(hits: list) -> list[Neighbor]:
    """The hits as :class:`Neighbor` objects in ``(distance, page, slot)``
    order: the k-NN order, so a range answer's first ``k`` are the
    ``k`` nearest."""
    hits.sort(key=lambda hit: hit[:3])
    return [Neighbor(d, point, value) for d, _, _, point, value in hits]


def range_search(index, point: np.ndarray, radius: float) -> list[Neighbor]:
    """All stored points with Euclidean distance <= ``radius``, closest first."""
    hits: list[tuple] = []
    span = trace.active
    if span is not None:
        span.visit(index.root_id, index.height - 1, 0.0, radius)
    _visit(index, index.root_id, point, radius, hits, span)
    return ranked(hits)


def _visit(index, page_id: int, point: np.ndarray, radius: float,
           hits: list, span) -> None:
    node = index.read_node(page_id)
    stats = index.stats
    if node.is_leaf:
        if node.count == 0:
            return
        pts, dists = leaf_distances(node, point, stats)
        leaf_hits(node, pts, dists, radius, hits)
        return
    dists = index.child_mindists(node, point)
    stats.distance_computations += node.count
    level = node.level - 1
    for child_id, mindist in zip(node.child_ids[: node.count].tolist(),
                                 dists.tolist()):
        if mindist <= radius:
            if span is not None:
                span.visit(child_id, level, mindist, radius)
            _visit(index, child_id, point, radius, hits, span)
        elif span is not None:
            span.prune(child_id, level, mindist, radius)
