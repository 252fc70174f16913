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

__all__ = ["range_search"]


def range_search(index, point: np.ndarray, radius: float) -> list[Neighbor]:
    """All stored points with Euclidean distance <= ``radius``, closest first."""
    results: list[Neighbor] = []
    span = trace.active
    if span is not None:
        span.visit(index.root_id, index.height - 1, 0.0, radius)
    _visit(index, index.root_id, point, radius, results, span)
    results.sort(key=lambda n: n.distance)
    return results


def _visit(index, page_id: int, point: np.ndarray, radius: float,
           results: list[Neighbor], span) -> None:
    node = index.read_node(page_id)
    stats = index.stats
    if node.is_leaf:
        if node.count == 0:
            return
        pts, dists = leaf_distances(node, point, stats)
        for i in np.nonzero(dists <= radius)[0]:
            results.append(Neighbor(float(dists[i]), pts[i].copy(), node.values[i]))
        return
    dists = index.child_mindists(node, point)
    stats.distance_computations += node.count
    level = node.level - 1
    for child_id, mindist in zip(node.child_ids[: node.count].tolist(),
                                 dists.tolist()):
        if mindist <= radius:
            if span is not None:
                span.visit(child_id, level, mindist, radius)
            _visit(index, child_id, point, radius, results, span)
        elif span is not None:
            span.prune(child_id, level, mindist, radius)
