"""Window (axis-aligned rectangle) queries.

The classic multidimensional range query: report every stored point
inside a query box.  A subtree is pruned when its region provably
misses the box — rectangle regions by rectangle intersection, sphere
regions when the sphere's center is farther from the box than its
radius, SR regions when either shape misses (the same complementary
pruning as the paper's nearest-neighbor MINDIST rule).

Like the other search algorithms, the one traversal starts from the
index's top pages and takes the active span, recording a visit/prune
verdict per child under ``if span is not None``.
"""

from __future__ import annotations

import numpy as np

from ..geometry import mindist_point_rects
from ..indexes.base import Neighbor
from ..obs.tracer import trace

__all__ = ["window_search", "child_window_mask"]


def child_window_mask(node, low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Boolean mask of child regions that may intersect the query box.

    Works for every index family from the arrays the node carries:
    rectangle entries use rect-rect intersection; sphere entries check
    ``MINDIST(center, box) <= radius``; entries with both shapes must
    pass both tests (their region is the intersection).
    """
    n = node.count
    mask = np.ones(n, dtype=bool)
    if node.lows is not None:
        lows = node.lows[:n]
        highs = node.highs[:n]
        mask &= np.all(lows <= high, axis=1) & np.all(highs >= low, axis=1)
    if node.centers is not None:
        gaps = mindist_point_rects(node.centers[:n], low, high)
        mask &= gaps <= node.radii[:n]
    return mask


def window_search(index, low: np.ndarray, high: np.ndarray) -> list[Neighbor]:
    """All stored points with ``low <= p <= high`` on every dimension.

    Results carry distance 0 (a window query has no query point); they
    are ordered by traversal and can be sorted by the caller as needed.
    """
    if np.any(low > high):
        raise ValueError("window query has low > high on some dimension")
    results: list[Neighbor] = []
    stats = index.stats
    span = trace.active
    # The top pages go on the stack last first, so they are read in order.
    stack = index.top_ids()[::-1]
    if span is not None:
        for page_id in reversed(stack):
            span.visit(page_id, index.height - 1, 0.0)
    while stack:
        node = index.read_node(stack.pop())
        if node.is_leaf:
            _scan_leaf(node, low, high, results, stats)
            continue
        mask = child_window_mask(node, low, high)
        stats.distance_computations += node.count
        child_ids = node.child_ids
        if span is not None:
            # A window query has no MINDIST; record 0.0 for survivors and
            # +inf for pruned children (the region misses the box).
            for i in range(node.count):
                if mask[i]:
                    span.visit(int(child_ids[i]), node.level - 1, 0.0)
                else:
                    span.prune(int(child_ids[i]), node.level - 1,
                               float("inf"), 0.0)
        for i in np.nonzero(mask)[0]:
            stack.append(int(child_ids[i]))
    return results


def _scan_leaf(node, low: np.ndarray, high: np.ndarray,
               results: list[Neighbor], stats) -> None:
    if node.count == 0:
        return
    pts = node.points[: node.count]
    inside = np.all(pts >= low, axis=1) & np.all(pts <= high, axis=1)
    stats.distance_computations += node.count
    for i in np.nonzero(inside)[0]:
        results.append(Neighbor(0.0, pts[i].copy(), node.values[i]))
