"""Window (axis-aligned rectangle) queries.

The classic multidimensional range query: report every stored point
inside a query box.  A subtree is pruned when its region provably
misses the box — rectangle regions by rectangle intersection, sphere
regions when the sphere's center is farther from the box than its
radius, SR regions when either shape misses (the same complementary
pruning as the paper's nearest-neighbor MINDIST rule).

A window is a block of one of the one depth-first search,
:func:`repro.exec.batch.depth_first`, priced by :func:`window_prices`:
an entry is at distance 0 when its region (at a leaf, its point) meets
the box and at infinity when it misses, and the box's collector is a
range query's at radius 0.  So children are read in entry order, the
pruned ones are traced at infinity, and the answer is in ``(leaf page
id, slot)`` order.
"""

from __future__ import annotations

import numpy as np

from ..geometry import mindist_point_rects
from ..indexes.base import Neighbor
from .range import RangeCandidates

__all__ = ["window_search", "window_prices"]


def _meets(node, low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Boolean mask of the entries of ``node`` that may meet the box.

    A leaf's entries are its points.  An internal node's are its child
    regions, tested from the arrays the node carries: rectangle entries
    by rect-rect intersection; sphere entries by ``MINDIST(center, box)
    <= radius``; entries with both shapes must pass both tests (their
    region is the intersection).
    """
    n = node.count
    if node.is_leaf:
        pts = node.points[:n]
        return np.all(pts >= low, axis=1) & np.all(pts <= high, axis=1)
    mask = np.ones(n, dtype=bool)
    if node.lows is not None:
        lows = node.lows[:n]
        highs = node.highs[:n]
        mask &= np.all(lows <= high, axis=1) & np.all(highs >= low, axis=1)
    if node.centers is not None:
        gaps = mindist_point_rects(node.centers[:n], low, high)
        mask &= gaps <= node.radii[:n]
    return mask


def window_prices(index, node, boxes: np.ndarray) -> np.ndarray:
    """The window pricing of :func:`~repro.exec.batch.depth_first`:
    ``(Q, count)``, 0.0 where an entry of ``node`` meets box ``q`` and
    infinity where it misses.  ``boxes`` is ``(Q, 2, D)``, each box its
    low then its high corner."""
    return np.where([_meets(node, low, high) for low, high in boxes],
                    0.0, np.inf)


def window_search(index, low: np.ndarray, high: np.ndarray) -> list[Neighbor]:
    """All stored points with ``low <= p <= high`` on every dimension.

    Results carry distance 0 (a window query has no query point), in
    ``(leaf page id, slot)`` order.
    """
    from ..exec.batch import depth_first

    return depth_first(index, np.stack([low, high])[None],
                       [RangeCandidates(0.0)], window_prices)[0]
