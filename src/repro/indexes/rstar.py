"""The R*-tree (Beckmann, Kriegel, Schneider, Seeger, SIGMOD 1990).

The paper's rectangle-based baseline.  Node regions are minimum bounding
rectangles; insertion uses the R* ChooseSubtree (least overlap
enlargement at the leaf level, least volume enlargement above), the
margin-driven R* split, and forced reinsertion of 30 % of an overflowing
node's entries once per level per insertion.
"""

from __future__ import annotations

import numpy as np

from ..storage.nodes import InternalNode, LeafNode
from .base import Entry
from .dynamic import DynamicTree

__all__ = ["RStarTree"]

Node = LeafNode | InternalNode


def _volumes(lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
    """Row-wise rectangle volumes."""
    return np.prod(highs - lows, axis=1)


def _margins(lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
    """Row-wise rectangle margins (sums of edge lengths)."""
    return np.sum(highs - lows, axis=1)


def _pairwise_overlap(
    lows_a: np.ndarray, highs_a: np.ndarray, lows_b: np.ndarray, highs_b: np.ndarray
) -> np.ndarray:
    """Intersection volume of every rectangle in A with every one in B."""
    inter = np.minimum(highs_a[:, None, :], highs_b[None, :, :]) - np.maximum(
        lows_a[:, None, :], lows_b[None, :, :]
    )
    np.maximum(inter, 0.0, out=inter)
    return np.prod(inter, axis=2)


class RStarTree(DynamicTree):
    """Dynamic R*-tree over points, with paged storage."""

    NAME = "rstar"
    HAS_RECTS = True
    HAS_SPHERES = False
    HAS_WEIGHTS = False

    # ------------------------------------------------------------------
    # ChooseSubtree
    # ------------------------------------------------------------------

    def _choose_child(self, node: InternalNode, entry: Entry) -> int:
        n = node.count
        lows = node.lows[:n]
        highs = node.highs[:n]
        new_lows = np.minimum(lows, entry.low)
        new_highs = np.maximum(highs, entry.high)
        old_volumes = _volumes(lows, highs)
        enlargements = _volumes(new_lows, new_highs) - old_volumes
        # Degenerate (zero-volume) rectangles tie every volume criterion
        # at 0; margin enlargement breaks those ties geometrically.
        margin_growth = _margins(new_lows, new_highs) - _margins(lows, highs)

        if node.level == 1:
            # Children are leaves: minimize overlap enlargement, resolving
            # ties by volume enlargement, then by volume (R* Section 4.1).
            # Computed as an (n, n, D) broadcast: overlap of each child's
            # old and enlarged rectangle with every other child.
            before = _pairwise_overlap(lows, highs, lows, highs)
            after = _pairwise_overlap(new_lows, new_highs, lows, highs)
            np.fill_diagonal(before, 0.0)
            np.fill_diagonal(after, 0.0)
            overlap_deltas = (after - before).sum(axis=1)
            keys = np.lexsort((old_volumes, margin_growth, enlargements,
                               overlap_deltas))
            return int(keys[0])

        keys = np.lexsort((old_volumes, margin_growth, enlargements))
        return int(keys[0])

    # ------------------------------------------------------------------
    # Split (ChooseSplitAxis + ChooseSplitIndex)
    # ------------------------------------------------------------------

    def _split_indices(self, node: Node) -> tuple[np.ndarray, np.ndarray]:
        if node.is_leaf:
            lows = highs = node.points[: node.count]
            m = self.leaf_min_fill
        else:
            lows = node.lows[: node.count]
            highs = node.highs[: node.count]
            m = self.node_min_fill
        return rstar_split(lows, highs, m)

    # ------------------------------------------------------------------
    # forced reinsertion
    # ------------------------------------------------------------------

    def _should_reinsert(self, node: Node, is_root: bool) -> bool:
        # Once per level per insertion (R* Section 4.3).
        return node.level not in self._reinserted_levels

    def _mark_reinserted(self, node: Node) -> None:
        self._reinserted_levels.add(node.level)


def rstar_split(lows: np.ndarray, highs: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The R*-tree split of ``n`` rectangles into two groups.

    ChooseSplitAxis picks the dimension whose candidate distributions
    have the least total margin; ChooseSplitIndex then picks the
    distribution with the least overlap volume (ties: least total
    volume).  Points are handled as degenerate rectangles (``lows is
    highs``), in which case only one sort order per axis is considered.

    Returns the two index groups; each has at least ``m`` members.
    """
    n, dims = lows.shape
    if not 1 <= m <= n // 2:
        m = max(1, min(m, n // 2))
    degenerate = lows is highs

    best_axis = -1
    best_axis_margin = np.inf
    best_axis_orders: list[np.ndarray] = []
    for dim in range(dims):
        orders = [np.argsort(lows[:, dim], kind="stable")]
        if not degenerate:
            orders.append(np.argsort(highs[:, dim], kind="stable"))
        margin_total = 0.0
        for order in orders:
            margin_total += _distribution_margin_sum(lows, highs, order, m)
        if margin_total < best_axis_margin:
            best_axis_margin = margin_total
            best_axis = dim
            best_axis_orders = orders

    best_key = (np.inf, np.inf)
    best_split: tuple[np.ndarray, np.ndarray] | None = None
    for order in best_axis_orders:
        pre_low, pre_high, suf_low, suf_high = _running_bounds(lows[order], highs[order])
        ks = np.arange(m, n - m + 1)
        low_a, high_a = pre_low[ks - 1], pre_high[ks - 1]
        low_b, high_b = suf_low[ks], suf_high[ks]
        inter = np.minimum(high_a, high_b) - np.maximum(low_a, low_b)
        np.maximum(inter, 0.0, out=inter)
        overlaps = np.prod(inter, axis=1)
        volumes = np.prod(high_a - low_a, axis=1) + np.prod(high_b - low_b, axis=1)
        pick = int(np.lexsort((volumes, overlaps))[0])
        key = (float(overlaps[pick]), float(volumes[pick]))
        if key < best_key:
            best_key = key
            k = int(ks[pick])
            best_split = (order[:k].copy(), order[k:].copy())
    assert best_split is not None
    return best_split


def _running_bounds(sorted_lows: np.ndarray, sorted_highs: np.ndarray):
    """Prefix and suffix bounding boxes of a sorted rectangle sequence."""
    pre_low = np.minimum.accumulate(sorted_lows, axis=0)
    pre_high = np.maximum.accumulate(sorted_highs, axis=0)
    suf_low = np.minimum.accumulate(sorted_lows[::-1], axis=0)[::-1]
    suf_high = np.maximum.accumulate(sorted_highs[::-1], axis=0)[::-1]
    return pre_low, pre_high, suf_low, suf_high


def _distribution_margin_sum(
    lows: np.ndarray, highs: np.ndarray, order: np.ndarray, m: int
) -> float:
    """Total margin of every legal (k, n-k) distribution along one order."""
    n = lows.shape[0]
    pre_low, pre_high, suf_low, suf_high = _running_bounds(lows[order], highs[order])
    pre_margin = np.sum(pre_high - pre_low, axis=1)
    suf_margin = np.sum(suf_high - suf_low, axis=1)
    return float(pre_margin[m - 1 : n - m].sum() + suf_margin[m : n - m + 1].sum())
