"""The SS-tree (White & Jain, ICDE 1996).

The sphere-based similarity index the paper improves upon.  Node regions
are bounding spheres centered on the centroid of the underlying points;
insertion picks the subtree with the nearest centroid; splits use the
dimension with the highest coordinate variance; overflowing nodes shed
entries through forced reinsertion unless a reinsertion has already
been made at the same node (the SS-tree's variant of the R* mechanism,
Section 2.3 of the paper).
"""

from __future__ import annotations

import numpy as np

from ..storage.nodes import InternalNode, LeafNode
from .base import Entry
from .dynamic import DynamicTree

__all__ = ["SSTree", "variance_split"]

Node = LeafNode | InternalNode


class SSTree(DynamicTree):
    """Dynamic SS-tree over points, with paged storage."""

    NAME = "sstree"
    HAS_RECTS = False
    HAS_SPHERES = True
    HAS_WEIGHTS = True

    # ------------------------------------------------------------------
    # ChooseSubtree: nearest centroid
    # ------------------------------------------------------------------

    def _choose_child(self, node: InternalNode, entry: Entry) -> int:
        diff = node.centers[: node.count] - entry.center
        return int(np.einsum("ij,ij->i", diff, diff).argmin())

    # ------------------------------------------------------------------
    # Split: highest-variance dimension
    # ------------------------------------------------------------------

    def _split_indices(self, node: Node) -> tuple[np.ndarray, np.ndarray]:
        if node.is_leaf:
            coords = node.points[: node.count]
            m = self.leaf_min_fill
        else:
            coords = node.centers[: node.count]
            m = self.node_min_fill
        return variance_split(coords, m)

    # ------------------------------------------------------------------
    # forced reinsertion
    # ------------------------------------------------------------------

    def _should_reinsert(self, node: Node, is_root: bool) -> bool:
        # Unless a reinsertion has been made at this same node (paper
        # Section 2.3); the flag is cleared when the node splits.
        return not node.reinserted

    def _mark_reinserted(self, node: Node) -> None:
        node.reinserted = True


def variance_split(coords: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The SS-tree split of ``n`` coordinate rows into two groups.

    Chooses the dimension with the highest coordinate variance, then the
    split position (among those leaving at least ``m`` entries on each
    side) that minimizes the summed variance of the two groups along
    that dimension.
    """
    n = coords.shape[0]
    if not 1 <= m <= n // 2:
        m = max(1, min(m, n // 2))
    dim = int(np.argmax(np.var(coords, axis=0)))
    order = np.argsort(coords[:, dim], kind="stable")
    line = coords[order, dim]

    prefix = np.cumsum(line)
    prefix_sq = np.cumsum(line * line)
    total, total_sq = prefix[-1], prefix_sq[-1]

    best_cost = np.inf
    best_k = m
    for k in range(m, n - m + 1):
        sum_a, sq_a = prefix[k - 1], prefix_sq[k - 1]
        sum_b, sq_b = total - sum_a, total_sq - sq_a
        var_a = sq_a / k - (sum_a / k) ** 2
        count_b = n - k
        var_b = sq_b / count_b - (sum_b / count_b) ** 2
        cost = var_a + var_b
        if cost < best_cost:
            best_cost = cost
            best_k = k
    return order[:best_k].copy(), order[best_k:].copy()
