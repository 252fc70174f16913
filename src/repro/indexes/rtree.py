"""The original R-tree (Guttman, SIGMOD 1984).

The ancestor of the whole family: the paper's R*-tree baseline "is the
most successful variant of the R-tree", and the SR-tree inherits the
R-tree's deletion algorithm outright (Section 4.3).  Implementing
Guttman's original makes the lineage measurable: how much of the
R*-tree's performance comes from its improved ChooseSubtree/split/
reinsertion, versus the basic bounding-rectangle hierarchy.

Differences from the R*-tree:

* **ChooseLeaf** descends by least volume enlargement at *every* level
  (no leaf-level overlap minimization);
* **splits** use Guttman's quadratic algorithm (PickSeeds maximizes the
  dead area of a seed pair, PickNext assigns the entry with the largest
  enlargement difference) or, optionally, his linear algorithm;
* **no forced reinsertion** — an overflowing node always splits.
"""

from __future__ import annotations

import numpy as np

from ..storage.nodes import InternalNode, LeafNode
from .base import Entry
from .dynamic import DynamicTree

__all__ = ["RTree", "quadratic_split", "linear_split"]

Node = LeafNode | InternalNode

_SPLIT_STRATEGIES = ("quadratic", "linear")


class RTree(DynamicTree):
    """Guttman's original dynamic R-tree over points.

    Parameters beyond the common ones:

    split:
        ``"quadratic"`` (default, Guttman's recommendation) or
        ``"linear"``.
    """

    NAME = "rtree"
    HAS_RECTS = True
    HAS_SPHERES = False
    HAS_WEIGHTS = False

    def __init__(self, dims: int, *, split: str = "quadratic", **kwargs) -> None:
        if split not in _SPLIT_STRATEGIES:
            raise ValueError(f"split must be one of {_SPLIT_STRATEGIES}")
        super().__init__(dims, **kwargs)
        self._split_strategy = split

    def _extra_meta(self) -> dict:
        return {"split": self._split_strategy}

    def _restore_extra(self, meta: dict) -> None:
        self._split_strategy = meta.get("split", "quadratic")

    # ------------------------------------------------------------------
    # ChooseLeaf: least volume enlargement, ties by least volume
    # ------------------------------------------------------------------

    def _choose_child(self, node: InternalNode, entry: Entry) -> int:
        n = node.count
        lows = node.lows[:n]
        highs = node.highs[:n]
        new_lows = np.minimum(lows, entry.low)
        new_highs = np.maximum(highs, entry.high)
        volumes = np.prod(highs - lows, axis=1)
        enlargements = np.prod(new_highs - new_lows, axis=1) - volumes
        margin_growth = np.sum(new_highs - new_lows, axis=1) - np.sum(
            highs - lows, axis=1
        )
        keys = np.lexsort((volumes, margin_growth, enlargements))
        return int(keys[0])

    # ------------------------------------------------------------------
    # splits
    # ------------------------------------------------------------------

    def _split_indices(self, node: Node) -> tuple[np.ndarray, np.ndarray]:
        if node.is_leaf:
            lows = highs = node.points[: node.count]
            m = self.leaf_min_fill
        else:
            lows = node.lows[: node.count]
            highs = node.highs[: node.count]
            m = self.node_min_fill
        if self._split_strategy == "quadratic":
            return quadratic_split(lows, highs, m)
        return linear_split(lows, highs, m)

    # ------------------------------------------------------------------
    # no forced reinsertion
    # ------------------------------------------------------------------

    def _should_reinsert(self, node: Node, is_root: bool) -> bool:
        return False


def quadratic_split(lows: np.ndarray, highs: np.ndarray,
                    m: int) -> tuple[np.ndarray, np.ndarray]:
    """Guttman's quadratic split of ``n`` rectangles into two groups.

    PickSeeds chooses the pair wasting the most dead area if grouped
    together; PickNext repeatedly assigns the unplaced entry with the
    greatest difference of enlargement between the two groups, to the
    group needing less enlargement.  Minimum fill is enforced by
    assigning the remainder wholesale once a group runs short.
    """
    n = lows.shape[0]
    if not 1 <= m <= n // 2:
        m = max(1, min(m, n // 2))

    # PickSeeds: maximal dead volume d(i, j) = vol(cover) - vol(i) - vol(j).
    cover_low = np.minimum(lows[:, None, :], lows[None, :, :])
    cover_high = np.maximum(highs[:, None, :], highs[None, :, :])
    cover_vol = np.prod(cover_high - cover_low, axis=2)
    vols = np.prod(highs - lows, axis=1)
    dead = cover_vol - vols[:, None] - vols[None, :]
    # Tie-safe fallback for degenerate volumes: widest pairwise margin.
    dead_margin = np.sum(cover_high - cover_low, axis=2)
    np.fill_diagonal(dead, -np.inf)
    np.fill_diagonal(dead_margin, -np.inf)
    flat = np.argmax(dead + 1e-9 * dead_margin)
    seed_a, seed_b = np.unravel_index(flat, dead.shape)

    group_a = [int(seed_a)]
    group_b = [int(seed_b)]
    bounds_a = [lows[seed_a].copy(), highs[seed_a].copy()]
    bounds_b = [lows[seed_b].copy(), highs[seed_b].copy()]
    remaining = [i for i in range(n) if i not in (seed_a, seed_b)]

    while remaining:
        # Minimum-fill guard: if a group must take every remaining entry
        # to reach m, assign them all.
        if len(group_a) + len(remaining) == m:
            group_a.extend(remaining)
            break
        if len(group_b) + len(remaining) == m:
            group_b.extend(remaining)
            break
        # PickNext: maximal |d1 - d2| preference.
        vol_a = float(np.prod(bounds_a[1] - bounds_a[0]))
        vol_b = float(np.prod(bounds_b[1] - bounds_b[0]))
        best_i = -1
        best_pref = -np.inf
        best_d: tuple[float, float] = (0.0, 0.0)
        for i in remaining:
            d1 = float(np.prod(np.maximum(bounds_a[1], highs[i])
                               - np.minimum(bounds_a[0], lows[i]))) - vol_a
            d2 = float(np.prod(np.maximum(bounds_b[1], highs[i])
                               - np.minimum(bounds_b[0], lows[i]))) - vol_b
            pref = abs(d1 - d2)
            if pref > best_pref:
                best_pref = pref
                best_i = i
                best_d = (d1, d2)
        remaining.remove(best_i)
        d1, d2 = best_d
        # Resolve ties by smaller volume, then smaller group.
        take_a = (d1, vol_a, len(group_a)) <= (d2, vol_b, len(group_b))
        if take_a:
            group_a.append(best_i)
            bounds_a = [np.minimum(bounds_a[0], lows[best_i]),
                        np.maximum(bounds_a[1], highs[best_i])]
        else:
            group_b.append(best_i)
            bounds_b = [np.minimum(bounds_b[0], lows[best_i]),
                        np.maximum(bounds_b[1], highs[best_i])]

    return np.array(group_a), np.array(group_b)


def linear_split(lows: np.ndarray, highs: np.ndarray,
                 m: int) -> tuple[np.ndarray, np.ndarray]:
    """Guttman's linear split: seeds with greatest normalized separation.

    For each dimension, find the entry with the highest low side and the
    one with the lowest high side; normalize their separation by the
    dimension's width; the dimension with the greatest normalized
    separation supplies the two seeds.  Remaining entries are assigned
    round-robin by least enlargement (linear time).
    """
    n = lows.shape[0]
    if not 1 <= m <= n // 2:
        m = max(1, min(m, n // 2))

    width = np.maximum(highs.max(axis=0) - lows.min(axis=0), 1e-300)
    highest_low = np.argmax(lows, axis=0)
    lowest_high = np.argmin(highs, axis=0)
    separation = (lows[highest_low, range(lows.shape[1])]
                  - highs[lowest_high, range(lows.shape[1])]) / width
    dim = int(np.argmax(separation))
    seed_a = int(highest_low[dim])
    seed_b = int(lowest_high[dim])
    if seed_a == seed_b:
        seed_b = (seed_a + 1) % n

    group_a = [seed_a]
    group_b = [seed_b]
    bounds_a = [lows[seed_a].copy(), highs[seed_a].copy()]
    bounds_b = [lows[seed_b].copy(), highs[seed_b].copy()]
    remaining = [i for i in range(n) if i not in (seed_a, seed_b)]

    for index, i in enumerate(remaining):
        left = len(remaining) - index
        if len(group_a) + left == m:
            group_a.extend(remaining[index:])
            break
        if len(group_b) + left == m:
            group_b.extend(remaining[index:])
            break
        d1 = float(np.prod(np.maximum(bounds_a[1], highs[i])
                           - np.minimum(bounds_a[0], lows[i])))
        d2 = float(np.prod(np.maximum(bounds_b[1], highs[i])
                           - np.minimum(bounds_b[0], lows[i])))
        if (d1, len(group_a)) <= (d2, len(group_b)):
            group_a.append(i)
            bounds_a = [np.minimum(bounds_a[0], lows[i]),
                        np.maximum(bounds_a[1], highs[i])]
        else:
            group_b.append(i)
            bounds_b = [np.minimum(bounds_b[0], lows[i]),
                        np.maximum(bounds_b[1], highs[i])]

    return np.array(group_a), np.array(group_b)
