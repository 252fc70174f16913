"""The K-D-B-tree (Robinson, SIGMOD 1981).

A height-balanced disk tree whose sibling regions are *disjoint,
half-open rectangles that tile the parent region completely* — point
queries follow a single root-to-leaf path.  The price is the **forced
split**: when an internal node is divided by a plane, every child region
crossing that plane must be split by the same plane, recursively down to
the leaves.  Forced splits can produce empty or nearly-empty pages, so
the K-D-B-tree cannot guarantee minimum storage utilization (the
deficiency the paper highlights in Section 2.1).

Following the paper (Section 3.1), the split planes are chosen in the
R+-tree style — a data-driven plane balancing the two sides while
crossing as few child regions as possible — rather than the cyclic
dimension choice of Robinson's original, which is prone to cascades of
forced splits.

Conventions: a region is half-open, ``low <= x < high``; the root tiles
the whole space ``[-inf, inf)^D``; points exactly on a split plane
belong to the right (``>=``) side.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import IndexError_, KeyNotFoundError
from ..storage.nodes import InternalNode, LeafNode
from .base import SpatialIndex

__all__ = ["KDBTree"]

Node = LeafNode | InternalNode

_MATCH_EPS = 1e-9


class KDBTree(SpatialIndex):
    """Dynamic K-D-B-tree over points, with paged storage."""

    NAME = "kdb"
    HAS_RECTS = True
    HAS_SPHERES = False
    HAS_WEIGHTS = False

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------

    def _insert_point(self, point, value: object = None) -> None:
        """Insert a point with an optional payload."""
        path = self._containing_path(point)
        leaf = path[-1]
        split = None
        if leaf.count >= leaf.capacity:
            # Choose the plane before the leaf changes: a leaf that
            # cannot be split refuses the point and the tree stays as it
            # was.
            split = _choose_point_plane(
                np.vstack([leaf.points[: leaf.count], point]))
        leaf.add(point.copy(), value)
        self._size += 1
        if split is None:
            self._store.write(leaf)
        else:
            self._split_leaf_upward(path, *split)

    def _containing_path(self, point: np.ndarray) -> list[Node]:
        """The unique root-to-leaf path whose regions contain ``point``."""
        node = self.read_node(self._root_id)
        path = [node]
        while not node.is_leaf:
            index = self._containing_child(node, point)
            node = self.read_node(int(node.child_ids[index]))
            path.append(node)
        return path

    def _containing_child(self, node: InternalNode, point: np.ndarray) -> int:
        n = node.count
        inside = np.all(point >= node.lows[:n], axis=1) & np.all(
            point < node.highs[:n], axis=1
        )
        hits = np.nonzero(inside)[0]
        if hits.size != 1:
            raise IndexError_(
                f"K-D-B regions of node {node.page_id} are not a proper "
                f"partition: point matched {hits.size} children"
            )
        return int(hits[0])

    # ------------------------------------------------------------------
    # splitting
    # ------------------------------------------------------------------

    def _split_leaf_upward(self, path: list[Node], dim: int,
                           plane: float) -> None:
        leaf = path[-1]
        region_low, region_high = self._region_of(path, len(path) - 1)
        left_id, right_id = self._force_split(leaf, dim, plane)
        self._replace_in_parent(
            path, left_id, right_id, region_low, region_high, dim, plane
        )

    def _replace_in_parent(
        self,
        path: list[Node],
        left_id: int,
        right_id: int,
        region_low: np.ndarray,
        region_high: np.ndarray,
        dim: int,
        plane: float,
    ) -> None:
        """Swap a split node's parent entry for the two halves' entries."""
        left_high = region_high.copy()
        left_high[dim] = plane
        right_low = region_low.copy()
        right_low[dim] = plane

        if len(path) == 1:
            old_root = path[0]
            new_root = self._store.new_internal(old_root.level + 1)
            new_root.add(left_id, low=region_low, high=left_high)
            new_root.add(right_id, low=right_low, high=region_high)
            self._store.write(new_root)
            self._root_id = new_root.page_id
            self._height += 1
            return

        parent = path[-2]
        index = parent.find_child(path[-1].page_id)
        parent.remove_at(index)
        parent.add(left_id, low=region_low, high=left_high)
        parent.add(right_id, low=right_low, high=region_high)
        if parent.count <= parent.capacity:
            self._store.write(parent)
            return

        # Parent overflow: split it by a plane, force-splitting any child
        # region that crosses it, and propagate upward.
        parent_low, parent_high = self._region_of(path, len(path) - 2)
        p_dim, p_plane = _choose_region_plane(
            parent.lows[: parent.count], parent.highs[: parent.count]
        )
        p_left, p_right = self._force_split(parent, p_dim, p_plane)
        self._replace_in_parent(
            path[:-1], p_left, p_right, parent_low, parent_high, p_dim, p_plane
        )

    def _region_of(self, path: list[Node], depth: int) -> tuple[np.ndarray, np.ndarray]:
        """The region rectangle of ``path[depth]`` (infinite for the root)."""
        if depth == 0:
            return (
                np.full(self.dims, -np.inf),
                np.full(self.dims, np.inf),
            )
        parent = path[depth - 1]
        index = parent.find_child(path[depth].page_id)
        return parent.lows[index].copy(), parent.highs[index].copy()

    def _force_split(self, node: Node, dim: int, plane: float) -> tuple[int, int]:
        """Split ``node`` by the plane ``x[dim] = plane`` into two pages.

        ``node``'s page is reused for the left half; a fresh page holds
        the right half.  Crossing children are split recursively — the
        K-D-B forced split.  Either half of a *leaf* may end up empty.
        """
        if node.is_leaf:
            points, values = node.take_all()
            sibling = self._store.new_leaf()
            left_mask = points[:, dim] < plane
            for i in np.nonzero(left_mask)[0]:
                node.add(points[i], values[i])
            for i in np.nonzero(~left_mask)[0]:
                sibling.add(points[i], values[i])
            self._store.write(node)
            self._store.write(sibling)
            return node.page_id, sibling.page_id

        n = node.count
        entries = [
            (int(node.child_ids[i]), node.lows[i].copy(), node.highs[i].copy())
            for i in range(n)
        ]
        node.count = 0
        sibling = self._store.new_internal(node.level)
        for child_id, low, high in entries:
            if high[dim] <= plane:
                node.add(child_id, low=low, high=high)
            elif low[dim] >= plane:
                sibling.add(child_id, low=low, high=high)
            else:
                child = self.read_node(child_id)
                left_id, right_id = self._force_split(child, dim, plane)
                left_high = high.copy()
                left_high[dim] = plane
                right_low = low.copy()
                right_low[dim] = plane
                node.add(left_id, low=low, high=left_high)
                sibling.add(right_id, low=right_low, high=high)
        self._store.write(node)
        self._store.write(sibling)
        return node.page_id, sibling.page_id

    # ------------------------------------------------------------------
    # deletion
    # ------------------------------------------------------------------

    def _delete_point(self, point, value: object = ...) -> None:
        """Remove one stored copy of ``point``.

        The K-D-B-tree has no re-balancing on deletion (Robinson's paper
        leaves reorganization to offline rebuilds); an emptied leaf
        simply remains as an empty region of the partition.
        """
        path = self._containing_path(point)
        leaf = path[-1]
        if leaf.count:
            pts = leaf.points[: leaf.count]
            close = np.all(np.abs(pts - point) <= _MATCH_EPS, axis=1)
            for i in np.nonzero(close)[0]:
                if value is ... or leaf.values[i] == value:
                    leaf.remove_at(int(i))
                    self._store.write(leaf)
                    self._size -= 1
                    return
        raise KeyNotFoundError(f"point {point.tolist()} not found")

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify disjointness, containment, and point-count invariants."""
        from ..exceptions import InvariantViolationError

        total = 0
        stack: list[tuple[int, np.ndarray, np.ndarray, int]] = [
            (
                self._root_id,
                np.full(self.dims, -np.inf),
                np.full(self.dims, np.inf),
                self._height - 1,
            )
        ]
        while stack:
            page_id, low, high, level = stack.pop()
            node = self.read_node(page_id)
            if node.level != level:
                raise InvariantViolationError(
                    f"node {page_id} at level {node.level}, expected {level}"
                )
            if node.is_leaf:
                total += node.count
                pts = node.points[: node.count]
                if node.count and not (
                    np.all(pts >= low) and np.all(pts < high)
                ):
                    raise InvariantViolationError(
                        f"leaf {page_id} holds points outside its region"
                    )
                continue
            n = node.count
            if n == 0:
                raise InvariantViolationError(f"internal node {page_id} is empty")
            for i in range(n):
                if np.any(node.lows[i] < low) or np.any(node.highs[i] > high):
                    raise InvariantViolationError(
                        f"child region {i} of node {page_id} leaks outside "
                        f"its parent region"
                    )
                for j in range(i + 1, n):
                    inter_low = np.maximum(node.lows[i], node.lows[j])
                    inter_high = np.minimum(node.highs[i], node.highs[j])
                    if np.all(inter_low < inter_high):
                        raise InvariantViolationError(
                            f"children {i} and {j} of node {page_id} overlap"
                        )
                stack.append(
                    (int(node.child_ids[i]), node.lows[i].copy(),
                     node.highs[i].copy(), level - 1)
                )
        if total != self._size:
            raise InvariantViolationError(
                f"tree holds {total} points, size says {self._size}"
            )


def _choose_point_plane(points: np.ndarray) -> tuple[int, float]:
    """Split plane for an overflowing leaf: spreadiest dimension, median.

    The plane must leave at least one point strictly on each side, so
    among the coordinates of the chosen dimension we pick the value
    closest to the median that has points on both sides; dimensions are
    tried in decreasing-spread order until one admits such a plane.
    """
    spreads = points.max(axis=0) - points.min(axis=0)
    for dim in np.argsort(-spreads, kind="stable"):
        coords = np.sort(points[:, int(dim)])
        candidates = np.unique(coords[1:][coords[1:] > coords[0]])
        if candidates.size == 0:
            continue
        median = np.median(coords)
        plane = float(candidates[np.argmin(np.abs(candidates - median))])
        return int(dim), plane
    raise IndexError_(
        "cannot split a leaf whose points are all identical: the K-D-B-tree "
        "holds at most one page of duplicates of the same point"
    )


def _choose_region_plane(lows: np.ndarray, highs: np.ndarray) -> tuple[int, float]:
    """Split plane for an overflowing internal node (R+-tree style).

    Candidate planes are the child-region boundaries.  Each is scored by
    how many child regions it crosses (forced splits are expensive) and,
    as a tiebreak, how evenly it divides the children.
    """
    n, dims = lows.shape
    best: tuple[float, float, int, float] | None = None
    for dim in range(dims):
        bounds = np.unique(
            np.concatenate([lows[:, dim][np.isfinite(lows[:, dim])],
                            highs[:, dim][np.isfinite(highs[:, dim])]])
        )
        for plane in bounds:
            left = int(np.sum(highs[:, dim] <= plane))
            right = int(np.sum(lows[:, dim] >= plane))
            crossed = n - left - right
            # Each half must receive at least one *whole* region: that
            # bounds both halves at n-1 entries, so a single split always
            # resolves the overflow.
            if left == 0 or right == 0:
                continue
            balance = abs(left - right)
            key = (crossed, balance, dim, float(plane))
            if best is None or key < best:
                best = key
    if best is None:
        raise IndexError_(
            "no valid split plane for an overflowing K-D-B node: all child "
            "regions share every boundary"
        )
    return best[2], best[3]
