"""The VAMSplit R-tree (White & Jain, SPIE 1996).

A *static* R-tree built top-down from the full data set: points are
recursively partitioned by planes orthogonal to the dimension with the
highest variance, with the split position snapped to a multiple of the
capacity of the subtree being carved off — the VAM (variance,
approximate median) split — which guarantees the minimum number of disk
blocks.  The paper uses it as the optimized upper baseline: it "takes
advantage of full knowledge of the data set while the others are
designed to be fully dynamic" (Section 3.1).

Queries use the same branch-and-bound machinery as the dynamic trees,
over plain bounding rectangles.  ``load`` is ``build`` (once);
``insert``/``delete`` raise: rebuild the tree to change its contents.
"""

from __future__ import annotations

import numpy as np

from .base import SpatialIndex

__all__ = ["VAMSplitRTree"]


class VAMSplitRTree(SpatialIndex):
    """Static, bulk-loaded R-tree over points, with paged storage."""

    NAME = "vamsplit"
    HAS_RECTS = True
    HAS_SPHERES = False
    HAS_WEIGHTS = False

    def __init__(self, dims: int, **kwargs) -> None:
        super().__init__(dims, **kwargs)
        self._built = False

    def _load(self, points: np.ndarray, values) -> None:
        """Construct the tree from the complete data set in one pass."""
        if self._built:
            raise RuntimeError("a VAMSplit R-tree is static: build it only once")
        n = points.shape[0]
        if n == 0:
            self._built = True
            return
        if values is None:
            values = list(range(n))
        else:
            values = list(values)
            if len(values) != n:
                raise ValueError("points and values lengths differ")

        # The empty leaf created by the base constructor becomes garbage.
        self._store.free(self._root_id)

        indices = np.arange(n)
        root_id, _, _, height = self._build_subtree(points, values, indices)
        self._root_id = root_id
        self._height = height
        self._size = n
        self._built = True

    #: The static tree's "insert many" is "build once": the facade and
    #: ``build_index`` fill every family through ``load``, which checks
    #: the points and hands them to :meth:`_load`.
    build = SpatialIndex.load

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _subtree_capacity(self, height: int) -> int:
        """Maximum points under a subtree of the given height."""
        return self.leaf_capacity * self.node_capacity ** (height - 1)

    def _build_subtree(
        self, points: np.ndarray, values: list, indices: np.ndarray
    ) -> tuple[int, np.ndarray, np.ndarray, int]:
        """Build the subtree for ``indices``; returns (page, low, high, height)."""
        n = indices.shape[0]
        if n <= self.leaf_capacity:
            leaf = self._store.new_leaf()
            for i in indices:
                leaf.add(points[i], values[i])
            self._store.write(leaf)
            pts = points[indices]
            return leaf.page_id, pts.min(axis=0), pts.max(axis=0), 1

        height = 2
        while self._subtree_capacity(height) < n:
            height += 1
        child_capacity = self._subtree_capacity(height - 1)

        groups = self._vam_partition(points, indices, child_capacity)
        node = self._store.new_internal(height - 1)
        lows = []
        highs = []
        for group in groups:
            child_id, low, high, _ = self._build_subtree(points, values, group)
            node.add(child_id, low=low, high=high)
            lows.append(low)
            highs.append(high)
        self._store.write(node)
        low = np.min(lows, axis=0)
        high = np.max(highs, axis=0)
        return node.page_id, low, high, height

    def _vam_partition(
        self, points: np.ndarray, indices: np.ndarray, child_capacity: int
    ) -> list[np.ndarray]:
        """Recursive VAM splits until every group fits one child subtree.

        Each binary split sorts along the highest-variance dimension and
        cuts at the multiple of ``child_capacity`` closest to the median,
        so every group except possibly the last is completely full —
        the minimal-block-count guarantee.
        """
        n = indices.shape[0]
        if n <= child_capacity:
            return [indices]
        coords = points[indices]
        dim = int(np.argmax(np.var(coords, axis=0)))
        order = np.argsort(coords[:, dim], kind="stable")
        ordered = indices[order]

        blocks_left = max(1, round(n / 2 / child_capacity))
        split = blocks_left * child_capacity
        if split >= n:
            split = (n - 1) // child_capacity * child_capacity
            split = max(split, child_capacity)
        left = ordered[:split]
        right = ordered[split:]
        return self._vam_partition(points, left, child_capacity) + self._vam_partition(
            points, right, child_capacity
        )

    # ------------------------------------------------------------------
    # SpatialIndex interface
    # ------------------------------------------------------------------

    def _restore_extra(self, meta: dict) -> None:
        # A reopened tree holds its data set already.
        self._built = True

    def _insert_point(self, point, value: object = None) -> None:
        raise NotImplementedError(
            "the VAMSplit R-tree is a static index: use build() (or "
            "insert_many(), once) with the complete data set"
        )

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify bounding containment and the stored point count."""
        from ..exceptions import InvariantViolationError

        total = 0
        stack = [(self._root_id, None, None)]
        while stack:
            page_id, low, high = stack.pop()
            node = self.read_node(page_id)
            if node.is_leaf:
                total += node.count
                if low is not None and node.count:
                    pts = node.points[: node.count]
                    if not (np.all(pts >= low - 1e-9) and np.all(pts <= high + 1e-9)):
                        raise InvariantViolationError(
                            f"leaf {page_id} holds points outside its MBR"
                        )
                continue
            for i in range(node.count):
                if low is not None and (
                    np.any(node.lows[i] < low - 1e-9)
                    or np.any(node.highs[i] > high + 1e-9)
                ):
                    raise InvariantViolationError(
                        f"child {i} of node {page_id} leaks outside its MBR"
                    )
                stack.append(
                    (int(node.child_ids[i]), node.lows[i].copy(), node.highs[i].copy())
                )
        if total != self._size:
            raise InvariantViolationError(
                f"tree holds {total} points, size says {self._size}"
            )
