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
over plain bounding rectangles.  ``load`` is ``build``, of an empty tree
only (a reopened one too); ``insert``/``delete`` raise: rebuild the tree
to change its contents.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import InvariantViolationError
from ..storage.nodes import InternalNode, LeafNode
from .base import SpatialIndex
from .bulk import vam_groups

__all__ = ["VAMSplitRTree"]


class VAMSplitRTree(SpatialIndex):
    """Static, bulk-loaded R-tree over points, with paged storage."""

    NAME = "vamsplit"
    HAS_RECTS = True
    HAS_SPHERES = False
    HAS_WEIGHTS = False

    def _load(self, points: np.ndarray, values) -> None:
        """Construct the tree from the complete data set in one pass,
        under a WAL as one transaction."""
        if self._size:
            raise RuntimeError("a VAMSplit R-tree is static: build it only once")
        n = points.shape[0]
        if n:
            if values is None:
                values = list(range(n))
            self._durably(lambda: self._build(points, values))

    def _build(self, points: np.ndarray, values) -> None:
        # The empty leaf created by the base constructor becomes garbage
        # (at COMMIT under a WAL: an abort keeps the empty tree).
        self._store.free(self._root_id)
        root = self._build_subtree(points, values, np.arange(points.shape[0]))
        self._root_id = root.page_id
        self._height = root.level + 1
        self._size = points.shape[0]

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

    def _build_subtree(self, points: np.ndarray, values: list,
                       indices: np.ndarray) -> LeafNode | InternalNode:
        """Build, write and return the subtree holding ``indices``.

        Above the leaves the rows go to :func:`~repro.indexes.bulk.vam_groups`
        with the capacity of one child subtree as the group size: every
        child but possibly the last is completely full — the
        minimal-block-count guarantee.
        """
        n = indices.shape[0]
        if n <= self.leaf_capacity:
            leaf = self._store.new_leaf()
            for i in indices:
                leaf.add(points[i], values[i])
            self._store.write(leaf)
            return leaf

        height = 2
        while self._subtree_capacity(height) < n:
            height += 1
        node = self._store.new_internal(height - 1)
        for group in vam_groups(points[indices],
                                self._subtree_capacity(height - 1)):
            child = self._build_subtree(points, values, indices[group])
            self._summarize(child, node)
        self._store.write(node)
        return node

    # ------------------------------------------------------------------
    # SpatialIndex interface
    # ------------------------------------------------------------------

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
        total = 0
        stack = [(self._root_id, None, -1)]
        while stack:
            page_id, parent, slot = stack.pop()
            node = self.read_node(page_id)
            if parent is not None:
                self._check_parent_entry(parent, slot, node)
            if node.is_leaf:
                total += node.count
            else:
                stack.extend((int(node.child_ids[i]), node, i)
                             for i in range(node.count))
        if total != self._size:
            raise InvariantViolationError(
                f"tree holds {total} points, size says {self._size}"
            )
