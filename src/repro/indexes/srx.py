"""The SRX-tree: an SR-tree with X-tree-style supernodes.

Section 2.6 of the paper describes the X-tree's supernode mechanism —
oversized directory nodes "arranged to circumvent the overlap among
nodes" — and explicitly leaves its combination with the SR-tree open:
"These approaches are not incompatible with the SR-tree.  The
effectiveness of these methods for the SR-tree is an open question."

This class implements that combination.  When an internal node
overflows, the centroid split is evaluated first: if the two candidate
groups' bounding rectangles overlap badly (a large fraction of the
children's centroids fall inside the intersection of the group MBRs),
splitting would create two heavily overlapping directory entries that
most queries must both descend — so instead the node *grows* by one
page into a supernode, trading a guaranteed sequential extra page read
for the avoided duplicate subtree descent.  A later overflow whose
split is clean shrinks the supernode back into right-sized nodes.

``benchmarks/test_ext_srx_supernodes.py`` answers the paper's question
empirically.
"""

from __future__ import annotations

import numpy as np

from ..storage.constants import MAX_NODE_EXTENT
from ..storage.nodes import InternalNode
from .srtree import SRTree

__all__ = ["SRXTree"]


class SRXTree(SRTree):
    """SR-tree with overlap-triggered supernodes (X-tree hybrid).

    Parameters beyond :class:`~repro.indexes.srtree.SRTree`:

    max_overlap:
        Split-overlap threshold in [0, 1].  A split is rejected (and the
        node grown instead) when more than this fraction of the node's
        child centroids lies inside the intersection of the two
        candidate groups' bounding rectangles.  The X-tree paper's
        default is 0.2.
    max_extent:
        Largest supernode size in pages (growth stops there and the
        node splits regardless).
    """

    NAME = "srx"

    def __init__(self, dims: int, *, max_overlap: float = 0.2,
                 max_extent: int = 4, **kwargs) -> None:
        if not 0.0 <= max_overlap <= 1.0:
            raise ValueError(f"max_overlap must be in [0, 1], got {max_overlap}")
        if not 1 <= max_extent <= MAX_NODE_EXTENT:
            raise ValueError(
                f"max_extent must be in [1, {MAX_NODE_EXTENT}], got {max_extent}"
            )
        super().__init__(dims, **kwargs)
        self._max_overlap = max_overlap
        self._max_extent = max_extent

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def _extra_meta(self) -> dict:
        meta = super()._extra_meta()
        meta.update({"max_overlap": self._max_overlap,
                     "max_extent": self._max_extent})
        return meta

    def _restore_extra(self, meta: dict) -> None:
        super()._restore_extra(meta)
        self._max_overlap = meta.get("max_overlap", 0.2)
        self._max_extent = meta.get("max_extent", 4)

    # ------------------------------------------------------------------
    # the supernode decision
    # ------------------------------------------------------------------

    def _prefer_supernode(self, node: InternalNode, group_a: np.ndarray,
                          group_b: np.ndarray) -> bool:
        if node.extent >= self._max_extent:
            return False
        return self.split_overlap(node, group_a, group_b) > self._max_overlap

    @staticmethod
    def split_overlap(node: InternalNode, group_a: np.ndarray,
                      group_b: np.ndarray) -> float:
        """Fraction of child centroids caught in both groups' MBRs.

        A dimension-robust stand-in for the X-tree's overlap-volume
        criterion: raw intersection volumes underflow in high dimensions,
        while the share of children inside the overlap region measures
        directly how many subtrees a query crossing it must duplicate.
        """
        n = node.count
        low_a = node.lows[group_a].min(axis=0)
        high_a = node.highs[group_a].max(axis=0)
        low_b = node.lows[group_b].min(axis=0)
        high_b = node.highs[group_b].max(axis=0)
        inter_low = np.maximum(low_a, low_b)
        inter_high = np.minimum(high_a, high_b)
        if np.any(inter_low > inter_high):
            return 0.0
        centers = node.centers[:n]
        inside = np.all(centers >= inter_low, axis=1) & np.all(
            centers <= inter_high, axis=1
        )
        return float(np.mean(inside))

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def supernode_count(self) -> int:
        """Number of directory nodes currently larger than one page."""
        return sum(
            1 for n in self.iter_nodes() if not n.is_leaf and n.extent > 1
        )
