"""The SR-tree (Katayama & Satoh, SIGMOD 1997) — the paper's contribution.

The SR-tree keeps *both* a bounding sphere and a bounding rectangle per
node entry and defines the region as their intersection.  It inherits
the SS-tree's centroid-based construction algorithms and differs in two
region rules:

* **Radius update (Section 4.2).**  The parent sphere's radius is
  ``min(d_s, d_r)`` where ``d_s`` is the farthest reach of any child
  sphere and ``d_r`` the farthest vertex of any child rectangle — the
  rectangle side often yields a tighter sphere in high dimensions.
* **Search distance (Section 4.4).**  The MINDIST from a query point to
  a region is ``max(mindist_sphere, mindist_rect)``, a tighter lower
  bound than either shape alone.

Both rules are individually switchable (``radius_rule`` /
``mindist_rule``) so the ablation benchmarks can isolate each
contribution; the defaults are the paper's rules.
"""

from __future__ import annotations

import numpy as np

from ..geometry import farthest_point_rects
from ..storage.nodes import InternalNode, LeafNode
from .sstree import SSTree

__all__ = ["SRTree"]

Node = LeafNode | InternalNode

_RADIUS_RULES = ("min", "sphere")
_MINDIST_RULES = ("max", "sphere", "rect")


class SRTree(SSTree):
    """Dynamic SR-tree over points, with paged storage.

    Parameters beyond the common :class:`~repro.indexes.base.SpatialIndex`
    ones:

    radius_rule:
        ``"min"`` (paper, default) uses ``min(d_s, d_r)`` for the parent
        sphere radius; ``"sphere"`` falls back to the SS-tree's ``d_s``.
    mindist_rule:
        ``"max"`` (paper, default) prunes with
        ``max(sphere MINDIST, rect MINDIST)``; ``"sphere"`` / ``"rect"``
        use a single shape (ablation).
    """

    NAME = "srtree"
    HAS_RECTS = True
    HAS_SPHERES = True
    HAS_WEIGHTS = True

    # Class-level defaults so indexes reconstructed by ``open`` (which
    # bypasses ``__init__``) behave per the paper's rules.
    _radius_rule = "min"
    _mindist_rule = "max"

    def __init__(self, dims: int, *, radius_rule: str = "min",
                 mindist_rule: str = "max", **kwargs) -> None:
        if radius_rule not in _RADIUS_RULES:
            raise ValueError(f"radius_rule must be one of {_RADIUS_RULES}")
        if mindist_rule not in _MINDIST_RULES:
            raise ValueError(f"mindist_rule must be one of {_MINDIST_RULES}")
        super().__init__(dims, **kwargs)
        self._radius_rule = radius_rule
        self._mindist_rule = mindist_rule

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def _extra_meta(self) -> dict:
        return {"radius_rule": self._radius_rule,
                "mindist_rule": self._mindist_rule}

    def _restore_extra(self, meta: dict) -> None:
        self._radius_rule = meta.get("radius_rule", "min")
        self._mindist_rule = meta.get("mindist_rule", "max")

    # ------------------------------------------------------------------
    # regions: the two rules the paper adds to the SS-tree
    # ------------------------------------------------------------------

    def _radius(self, node: Node, center: np.ndarray) -> float:
        """The inherited radius tightened to ``min(d_s, d_r)`` (Section
        4.2): no point beneath the node lies past the farthest vertex of
        any child rectangle either."""
        d_sphere = super()._radius(node, center)
        if self._radius_rule != "min" or node.is_leaf:
            return d_sphere
        n = node.count
        d_rect = float(np.maximum.reduce(farthest_point_rects(
            center, node.lows[:n], node.highs[:n])))
        return min(d_sphere, d_rect)

    def _region_mindists(self, node, query, to_rects, to_spheres) -> np.ndarray:
        """``max(sphere, rect)`` (Section 4.4) is the inherited rule for
        a region of both shapes; the ablations price one shape alone."""
        n = node.count
        if self._mindist_rule == "rect":
            return to_rects(query, node.lows[:n], node.highs[:n])
        if self._mindist_rule == "sphere":
            return to_spheres(query, node.centers[:n], node.radii[:n])
        return super()._region_mindists(node, query, to_rects, to_spheres)
