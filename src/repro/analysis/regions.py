"""Leaf-level region measurements (paper Figures 5, 6, 12, 13).

The paper's geometric argument rests on measuring, for each index, the
average *volume* and average *diameter* of the leaf-level regions:

* R*-tree: volume and diagonal of the leaf MBRs — small volume, long
  diameter;
* SS-tree: volume and diameter of the leaf bounding spheres — short
  diameter, huge volume;
* SS-tree re-measured with bounding rectangles (Figure 6): what the
  volume *would be* had the same leaves been described by MBRs;
* SR-tree: the intersection has no closed-form volume, so the paper
  measures the volumes/diameters of both shapes as upper bounds
  (Section 5.2); we report the same quantities.

All measurements walk the actual leaves and recompute shapes from the
stored points, so they are exact for the tree as built (not subject to
radius-update drift).  The shapes are the indexes' own rules — the
R*-tree's ``_rect_of`` and the SS-tree's ``_sphere_of``, one spelling on
:class:`~repro.indexes.base.SpatialIndex` — applied to whichever tree's
leaves are being measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..geometry import volume as _volume
from ..indexes.base import SpatialIndex

__all__ = ["LeafRegionStats", "measure_leaf_regions"]


@dataclass(frozen=True)
class LeafRegionStats:
    """Averages over every leaf of one index.

    Volumes can underflow float64 in high dimensions, so the geometric
    mean (computed in the log domain) is reported alongside the
    arithmetic mean the paper plots.
    """

    leaf_count: int
    sphere_volume_mean: float
    sphere_volume_geomean: float
    sphere_diameter_mean: float
    rect_volume_mean: float
    rect_volume_geomean: float
    rect_diameter_mean: float

    def volume_mean(self, shape: str) -> float:
        """Arithmetic-mean volume for ``shape`` in {"sphere", "rect"}."""
        if shape == "sphere":
            return self.sphere_volume_mean
        if shape == "rect":
            return self.rect_volume_mean
        raise ValueError(f"unknown shape {shape!r}")

    def diameter_mean(self, shape: str) -> float:
        """Arithmetic-mean diameter for ``shape`` in {"sphere", "rect"}."""
        if shape == "sphere":
            return self.sphere_diameter_mean
        if shape == "rect":
            return self.rect_diameter_mean
        raise ValueError(f"unknown shape {shape!r}")


def measure_leaf_regions(index: SpatialIndex) -> LeafRegionStats:
    """Measure both bounding shapes of every leaf of ``index``.

    For each non-empty leaf the centroid bounding sphere (SS-tree
    definition: centroid center, radius to the farthest point) and the
    minimum bounding rectangle are computed from the leaf's points.
    """
    dims = index.dims
    sphere_volumes: list[float] = []
    sphere_log_volumes: list[float] = []
    sphere_diameters: list[float] = []
    rect_volumes: list[float] = []
    rect_log_volumes: list[float] = []
    rect_diameters: list[float] = []

    for leaf in index.iter_leaves():
        if leaf.count == 0:
            continue
        _center, radius, _weight = index._sphere_of(leaf)
        sphere_volumes.append(_volume.sphere_volume(dims, radius))
        sphere_log_volumes.append(_volume.log_sphere_volume(dims, radius))
        sphere_diameters.append(2.0 * radius)

        low, high = index._rect_of(leaf)
        rect_volumes.append(_volume.rect_volume(low, high))
        rect_log_volumes.append(_volume.log_rect_volume(low, high))
        rect_diameters.append(float(np.linalg.norm(high - low)))

    count = len(sphere_volumes)
    if count == 0:
        raise ValueError("the index has no non-empty leaves to measure")

    return LeafRegionStats(
        leaf_count=count,
        sphere_volume_mean=float(np.mean(sphere_volumes)),
        sphere_volume_geomean=_geomean(sphere_log_volumes),
        sphere_diameter_mean=float(np.mean(sphere_diameters)),
        rect_volume_mean=float(np.mean(rect_volumes)),
        rect_volume_geomean=_geomean(rect_log_volumes),
        rect_diameter_mean=float(np.mean(rect_diameters)),
    )


def _geomean(log_values: list[float]) -> float:
    """Geometric mean from natural-log values (0 if any value is 0)."""
    if any(math.isinf(v) and v < 0 for v in log_values):
        return 0.0
    return math.exp(float(np.mean(log_values)))
