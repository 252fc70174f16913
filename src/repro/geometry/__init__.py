"""The geometry kernels the index structures run.

* :mod:`~repro.geometry.point` — point coercion (the one decider of what
  a caller's point may be) and the point-to-point distance kernels,
* :mod:`~repro.geometry.rectangle` — MINDIST and farthest-vertex distance
  from a point to each of N rectangles,
* :mod:`~repro.geometry.sphere` — MINDIST from a point to each of N spheres,
* :mod:`~repro.geometry.volume` — log-domain hypervolume helpers.

The region *rules* — which shapes bound a node, and how a region of both
shapes is priced — live on :class:`~repro.indexes.base.SpatialIndex`;
these functions are what those rules compute with.
"""

from .point import as_point, as_points, cross_distances, pairwise_distances
from .rectangle import farthest_point_rects, mindist_point_rects, mindist_points_rects
from .sphere import mindist_points_spheres
from .volume import (
    log_rect_volume,
    log_sphere_volume,
    log_unit_ball_volume,
    rect_volume,
    sphere_volume,
    unit_ball_volume,
)

__all__ = [
    "as_point",
    "as_points",
    "cross_distances",
    "farthest_point_rects",
    "log_rect_volume",
    "log_sphere_volume",
    "log_unit_ball_volume",
    "mindist_point_rects",
    "mindist_points_rects",
    "mindist_points_spheres",
    "pairwise_distances",
    "rect_volume",
    "sphere_volume",
    "unit_ball_volume",
]
