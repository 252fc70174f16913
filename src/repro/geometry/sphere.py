"""Distances from a point to hyper-spheres.

The SS-tree and SR-tree bound regions with spheres centred on the
centroid of the underlying points.  These kernels, over an ``(N, D)``
matrix of centres and ``(N,)`` radii, mirror the ones in
:mod:`repro.geometry.rectangle`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["mindist_points_spheres"]


def mindist_points_spheres(
    points: np.ndarray, centers: np.ndarray, radii: np.ndarray
) -> np.ndarray:
    """MINDIST from each of Q points to each of N spheres, vectorised.

    The query-block kernel behind :mod:`repro.exec`: ``points`` is a
    ``(Q, D)`` block.  Returns a ``(Q, N)`` distance matrix: row ``q``
    is ``max(||centers[n] - points[q]|| - radii[n], 0)`` for each ``n``.
    """
    diff = centers[None, :, :] - points[:, None, :]
    gaps = np.sqrt(np.einsum("qnd,qnd->qn", diff, diff))
    return np.maximum(gaps - radii[None, :], 0.0)
