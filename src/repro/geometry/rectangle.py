"""Distances from a point to axis-aligned rectangles (minimum bounding
rectangles).

Vectorised kernels over ``(N, D)`` matrices of lower and upper bounds, so
the distance from a query point to every child region of a node is one
numpy pass: MINDIST (Roussopoulos et al.; the paper's Section 4.4) and
the farthest-vertex distance (the ``MAXDIST`` of Section 4.2).
"""

from __future__ import annotations

import numpy as np

__all__ = ["mindist_point_rects", "mindist_points_rects", "farthest_point_rects"]


def mindist_point_rects(point: np.ndarray, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
    """MINDIST from ``point`` to each of N rectangles, vectorised.

    ``lows`` and ``highs`` are ``(N, D)`` matrices.  Returns an ``(N,)``
    array of Euclidean distances (0 where the point is inside).  The
    roles broadcast: N points ``(N, D)`` against one box ``(D,)`` give
    each point's MINDIST to that box.
    """
    delta = np.maximum(np.maximum(lows - point, point - highs), 0.0)
    return np.sqrt(np.einsum("ij,ij->i", delta, delta))


def mindist_points_rects(
    points: np.ndarray, lows: np.ndarray, highs: np.ndarray
) -> np.ndarray:
    """MINDIST from each of Q points to each of N rectangles, vectorised.

    The query-block kernel behind :mod:`repro.exec`: ``points`` is a
    ``(Q, D)`` block, ``lows``/``highs`` are ``(N, D)`` bound matrices.
    Returns a ``(Q, N)`` distance matrix (0 where a point lies inside a
    rectangle).  Row ``q`` equals
    ``mindist_point_rects(points[q], lows, highs)``.
    """
    delta = np.maximum(
        np.maximum(lows[None, :, :] - points[:, None, :],
                   points[:, None, :] - highs[None, :, :]),
        0.0,
    )
    return np.sqrt(np.einsum("qnd,qnd->qn", delta, delta))


def farthest_point_rects(point: np.ndarray, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
    """Farthest-vertex distance from ``point`` to each of N rectangles.

    Per axis the farther side is ``max(|low - p|, |high - p|)``, which
    for ``low <= high`` is ``max(p - low, high - p)`` to the bit:
    ``fl(a - b) == -fl(b - a)``, and where ``p`` lies outside
    ``[low, high]`` the negative term never wins.
    """
    delta = np.maximum(point - lows, highs - point)
    return np.sqrt(np.einsum("ij,ij->i", delta, delta))
