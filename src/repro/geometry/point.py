"""Point utilities shared by every index structure.

Points are plain ``numpy.ndarray`` objects of dtype ``float64``.  The helpers
here normalise user input (lists, tuples, arrays of any float dtype) into that
canonical form and provide the point-to-point distance kernels: the batched
engine's leaf scan and the Figure-17 distance-concentration analysis.

The library uses the Euclidean (L2) metric throughout, matching the paper;
a client that wants another measure (``examples/image_retrieval.py``
re-ranks by histogram intersection) computes it on the returned points.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import DimensionalityError

__all__ = ["as_point", "as_points", "cross_distances", "pairwise_distances"]


def as_point(value, dims: int | None = None) -> np.ndarray:
    """Coerce ``value`` into a 1-D float64 vector.

    Parameters
    ----------
    value:
        Anything ``numpy.asarray`` understands (list, tuple, ndarray).
    dims:
        When given, the expected dimensionality; a mismatch raises
        :class:`~repro.exceptions.DimensionalityError`.

    Returns
    -------
    numpy.ndarray
        A contiguous float64 copy-or-view of shape ``(D,)``.

    This function and :func:`as_points` are the only places that decide
    what a caller-supplied point may be: every handle kind and every
    fill path coerces through them, so a wrong shape or a non-finite
    coordinate (``ValueError``: a NaN inside a tree breaks its bounding
    regions, and no distance to one is defined) is refused with the
    same class and message wherever it enters.
    """
    point = np.ascontiguousarray(value, dtype=np.float64)
    if point.ndim != 1:
        raise DimensionalityError(
            f"expected a 1-D point, got array of shape {point.shape}"
        )
    if dims is not None and point.shape[0] != dims:
        raise DimensionalityError(
            f"expected a {dims}-dimensional point, got {point.shape[0]} dimensions"
        )
    return _finite(point)


def as_points(values, dims: int | None = None) -> np.ndarray:
    """Coerce ``values`` into an ``(N, D)`` float64 matrix of points.

    A single point is promoted to a one-row matrix.  ``dims`` and the
    coordinates are validated like in :func:`as_point`.
    """
    points = np.ascontiguousarray(values, dtype=np.float64)
    if points.ndim == 1:
        points = points.reshape(1, -1)
    if points.ndim != 2:
        raise DimensionalityError(
            f"expected an (N, D) array of points, got shape {points.shape}"
        )
    if dims is not None and points.shape[1] != dims:
        raise DimensionalityError(
            f"expected {dims}-dimensional points, got {points.shape[1]} dimensions"
        )
    return _finite(points)


def _finite(array: np.ndarray) -> np.ndarray:
    """``array`` itself, unless a coordinate is NaN or infinite.

    One reduction per call at the boundary; nothing below it re-checks.
    """
    if not np.isfinite(array).all():
        raise ValueError("point coordinates must be finite, got NaN or infinity")
    return array


def cross_distances(queries: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix between a query block and a point block.

    ``queries`` is ``(Q, D)``, ``points`` is ``(N, D)``; the result is
    ``(Q, N)`` with ``result[q, n] = ||queries[q] - points[n]||``.  This
    is the leaf-scan kernel of both traversals, the depth-first search
    (:mod:`repro.exec.batch`) and the best-first one
    (:mod:`repro.search.incremental`): one numpy pass amortizes a whole
    query block over a single decoded leaf, and a single query is a
    block of one whose row is bit-equal to its row in any block.
    """
    if queries.shape[0] == 1:
        # A lone query (every single query, every best-first leaf): the
        # same sums in the same order, in a cheaper 2-D pass.
        diff = points - queries
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))[None]
    diff = queries[:, None, :] - points
    return np.sqrt(np.einsum("qnd,qnd->qn", diff, diff))


def pairwise_distances(points: np.ndarray) -> np.ndarray:
    """Condensed upper-triangle pairwise Euclidean distances.

    Returns a 1-D array of length ``N * (N - 1) / 2`` holding the distance
    of every unordered pair exactly once, in row-major upper-triangle
    order.  Used by the Figure-17 distance-concentration analysis.
    """
    points = as_points(points)
    n = points.shape[0]
    if n < 2:
        return np.empty(0, dtype=np.float64)
    sq_norms = np.einsum("ij,ij->i", points, points)
    gram = points @ points.T
    sq = sq_norms[:, None] + sq_norms[None, :] - 2.0 * gram
    iu = np.triu_indices(n, k=1)
    return np.sqrt(np.maximum(sq[iu], 0.0))
