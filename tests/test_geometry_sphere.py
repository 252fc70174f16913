"""Unit tests for repro.geometry.sphere: the sphere kernels against
test-local oracles that do not share their formulas."""

import math

import numpy as np
import pytest

from repro.geometry.sphere import mindist_points_spheres
from repro.geometry.volume import log_sphere_volume, sphere_volume

ORIGIN = np.zeros((1, 2))


def mindist_point_spheres(point, centers, radii) -> np.ndarray:
    """The one-point kernel the query block's rows must equal: the
    library prices one point as a block of one."""
    diff = centers - point
    gaps = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    return np.maximum(gaps - radii, 0.0)


def mindist(q, center, radius) -> float:
    return float(mindist_points_spheres(np.asarray(q, dtype=float)[None],
                                        np.atleast_2d(center),
                                        np.array([radius], dtype=float))[0, 0])


def centroid_sphere(pts):
    """The SS-tree's leaf sphere, spelled out here: centroid centre,
    radius to the farthest point."""
    center = pts.mean(axis=0)
    return center, max(math.dist(p, center) for p in pts)


class TestConstruction:
    def test_from_point(self, rng):
        # A zero-radius sphere: MINDIST is the plain distance to its centre.
        c, q = rng.random(3), rng.random(3)
        assert mindist(q, c, 0.0) == pytest.approx(np.linalg.norm(q - c))

    def test_bounding_centroid_covers_all_points(self, rng):
        pts = rng.random((50, 4))
        center, radius = centroid_sphere(pts)
        assert all(mindist(p, center, radius) <= 1e-12 for p in pts)


class TestProperties:
    def test_volume_2d(self):
        assert sphere_volume(2, 2.0) == pytest.approx(math.pi * 4.0)

    def test_volume_3d(self):
        assert sphere_volume(3, 1.0) == pytest.approx(4.0 / 3.0 * math.pi)

    def test_log_volume_degenerate(self):
        assert log_sphere_volume(1, 0.0) == -math.inf


class TestRelations:
    def test_contains_point(self):
        assert mindist([0.6, 0.6], ORIGIN, 1.0) == 0.0
        assert mindist([0.9, 0.9], ORIGIN, 1.0) > 0.0

    def test_contains_sphere(self, rng):
        # A sphere inside another is never nearer to a query.
        for q in rng.random((50, 2)) * 6 - 3:
            assert mindist(q, [0.5, 0.0], 1.0) >= mindist(q, ORIGIN, 2.0)

    def test_intersects(self):
        # Two spheres meet iff one centre is within the other's radius of
        # the other sphere — the test the window query makes of a box.
        assert mindist([1.5], [0.0], 1.0) <= 1.0
        assert mindist([3.0], [0.0], 1.0) > 1.0

    def test_intersects_touching(self):
        assert mindist([2.0], [0.0], 1.0) == 1.0


class TestDistances:
    def test_mindist_inside_zero(self):
        assert mindist([0.3, 0.3], ORIGIN, 1.0) == 0.0

    def test_mindist_outside(self):
        assert mindist([3.0, 0.0], ORIGIN, 1.0) == pytest.approx(2.0)

    def test_mindist_lower_bounds_member_points(self, rng):
        pts = rng.random((100, 3))
        center, radius = centroid_sphere(pts)
        q = rng.random(3) * 4.0
        dists = np.linalg.norm(pts - q, axis=1)
        assert np.all(dists >= mindist(q, center, radius) - 1e-12)


class TestBatchKernels:
    def test_mindist_batch_matches_scalar(self, rng):
        # Per sphere: max(0, |q - c| - r).
        centers = rng.random((25, 6))
        radii = rng.random(25) * 0.5
        for q in rng.random((10, 6)) * 2 - 0.5:
            expected = [max(0.0, math.dist(q, c) - r) for c, r in zip(centers, radii)]
            np.testing.assert_allclose(
                mindist_points_spheres(q[None], centers, radii)[0],
                expected, rtol=1e-12, atol=1e-15)

    def test_query_block_rows_equal_point_kernel(self, rng):
        centers = rng.random((25, 6))
        radii = rng.random(25) * 0.5
        queries = rng.random((12, 6)) * 2 - 0.5
        block = mindist_points_spheres(queries, centers, radii)
        for q, row in zip(queries, block):
            assert np.array_equal(row, mindist_point_spheres(q, centers, radii))
