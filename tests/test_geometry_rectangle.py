"""Unit tests for repro.geometry.rectangle: the box kernels against
test-local oracles that do not share their formulas."""

import itertools
import math

import numpy as np
import pytest

from repro.geometry.rectangle import (
    farthest_point_rects,
    mindist_point_rects,
    mindist_points_rects,
)
from repro.geometry.volume import log_rect_volume, rect_volume

ZERO = np.zeros((1, 2))
ONE = np.ones((1, 2))


def mindist(q, low, high) -> float:
    return float(mindist_point_rects(np.asarray(q, dtype=float),
                                     np.atleast_2d(low), np.atleast_2d(high))[0])


def farthest(q, low, high) -> float:
    return float(farthest_point_rects(np.asarray(q, dtype=float),
                                      np.atleast_2d(low), np.atleast_2d(high))[0])


def corners(low, high) -> np.ndarray:
    """All 2^D vertices of the box ``[low, high]``."""
    return np.array([np.where(bits, high, low) for bits in
                     itertools.product((False, True), repeat=len(low))])


def random_boxes(rng, n, dims):
    lows = rng.random((n, dims))
    return lows, lows + rng.random((n, dims))


class TestConstruction:
    def test_from_point_is_degenerate(self, rng):
        # A box of one point: both kernels are the plain distance to it.
        p, q = rng.random(4), rng.random(4)
        assert mindist(q, p, p) == pytest.approx(np.linalg.norm(q - p))
        assert farthest(q, p, p) == pytest.approx(np.linalg.norm(q - p))

    def test_bounding(self, rng):
        # The box of a point set is at MINDIST 0 from each member, and its
        # farthest vertex from a member is past every other member.
        pts = rng.random((20, 3))
        low, high = pts.min(axis=0), pts.max(axis=0)
        for p in pts:
            assert mindist(p, low, high) == 0.0
            assert np.all(np.linalg.norm(pts - p, axis=1)
                          <= farthest(p, low, high) + 1e-12)


class TestProperties:
    def test_unit_cube_diagonal_grows_sqrt_d(self):
        # The paper's Section 3.2 example: the diagonal of a D-dimensional
        # unit cube is sqrt(D) even though every edge has length one.
        for dims in (2, 16, 64):
            d = farthest_point_rects(np.zeros(dims), np.zeros((1, dims)),
                                     np.ones((1, dims)))
            assert d[0] == pytest.approx(math.sqrt(dims))

    def test_log_volume_degenerate(self):
        assert rect_volume([0.0, 0.0], [1.0, 0.0]) == 0.0
        assert log_rect_volume([0.0, 0.0], [1.0, 0.0]) == -math.inf


class TestRelations:
    def test_contains_point_boundary(self):
        assert mindist([0.0, 1.0], ZERO, ONE) == 0.0
        assert mindist([1.0001, 0.5], ZERO, ONE) > 0.0

    def test_contains_rect(self, rng):
        # A box inside another is no nearer and reaches no farther.
        inner_low, inner_high = np.array([0.2, 0.2]), np.array([0.8, 0.8])
        for q in rng.random((50, 2)) * 4 - 1.5:
            assert mindist(q, inner_low, inner_high) >= mindist(q, ZERO, ONE)
            assert farthest(q, inner_low, inner_high) <= farthest(q, ZERO, ONE)

    def test_union(self, rng):
        a_low, a_high = np.array([0.0, 0.0]), np.array([1.0, 1.0])
        b_low, b_high = np.array([2.0, -1.0]), np.array([3.0, 0.5])
        low, high = np.minimum(a_low, b_low), np.maximum(a_high, b_high)
        for q in rng.random((50, 2)) * 6 - 2:
            assert mindist(q, low, high) <= min(mindist(q, a_low, a_high),
                                                mindist(q, b_low, b_high))
            assert farthest(q, low, high) >= max(farthest(q, a_low, a_high),
                                                 farthest(q, b_low, b_high))

    def test_extended(self, rng):
        p = np.array([2.0, 0.5])
        low, high = np.minimum(ZERO[0], p), np.maximum(ONE[0], p)
        assert mindist(p, low, high) == 0.0
        for q in rng.random((20, 2)) * 4 - 1:
            assert farthest(q, low, high) >= np.linalg.norm(q - p)


class TestDistances:
    def test_mindist_inside_is_zero(self):
        assert mindist([0.5, 0.5], ZERO, ONE) == 0.0

    def test_mindist_outside_corner(self):
        assert mindist([2.0, 2.0], ZERO, ONE) == pytest.approx(math.sqrt(2.0))

    def test_mindist_outside_face(self):
        assert mindist([0.5, 3.0], ZERO, ONE) == pytest.approx(2.0)

    def test_farthest_from_center(self):
        # From the center, the farthest vertex is half the diagonal away.
        assert farthest([0.5, 0.5], ZERO, ONE) == pytest.approx(math.sqrt(2) / 2)

    def test_farthest_bounds_all_points(self, rng):
        q = rng.random(2) * 3.0
        pts = rng.random((200, 2))  # all inside the unit square
        dists = np.linalg.norm(pts - q, axis=1)
        assert np.all(dists <= farthest(q, ZERO, ONE) + 1e-12)

    def test_mindist_lower_bounds_all_points(self, rng):
        q = rng.random(2) * 3.0
        pts = rng.random((200, 2))
        dists = np.linalg.norm(pts - q, axis=1)
        assert np.all(dists >= mindist(q, ZERO, ONE) - 1e-12)


class TestBatchKernels:
    def test_mindist_batch_matches_scalar(self, rng):
        # Per box: the distance to the nearest point of the box, which is
        # the query clipped onto it.
        for dims in (1, 2, 5, 16):
            lows, highs = random_boxes(rng, 30, dims)
            for q in rng.random((10, dims)) * 2 - 0.5:
                expected = [np.linalg.norm(q - np.clip(q, lo, hi))
                            for lo, hi in zip(lows, highs)]
                np.testing.assert_allclose(mindist_point_rects(q, lows, highs),
                                           expected, rtol=1e-12, atol=1e-15)

    def test_farthest_batch_matches_scalar(self, rng):
        # Per box: the largest distance to any of its 2^D vertices.
        for dims in (1, 2, 3, 4, 5):
            lows, highs = random_boxes(rng, 30, dims)
            for q in rng.random((10, dims)) * 2 - 0.5:
                expected = [np.linalg.norm(corners(lo, hi) - q, axis=1).max()
                            for lo, hi in zip(lows, highs)]
                np.testing.assert_allclose(farthest_point_rects(q, lows, highs),
                                           expected, rtol=1e-12)

    def test_many_points_against_one_box(self, rng):
        # The window query prices sphere centres against its box this way.
        pts = rng.random((40, 3)) * 2 - 0.5
        low, high = np.array([0.2, 0.0, 0.4]), np.array([0.6, 1.0, 0.5])
        expected = [np.linalg.norm(p - np.clip(p, low, high)) for p in pts]
        np.testing.assert_allclose(mindist_point_rects(pts, low, high),
                                   expected, rtol=1e-12, atol=1e-15)

    def test_query_block_rows_equal_point_kernel(self, rng):
        lows, highs = random_boxes(rng, 30, 5)
        queries = rng.random((12, 5)) * 2 - 0.5
        block = mindist_points_rects(queries, lows, highs)
        for q, row in zip(queries, block):
            assert np.array_equal(row, mindist_point_rects(q, lows, highs))
