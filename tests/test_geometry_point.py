"""Unit tests for repro.geometry.point."""

import numpy as np
import pytest

from repro.exceptions import DimensionalityError
from repro.geometry.point import (
    as_point,
    as_points,
    cross_distances,
    pairwise_distances,
)


class TestAsPoint:
    def test_accepts_list(self):
        p = as_point([1.0, 2.0, 3.0])
        assert p.dtype == np.float64
        assert p.shape == (3,)

    def test_accepts_int_sequence(self):
        p = as_point([1, 2])
        assert p.dtype == np.float64
        np.testing.assert_array_equal(p, [1.0, 2.0])

    def test_rejects_matrix(self):
        with pytest.raises(DimensionalityError):
            as_point([[1.0, 2.0]])

    def test_rejects_wrong_dims(self):
        with pytest.raises(DimensionalityError):
            as_point([1.0, 2.0], dims=3)

    def test_accepts_matching_dims(self):
        p = as_point([1.0, 2.0, 3.0], dims=3)
        assert p.shape == (3,)


class TestAsPoints:
    def test_promotes_single_point(self):
        pts = as_points([1.0, 2.0])
        assert pts.shape == (1, 2)

    def test_accepts_matrix(self):
        pts = as_points([[1.0, 2.0], [3.0, 4.0]])
        assert pts.shape == (2, 2)

    def test_rejects_3d(self):
        with pytest.raises(DimensionalityError):
            as_points(np.zeros((2, 2, 2)))

    def test_rejects_wrong_dims(self):
        with pytest.raises(DimensionalityError):
            as_points([[1.0, 2.0]], dims=5)


class TestDistance:
    def test_unit_axis(self):
        assert cross_distances(np.array([[0.0, 0.0]]),
                               np.array([[3.0, 4.0]]))[0, 0] == 5.0

    def test_zero(self):
        p = np.array([[1.5, -2.0]])
        assert cross_distances(p, p)[0, 0] == 0.0


class TestBatchDistances:
    def test_matches_loop(self, rng):
        queries = rng.random((4, 6))
        pts = rng.random((50, 6))
        expected = np.array([[np.linalg.norm(p - q) for p in pts] for q in queries])
        np.testing.assert_allclose(cross_distances(queries, pts), expected)

    def test_empty(self):
        assert cross_distances(np.zeros((2, 3)), np.empty((0, 3))).shape == (2, 0)
        assert cross_distances(np.zeros((1, 3)), np.empty((0, 3))).shape == (1, 0)

    @pytest.mark.parametrize("dims", [2, 16, 64])
    def test_one_row_is_its_row_of_the_block(self, rng, dims):
        # A single query is a block of one: its distances must be the
        # block's, to the bit, or a tie could rank differently.
        queries = rng.random((7, dims))
        pts = rng.random((40, dims))
        block = cross_distances(queries, pts)
        for i in range(len(queries)):
            row = cross_distances(queries[i : i + 1], pts)
            assert row.shape == (1, 40)
            assert np.array_equal(row[0], block[i])


class TestPairwiseDistances:
    def test_count(self, rng):
        pts = rng.random((10, 4))
        assert pairwise_distances(pts).shape == (45,)

    def test_values_match_direct(self, rng):
        pts = rng.random((8, 3))
        condensed = pairwise_distances(pts)
        idx = 0
        for i in range(8):
            for j in range(i + 1, 8):
                assert condensed[idx] == pytest.approx(
                    np.linalg.norm(pts[i] - pts[j]), abs=1e-9
                )
                idx += 1

    def test_degenerate_inputs(self):
        assert pairwise_distances(np.zeros((1, 3))).shape == (0,)
        assert pairwise_distances(np.zeros((0, 3))).shape == (0,)

    def test_non_negative_with_duplicates(self):
        pts = np.ones((5, 4))
        assert np.all(pairwise_distances(pts) == 0.0)
