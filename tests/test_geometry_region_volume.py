"""Unit tests for repro.geometry.volume, and for the SR region as the
SR-tree stores and prices it."""

import math

import numpy as np
import pytest

from repro.geometry.volume import (
    log_rect_volume,
    log_sphere_volume,
    log_unit_ball_volume,
    rect_volume,
    sphere_volume,
    unit_ball_volume,
)
from repro.indexes import SRTree

from tests.helpers import internal_entries


class TestUnitBallVolume:
    def test_known_values(self):
        assert unit_ball_volume(1) == pytest.approx(2.0)
        assert unit_ball_volume(2) == pytest.approx(math.pi)
        assert unit_ball_volume(3) == pytest.approx(4.0 / 3.0 * math.pi)

    def test_zero_dims_convention(self):
        assert unit_ball_volume(0) == 1.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            log_unit_ball_volume(-1)

    def test_shrinks_in_high_dimensions(self):
        # The famous counterintuitive fact the paper exploits: the unit
        # ball's volume peaks at D=5 and then vanishes as D grows.
        assert unit_ball_volume(5) > unit_ball_volume(2)
        assert unit_ball_volume(16) < unit_ball_volume(8) < unit_ball_volume(5)
        assert unit_ball_volume(64) < 1e-19


class TestSphereVolume:
    def test_scaling_law(self):
        # V(D, r) = V(D, 1) * r^D
        for dims in (2, 7, 16):
            assert sphere_volume(dims, 2.0) == pytest.approx(
                unit_ball_volume(dims) * 2.0**dims
            )

    def test_degenerate(self):
        assert sphere_volume(5, 0.0) == 0.0
        assert log_sphere_volume(5, 0.0) == -math.inf

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            sphere_volume(3, -1.0)

    def test_log_consistency(self):
        assert math.exp(log_sphere_volume(10, 0.7)) == pytest.approx(
            sphere_volume(10, 0.7)
        )


class TestRectVolume:
    def test_simple(self):
        assert rect_volume([0, 0], [2, 3]) == pytest.approx(6.0)

    def test_degenerate(self):
        assert rect_volume([0, 0], [2, 0]) == 0.0
        assert log_rect_volume([0, 0], [2, 0]) == -math.inf

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            rect_volume([1.0], [0.0])

    def test_log_extreme_dims_stable(self):
        # 64 dimensions of extent 1e-4 underflow float64 (1e-256) but the
        # log-domain value is exact.
        low = np.zeros(64)
        high = np.full(64, 1e-4)
        assert log_rect_volume(low, high) == pytest.approx(64 * math.log(1e-4))


class TestSRRegion:
    """The SR region as the SR-tree stores it: the intersection of an
    entry's sphere and rectangle (Section 3.4), priced by
    ``max(d_sphere, d_rect)`` (Section 4.4)."""

    @pytest.fixture(scope="class")
    def tree(self):
        tree = SRTree(6, page_size=1024, leaf_data_size=16)
        tree.load(np.random.default_rng(17).random((500, 6)))
        assert tree.height >= 3
        return tree

    def test_mindist_is_max_of_shapes(self, tree, rng):
        # The two single-shape bounds, computed here without the kernels:
        # distance to the query clipped onto the box, and |q - c| - r.
        for node, slot, _, _ in internal_entries(tree):
            q = rng.random(6) * 2 - 0.5
            rect = np.linalg.norm(q - np.clip(q, node.lows[slot], node.highs[slot]))
            sphere = max(0.0, np.linalg.norm(q - node.centers[slot]) - node.radii[slot])
            assert tree.child_mindists(node, q)[slot] == pytest.approx(
                max(rect, sphere), abs=1e-12)

    def test_mindist_tighter_than_each_shape(self, tree, rng, monkeypatch):
        # The paper's rule prices every entry at least as high as either
        # single-shape ablation does, and strictly higher somewhere.
        queries = rng.random((10, 6)) * 2 - 0.5
        nodes = [node for node in tree.iter_nodes() if not node.is_leaf]
        priced = {}
        for rule in ("max", "rect", "sphere"):
            monkeypatch.setattr(tree, "_mindist_rule", rule)
            priced[rule] = np.concatenate([tree.child_mindists(node, q)
                                           for node in nodes for q in queries])
        for single in ("rect", "sphere"):
            assert np.all(priced["max"] >= priced[single])
            assert np.any(priced["max"] > priced[single])

    def test_mindist_valid_lower_bound(self, tree, rng):
        queries = rng.random((20, 6)) * 3 - 1
        for node, slot, _, below in internal_entries(tree):
            for q in queries:
                d = tree.child_mindists(node, q)[slot]
                assert np.linalg.norm(below - q, axis=1).min() >= d - 1e-12

    def test_maxdist_valid_upper_bound(self, tree):
        # The sphere-and-rectangle reach bounds every point beneath, and
        # the stored min(d_s, d_r) radius covers it.
        for node, slot, child, below in internal_entries(tree):
            center = node.centers[slot]
            reach = tree._reach(center, child, rects=True)
            assert np.linalg.norm(below - center, axis=1).max() <= reach + 1e-12
            assert reach <= node.radii[slot] + 1e-12

    def test_contains_point_requires_both(self, tree):
        # Every point beneath an entry lies in its box and in its sphere,
        # and neither shape alone is the region: some box vertex lies
        # outside its sphere, and some sphere pokes out of its box.
        vertex_outside = sphere_outside = False
        for node, slot, _, below in internal_entries(tree):
            low, high = node.lows[slot], node.highs[slot]
            center, radius = node.centers[slot], node.radii[slot]
            assert np.all((below >= low) & (below <= high))
            assert np.all(np.linalg.norm(below - center, axis=1) <= radius + 1e-12)
            vertex_outside |= bool(np.linalg.norm(
                np.maximum(np.abs(low - center), np.abs(high - center))) > radius)
            sphere_outside |= bool(np.any(center - radius < low)
                                   or np.any(center + radius > high))
        assert vertex_outside and sphere_outside

