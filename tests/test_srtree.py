"""Unit tests for SR-tree specifics: the Section 4.2 / 4.4 region rules."""

import numpy as np
import pytest

from repro.geometry.rectangle import farthest_point_rects, mindist_point_rects
from repro.geometry.sphere import mindist_point_spheres
from repro.indexes.srtree import SRTree

from tests.helpers import brute_force_knn, entry_of


@pytest.fixture
def loaded(rng):
    pts = rng.random((400, 6))
    tree = SRTree(6)
    tree.load(pts)
    return tree, pts


class TestRadiusRule:
    def test_radius_is_min_of_sphere_and_rect_reach(self, loaded):
        tree, _ = loaded
        root = tree.read_node(tree.root_id)
        assert not root.is_leaf
        n = root.count
        fields = entry_of(tree, root)
        center = fields["center"]
        gaps = np.linalg.norm(root.centers[:n] - center, axis=1)
        d_sphere = float(np.max(gaps + root.radii[:n]))
        d_rect = float(np.max(farthest_point_rects(center, root.lows[:n],
                                                   root.highs[:n])))
        assert fields["radius"] == pytest.approx(min(d_sphere, d_rect))

    def test_sr_radius_never_exceeds_ss_rule(self, rng):
        # The paper's point: min(d_s, d_r) <= d_s, so SR spheres are
        # never larger than what the SS rule would produce on the same
        # node contents.
        pts = rng.random((300, 8))
        paper = SRTree(8, radius_rule="min")
        ss_like = SRTree(8, radius_rule="sphere")
        paper.load(pts)
        ss_like.load(pts)
        # Identical construction decisions (the radius rule does not
        # influence centroid routing), so nodes pair up one-to-one.
        for node_a, node_b in zip(paper.iter_nodes(), ss_like.iter_nodes(),
                                  strict=True):
            if node_a.is_leaf:
                continue
            assert np.all(node_a.radii[: node_a.count]
                          <= node_b.radii[: node_b.count] + 1e-9)

    def test_invalid_rules_rejected(self):
        with pytest.raises(ValueError):
            SRTree(4, radius_rule="bogus")
        with pytest.raises(ValueError):
            SRTree(4, mindist_rule="bogus")


class TestMindistRule:
    def test_combined_mindist_is_max(self, loaded, rng):
        tree, _ = loaded
        root = tree.read_node(tree.root_id)
        q = rng.random(6)
        n = root.count
        combined = tree.child_mindists(root, q)
        spheres = mindist_point_spheres(q, root.centers[:n], root.radii[:n])
        rects = mindist_point_rects(q, root.lows[:n], root.highs[:n])
        np.testing.assert_allclose(combined, np.maximum(spheres, rects))

    @pytest.mark.parametrize("rule", ["max", "sphere", "rect"])
    def test_all_mindist_rules_remain_exact(self, rule, rng):
        # Weaker bounds only reduce pruning, never correctness.
        pts = rng.random((250, 5))
        tree = SRTree(5, mindist_rule=rule)
        tree.load(pts)
        q = rng.random(5)
        assert [n.value for n in tree.nearest(q, 9)] == brute_force_knn(pts, q, 9)

    def test_combined_rule_prunes_at_least_as_well(self, rng):
        # Same tree shape, different pruning: the paper's max() rule
        # cannot read more pages than either single-shape rule.
        pts = rng.random((600, 10))
        queries = rng.random((15, 10))
        reads = {}
        for rule in ("max", "sphere", "rect"):
            tree = SRTree(10, mindist_rule=rule)
            tree.load(pts)
            total = 0
            for q in queries:
                tree.store.drop_cache()
                before = tree.stats.snapshot()
                tree.nearest(q, 11)
                total += tree.stats.since(before).page_reads
            reads[rule] = total
        assert reads["max"] <= reads["sphere"]
        assert reads["max"] <= reads["rect"]


class TestRegions:
    def test_rect_is_mbr_of_children(self, loaded):
        tree, pts = loaded
        root = tree.read_node(tree.root_id)
        fields = entry_of(tree, root)
        np.testing.assert_allclose(fields["low"], pts.min(axis=0), atol=1e-9)
        np.testing.assert_allclose(fields["high"], pts.max(axis=0), atol=1e-9)

    def test_invariants_after_build_and_delete(self, loaded, rng):
        tree, pts = loaded
        tree.check_invariants()
        for i in rng.choice(400, size=60, replace=False):
            tree.delete(pts[i], value=int(i))
        tree.check_invariants()

    def test_weights_sum_to_size(self, loaded):
        tree, _ = loaded
        root = tree.read_node(tree.root_id)
        assert root.weight == tree.size
