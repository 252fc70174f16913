"""Unit tests for repro.storage.layout — the paper's Table 1 fanouts."""

import numpy as np
import pytest

from repro import Database
from repro.storage.layout import NodeLayout


def layout_for(kind: str, dims: int = 16, **kwargs) -> NodeLayout:
    flags = {
        "rstar": dict(has_rects=True, has_spheres=False, has_weights=False),
        "sstree": dict(has_rects=False, has_spheres=True, has_weights=True),
        "srtree": dict(has_rects=True, has_spheres=True, has_weights=True),
    }[kind]
    return NodeLayout(dims=dims, **flags, **kwargs)


class TestPaperFanouts:
    """The fanouts of the paper's setup: 8 KiB pages, 512 B data, D=16."""

    def test_leaf_capacity_is_12_for_every_family(self):
        for kind in ("rstar", "sstree", "srtree"):
            assert layout_for(kind).leaf_capacity == 12

    def test_sr_node_capacity_20(self):
        # Table 1 reports "SR-tree 20 12".
        assert layout_for("srtree").node_capacity == 20

    def test_ss_node_capacity_56(self):
        assert layout_for("sstree").node_capacity == 56

    def test_rstar_node_capacity_31(self):
        assert layout_for("rstar").node_capacity == 31

    def test_sr_fanout_is_one_third_of_ss(self):
        # Paper Section 5.3: "the fanout of the SR-tree is one third of
        # the SS-tree and two thirds of the R*-tree".
        sr = layout_for("srtree").node_capacity
        ss = layout_for("sstree").node_capacity
        rstar = layout_for("rstar").node_capacity
        assert sr == pytest.approx(ss / 3, abs=2)
        assert sr == pytest.approx(2 * rstar / 3, abs=2)

    def test_sr_entry_is_three_times_ss_entry(self):
        # "its size is three times larger than that of the SS-tree and
        # one-and-a-half of that of the R*-tree" (Section 5.3).
        sr = layout_for("srtree").node_entry_size
        ss = layout_for("sstree").node_entry_size
        rstar = layout_for("rstar").node_entry_size
        assert sr / ss == pytest.approx(3.0, rel=0.1)
        assert sr / rstar == pytest.approx(1.5, rel=0.1)


class TestCapacityScaling:
    def test_fanout_shrinks_with_dimensionality(self):
        caps = [layout_for("srtree", dims=d).node_capacity for d in (2, 16, 64)]
        assert caps[0] > caps[1] > caps[2] >= 2

    def test_leaf_capacity_dominated_by_data_area(self):
        # With 512-byte payload slots the point coordinates barely matter.
        assert layout_for("srtree", dims=1).leaf_capacity == 15
        assert layout_for("srtree", dims=16).leaf_capacity == 12

    def test_larger_pages_fit_more(self):
        small = layout_for("srtree", page_size=8192)
        big = layout_for("srtree", page_size=32768)
        assert big.node_capacity > small.node_capacity
        assert big.leaf_capacity > small.leaf_capacity

    def test_too_small_page_rejected(self):
        with pytest.raises(ValueError):
            layout_for("srtree", dims=64, page_size=2048)

    def test_zero_dims_rejected(self):
        with pytest.raises(ValueError):
            layout_for("srtree", dims=0)

    def test_shapeless_entry_rejected(self):
        with pytest.raises(ValueError):
            NodeLayout(dims=4, has_rects=False, has_spheres=False, has_weights=False)

    @pytest.mark.parametrize("size", [0, 4, 8, 11])
    def test_data_area_below_an_int_slot_rejected(self, size):
        # An int payload is stored in place as a 4-byte prefix and an
        # int64: a smaller area let one row's slot run into the next.
        with pytest.raises(ValueError, match="leaf_data_size must be at least 12"):
            layout_for("rstar", dims=3, page_size=512, leaf_data_size=size)
        assert layout_for("rstar", dims=3, page_size=512,
                          leaf_data_size=12).leaf_data_size == 12

    def test_smallest_data_area_keeps_every_int_payload(self):
        # The defect this pins: at leaf_data_size=8, 239 of these 260
        # points came back with a wrong value (a large negative int,
        # read across the next slot); Database.create now refuses 8.
        rng = np.random.default_rng(0)
        points = rng.random((260, 3))
        with pytest.raises(ValueError, match="leaf_data_size"):
            Database.create(None, kind="rtree", dims=3, page_size=512,
                            leaf_data_size=8, buffer_capacity=8)
        with Database.create(None, kind="rtree", dims=3, page_size=512,
                             leaf_data_size=12, buffer_capacity=8) as db:
            db.insert_many(points)
            assert [db.knn(p, 1)[0].value for p in points] == list(range(260))


class TestMinFill:
    def test_forty_percent_default(self):
        layout = layout_for("sstree")
        assert layout.min_fill(56) == 22
        assert layout.min_fill(12) == 4

    def test_clamped_to_splittable(self):
        layout = layout_for("sstree")
        # A capacity-2 node can still split into 1+2.
        assert layout.min_fill(2) == 1

    def test_never_below_one(self):
        layout = layout_for("sstree")
        assert layout.min_fill(2, utilization=0.01) == 1

    def test_invalid_utilization(self):
        layout = layout_for("sstree")
        with pytest.raises(ValueError):
            layout.min_fill(10, utilization=0.9)
        with pytest.raises(ValueError):
            layout.min_fill(10, utilization=0.0)
