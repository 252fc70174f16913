"""Unit tests for repro.storage.serializer — page codec round trips."""

import numpy as np
import pytest

from repro.exceptions import PageOverflowError, SerializationError
from repro.indexes import INDEX_KINDS
from repro.storage.layout import NodeLayout
from repro.storage.nodes import InternalNode, LeafNode
from repro.storage.serializer import NodeCodec


@pytest.fixture
def sr_layout() -> NodeLayout:
    return NodeLayout(dims=4, has_rects=True, has_spheres=True, has_weights=True)


@pytest.fixture
def rect_layout() -> NodeLayout:
    return NodeLayout(dims=4, has_rects=True, has_spheres=False, has_weights=False)


def make_leaf(layout: NodeLayout, rng, count: int, values=None) -> LeafNode:
    leaf = LeafNode(7, layout.dims, layout.leaf_capacity)
    for i in range(count):
        leaf.add(rng.random(layout.dims), values[i] if values else i)
    return leaf


class TestLeafRoundTrip:
    def test_points_and_values(self, sr_layout, rng):
        codec = NodeCodec(sr_layout)
        leaf = make_leaf(sr_layout, rng, 5)
        decoded = codec.decode(7, codec.encode(leaf))
        assert decoded.is_leaf
        assert decoded.count == 5
        np.testing.assert_array_equal(decoded.points[:5], leaf.points[:5])
        assert decoded.values == [0, 1, 2, 3, 4]

    def test_empty_leaf(self, sr_layout):
        codec = NodeCodec(sr_layout)
        leaf = LeafNode(3, sr_layout.dims, sr_layout.leaf_capacity)
        decoded = codec.decode(3, codec.encode(leaf))
        assert decoded.count == 0
        assert decoded.values == []

    def test_full_leaf(self, sr_layout, rng):
        codec = NodeCodec(sr_layout)
        leaf = make_leaf(sr_layout, rng, sr_layout.leaf_capacity)
        image = codec.encode(leaf)
        assert len(image) <= sr_layout.page_size
        decoded = codec.decode(7, image)
        assert decoded.count == sr_layout.leaf_capacity

    def test_varied_payload_types(self, sr_layout, rng):
        codec = NodeCodec(sr_layout)
        values = [None, "record-17", (1, 2), {"id": 5}, b"\x00\xff"]
        leaf = make_leaf(sr_layout, rng, 5, values=values)
        decoded = codec.decode(7, codec.encode(leaf))
        assert decoded.values == values

    def test_oversized_payload_rejected(self, sr_layout, rng):
        codec = NodeCodec(sr_layout)
        leaf = make_leaf(sr_layout, rng, 1, values=["x" * 600])
        with pytest.raises(SerializationError):
            codec.encode(leaf)

    def test_reinserted_flag_roundtrip(self, sr_layout, rng):
        codec = NodeCodec(sr_layout)
        leaf = make_leaf(sr_layout, rng, 2)
        leaf.reinserted = True
        assert codec.decode(7, codec.encode(leaf)).reinserted

    def test_overflowing_leaf_rejected(self, sr_layout, rng):
        codec = NodeCodec(sr_layout)
        leaf = make_leaf(sr_layout, rng, sr_layout.leaf_capacity)
        leaf.add(rng.random(sr_layout.dims), 99)  # the overflow slot
        with pytest.raises(PageOverflowError):
            codec.encode(leaf)


def make_internal(layout: NodeLayout, rng, count: int) -> InternalNode:
    node = InternalNode(
        11,
        layout.dims,
        layout.node_capacity,
        level=2,
        has_rects=layout.has_rects,
        has_spheres=layout.has_spheres,
        has_weights=layout.has_weights,
    )
    for i in range(count):
        low = rng.random(layout.dims)
        kwargs = {}
        if layout.has_rects:
            kwargs["low"] = low
            kwargs["high"] = low + rng.random(layout.dims)
        if layout.has_spheres:
            kwargs["center"] = low
            kwargs["radius"] = float(rng.random())
        if layout.has_weights:
            kwargs["weight"] = int(rng.integers(1, 1000))
        node.add(100 + i, **kwargs)
    return node


class TestInternalRoundTrip:
    def test_sr_entries(self, sr_layout, rng):
        codec = NodeCodec(sr_layout)
        node = make_internal(sr_layout, rng, 6)
        decoded = codec.decode(11, codec.encode(node))
        assert not decoded.is_leaf
        assert decoded.level == 2
        assert decoded.count == 6
        np.testing.assert_array_equal(decoded.child_ids[:6], node.child_ids[:6])
        np.testing.assert_array_equal(decoded.weights[:6], node.weights[:6])
        np.testing.assert_array_equal(decoded.lows[:6], node.lows[:6])
        np.testing.assert_array_equal(decoded.highs[:6], node.highs[:6])
        np.testing.assert_array_equal(decoded.centers[:6], node.centers[:6])
        np.testing.assert_array_equal(decoded.radii[:6], node.radii[:6])

    def test_rect_only_entries(self, rect_layout, rng):
        codec = NodeCodec(rect_layout)
        node = make_internal(rect_layout, rng, 4)
        decoded = codec.decode(11, codec.encode(node))
        assert decoded.centers is None
        assert decoded.weights is None
        np.testing.assert_array_equal(decoded.lows[:4], node.lows[:4])

    def test_full_node_fits_page(self, sr_layout, rng):
        codec = NodeCodec(sr_layout)
        node = make_internal(sr_layout, rng, sr_layout.node_capacity)
        assert len(codec.encode(node)) <= sr_layout.page_size

    def test_infinite_bounds_roundtrip(self, rect_layout):
        # The K-D-B-tree stores +-inf bounds in its root partition.
        codec = NodeCodec(rect_layout)
        node = InternalNode(5, 4, rect_layout.node_capacity, level=1,
                            has_rects=True, has_spheres=False, has_weights=False)
        node.add(42, low=np.full(4, -np.inf), high=np.full(4, np.inf))
        decoded = codec.decode(5, codec.encode(node))
        assert np.all(np.isneginf(decoded.lows[0]))
        assert np.all(np.isposinf(decoded.highs[0]))


class TestCorruption:
    def test_truncated_header(self, sr_layout):
        codec = NodeCodec(sr_layout)
        with pytest.raises(SerializationError):
            codec.decode(1, b"\x00\x01")

    def test_unknown_kind(self, sr_layout):
        codec = NodeCodec(sr_layout)
        with pytest.raises(SerializationError):
            codec.decode(1, bytes([9, 0, 0, 0, 0, 0, 0, 0]))

    def test_truncated_leaf_body(self, sr_layout, rng):
        codec = NodeCodec(sr_layout)
        leaf = make_leaf(sr_layout, rng, 3)
        image = codec.encode(leaf)
        with pytest.raises(SerializationError):
            codec.decode(7, image[: len(image) // 2])

    def test_impossible_count(self, sr_layout):
        codec = NodeCodec(sr_layout)
        import struct
        bad = struct.pack("<BBHI", 0, 0, 0, 10_000) + b"\x00" * 64
        with pytest.raises(SerializationError):
            codec.decode(1, bad)


def full_internal(layout: NodeLayout, rng, count: int, extent: int) -> InternalNode:
    """An internal node of ``extent`` pages holding ``count`` entries."""
    node = InternalNode(
        11, layout.dims, layout.node_capacity_for(extent), level=3,
        has_rects=layout.has_rects, has_spheres=layout.has_spheres,
        has_weights=layout.has_weights,
    )
    node.extra_pages = [40 + page for page in range(extent - 1)]
    for i in range(count):
        low = rng.random(layout.dims) + 0.5
        node.add(100 + i, low=low, high=low + 1.0, center=low + 0.25,
                 radius=float(rng.random()) + 0.5, weight=i + 1)
    return node


@pytest.mark.parametrize("kind", sorted(INDEX_KINDS))
def test_every_family_round_trips_with_fixed_blocks_zero_past_count(kind, rng):
    """Empty and full nodes, supernodes of 1-3 pages: each block sits at
    the layout's offset, its rows beyond ``count`` are zeros, and decode
    gives back what was encoded."""
    cls = INDEX_KINDS[kind]
    layout = NodeLayout(dims=3, has_rects=cls.HAS_RECTS,
                        has_spheres=cls.HAS_SPHERES, has_weights=cls.HAS_WEIGHTS)
    codec = NodeCodec(layout)
    row, area, capacity = 8 * layout.dims, layout.leaf_data_size, layout.leaf_capacity
    for count in (0, capacity):
        leaf = make_leaf(layout, rng, count)
        image = codec.encode(leaf)
        assert len(image) == layout.page_size
        decoded = codec.decode(7, image)
        assert (decoded.count, decoded.values) == (count, leaf.values)
        np.testing.assert_array_equal(decoded.points, leaf.points[:count])
        assert not any(image[12 + row * count : 12 + row * capacity])
        assert not any(image[layout.leaf_data_offset + area * count :])
    widths = {"child_ids": 4, "weights": 4, "lows": row, "highs": row,
              "centers": row, "radii": 8}
    for extent in (1, 2, 3):
        blocks = layout.node_blocks(extent)
        for count in (0, blocks.capacity):
            node = full_internal(layout, rng, count, extent)
            image = codec.encode(node)
            assert len(image) == layout.page_size * extent
            decoded = codec.decode(11, image)
            assert (decoded.level, decoded.count, decoded.extra_pages) == (
                3, count, node.extra_pages)
            end = 12 + 4 * (extent - 1)
            for name, width in widths.items():
                offset = getattr(blocks, name)
                if offset is None:
                    assert getattr(decoded, name) is None
                    continue
                assert offset == end  # the blocks tile the body, in order
                end += width * blocks.capacity
                np.testing.assert_array_equal(getattr(decoded, name),
                                              getattr(node, name)[:count])
                assert not any(image[offset + width * count : end])
            assert end <= len(image)
