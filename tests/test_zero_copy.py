"""Zero-copy decode: frozen views over the page image, copy-on-write.

The codec decodes entry arrays as ``np.frombuffer`` views over the raw
page bytes.  These tests pin the three properties that make that safe:

* decoded arrays are read-only and alias the page buffer (no copy);
* mutating a frozen node goes through ``ensure_mutable`` and never
  writes through to the page image;
* the integer-payload fast path round-trips values without pickle and
  stays backward compatible with pickled payloads.
"""

import numpy as np
import pytest

from repro.indexes import SRTree
from repro.storage.layout import NodeLayout
from repro.storage.nodes import InternalNode, LeafNode
from repro.storage.serializer import NodeCodec


@pytest.fixture
def layout() -> NodeLayout:
    return NodeLayout(dims=4, has_rects=True, has_spheres=True, has_weights=True)


@pytest.fixture
def codec(layout) -> NodeCodec:
    return NodeCodec(layout)


def make_leaf(layout, rng, count=6):
    leaf = LeafNode(7, layout.dims, layout.leaf_capacity)
    for i in range(count):
        leaf.add(rng.random(layout.dims), i)
    return leaf


def make_internal(layout, rng, count=6):
    node = InternalNode(11, layout.dims, layout.node_capacity, level=2,
                        has_rects=True, has_spheres=True, has_weights=True)
    for i in range(count):
        low = rng.random(layout.dims)
        node.add(100 + i, low=low, high=low + 1.0, center=low,
                 radius=float(rng.random()), weight=i + 1)
    return node


class TestLeafViews:
    def test_decoded_points_alias_page_buffer(self, codec, layout, rng):
        image = codec.encode(make_leaf(layout, rng))
        decoded = codec.decode(7, image)
        raw = np.frombuffer(image, dtype=np.uint8)
        assert np.shares_memory(decoded.points, raw)

    def test_decoded_points_are_read_only(self, codec, layout, rng):
        decoded = codec.decode(7, codec.encode(make_leaf(layout, rng)))
        assert decoded.frozen
        assert not decoded.points.flags.writeable
        with pytest.raises(ValueError):
            decoded.points[0, 0] = 99.0

    def test_mutation_materializes_private_arrays(self, codec, layout, rng):
        image = codec.encode(make_leaf(layout, rng, count=3))
        decoded = codec.decode(7, image)
        decoded.add(rng.random(layout.dims), 3)
        assert not decoded.frozen
        assert decoded.points.flags.writeable
        assert decoded.count == 4
        # The original page image is untouched.
        assert codec.decode(7, image).count == 3
        # Mutable arrays have the overflow slot (capacity + 1 rows).
        assert decoded.points.shape[0] == layout.leaf_capacity + 1

    def test_remove_unfreezes(self, codec, layout, rng):
        decoded = codec.decode(7, codec.encode(make_leaf(layout, rng, count=3)))
        decoded.remove_at(1)
        assert not decoded.frozen
        assert decoded.count == 2

    def test_reencode_of_frozen_node_round_trips(self, codec, layout, rng):
        leaf = make_leaf(layout, rng, count=5)
        decoded = codec.decode(7, codec.encode(leaf))
        again = codec.decode(7, codec.encode(decoded))
        np.testing.assert_array_equal(again.points[:5], leaf.points[:5])
        assert again.values == leaf.values


class TestInternalViews:
    def test_decoded_arrays_alias_page_buffer(self, codec, layout, rng):
        image = codec.encode(make_internal(layout, rng))
        decoded = codec.decode(11, image)
        raw = np.frombuffer(image, dtype=np.uint8)
        for arr in (decoded.child_ids, decoded.weights, decoded.lows,
                    decoded.highs, decoded.centers, decoded.radii):
            assert np.shares_memory(arr, raw)
            assert not arr.flags.writeable

    def test_mutation_materializes_private_arrays(self, codec, layout, rng):
        image = codec.encode(make_internal(layout, rng, count=3))
        decoded = codec.decode(11, image)
        low = rng.random(layout.dims)
        decoded.add(999, low=low, high=low + 1.0, center=low, radius=0.5,
                    weight=9)
        assert not decoded.frozen
        assert decoded.count == 4
        assert int(decoded.child_ids[3]) == 999
        assert codec.decode(11, image).count == 3  # page image untouched

    def test_summary_write_unfreezes(self, codec, layout, rng):
        image = codec.encode(make_internal(layout, rng))
        decoded = codec.decode(11, image)
        leaf = make_leaf(layout, rng)
        SRTree(layout.dims)._summarize(leaf, decoded, 0)
        assert not decoded.frozen
        np.testing.assert_array_equal(decoded.lows[0], leaf.live_points.min(axis=0))
        assert int(decoded.weights[0]) == leaf.count
        assert not np.array_equal(codec.decode(11, image).lows[0],
                                  decoded.lows[0])  # page image untouched

    def test_remove_at_unfreezes(self, codec, layout, rng):
        decoded = codec.decode(11, codec.encode(make_internal(layout, rng)))
        before = decoded.count
        decoded.remove_at(0)
        assert not decoded.frozen
        assert decoded.count == before - 1


class TestIntFastPath:
    def test_int_values_round_trip(self, codec, layout, rng):
        values = [0, 1, -1, 2**40, -(2**40), 2**63 - 1, -(2**63)]
        leaf = LeafNode(7, layout.dims, layout.leaf_capacity)
        for i, v in enumerate(values):
            leaf.add(rng.random(layout.dims), v)
        decoded = codec.decode(7, codec.encode(leaf))
        assert decoded.values == values
        assert all(type(v) is int for v in decoded.values)

    def test_int_payload_skips_pickle(self, codec, layout, rng):
        leaf = LeafNode(7, layout.dims, layout.leaf_capacity)
        leaf.add(rng.random(layout.dims), 12345)
        image = codec.encode(leaf)
        # A raw little-endian int64 payload, not a pickle stream: the
        # pickle protocol-2+ magic byte b'\x80' must not follow the
        # flagged length prefix.
        assert (12345).to_bytes(8, "little", signed=True) in image

    def test_bool_is_not_an_int_payload(self, codec, layout, rng):
        leaf = LeafNode(7, layout.dims, layout.leaf_capacity)
        leaf.add(rng.random(layout.dims), True)
        leaf.add(rng.random(layout.dims), False)
        decoded = codec.decode(7, codec.encode(leaf))
        assert decoded.values == [True, False]
        assert all(type(v) is bool for v in decoded.values)

    def test_huge_int_falls_back_to_pickle(self, codec, layout, rng):
        big = 2**200
        leaf = LeafNode(7, layout.dims, layout.leaf_capacity)
        leaf.add(rng.random(layout.dims), big)
        decoded = codec.decode(7, codec.encode(leaf))
        assert decoded.values == [big]

    def test_pickled_int_payload_still_decodes(self, codec, layout, rng):
        # Backward compatibility: pages written before the fast path
        # carry pickled ints with an unflagged length prefix.
        import pickle
        import struct

        leaf = LeafNode(7, layout.dims, layout.leaf_capacity)
        leaf.add(rng.random(layout.dims), 42)
        image = bytearray(codec.encode(leaf))
        # Rewrite the single value slot (the first fixed-size data area)
        # as an unflagged pickle payload.
        payload = pickle.dumps(42, protocol=pickle.HIGHEST_PROTOCOL)
        area, start = layout.leaf_data_size, layout.leaf_data_offset
        slot = struct.pack("<I", len(payload)) + payload
        image[start : start + area] = slot + b"\x00" * (area - len(slot))
        decoded = codec.decode(7, bytes(image))
        assert decoded.values == [42]
