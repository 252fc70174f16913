"""Binary page codec: node objects <-> fixed-size page images.

Every node is serialized into a single page.  The byte layout follows
:class:`~repro.storage.layout.NodeLayout`:

* header: kind (u8), flags (u8), level (u16), count (u32) — 8 bytes;
* leaf body: ``count`` points as contiguous float64, then ``count``
  fixed-width data areas, each holding a 4-byte length prefix and the
  payload, zero-padded to ``leaf_data_size``;
* internal body: ``count`` child pointers (u32), then the optional
  weights (u32), rectangle bounds (2 x D float64), and sphere
  center/radius (D + 1 float64) blocks in that order.

**Zero-copy decode.**  :meth:`NodeCodec.decode` does not copy the entry
blocks out of the page image: every numpy array of a freshly decoded node
is a read-only ``np.frombuffer`` view that aliases ``data`` (bytes are
immutable, so numpy marks the views non-writeable for free).  The node
arrives *frozen* and materializes private ``capacity + 1`` arrays only on
first mutation (:meth:`~repro.storage.nodes.LeafNode.ensure_mutable`).
The entire search path therefore decodes a leaf with two ``frombuffer``
calls and zero float copies.

**Plain-int fast path.**  Leaf payloads are pickled in general, but the
overwhelmingly common payload is a plain Python ``int`` row id.  Those
are stored as a raw little-endian int64 with the high bit of the length
prefix set (:data:`_INT_FLAG`).  Old pages are decoded unchanged — a
pickled payload never exceeds ``leaf_data_size`` (< 2**31), so the high
bit was always 0 before this encoding existed.

The encoder asserts that the resulting image fits the page — by
construction it always does when ``count <= capacity``, and a node caught
mid-overflow (``count == capacity + 1``) is a programming error to
persist, reported as :class:`~repro.exceptions.PageOverflowError`.

This module is also the only place allowed to call :func:`pickle.loads`
(enforced by ``tools/lint.py``); the node store's metadata page goes
through :func:`pack_meta` / :func:`unpack_meta` here.  There is one meta
format: a fixed superblock (what :func:`read_superblock` takes from a
file's first bytes) in front of a CRC-guarded pickle.  A page 0 without
the superblock is refused, never unpickled.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib

import numpy as np

from ..exceptions import PageOverflowError, ReproError, SerializationError
from .layout import NodeLayout
from .nodes import InternalNode, LeafNode

__all__ = [
    "NodeCodec",
    "META_SUPERBLOCK_SIZE",
    "pack_meta",
    "read_superblock",
    "unpack_meta",
]

_HEADER = struct.Struct("<BBHIHH")  # kind, flags, level, count, extent, reserved
_KIND_LEAF = 0
_KIND_INTERNAL = 1
_FLAG_REINSERTED = 0x01
_LEN_PREFIX = struct.Struct("<I")
_PAGE_ID = struct.Struct("<I")
_INT64 = struct.Struct("<q")

#: High bit of the length prefix: payload is a raw int64, not a pickle.
_INT_FLAG = 0x8000_0000
_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

# Pre-bound struct methods: attribute lookups on struct.Struct instances
# are surprisingly hot inside the per-value decode loop.
_header_pack = _HEADER.pack
_header_unpack_from = _HEADER.unpack_from
_len_pack = _LEN_PREFIX.pack
_len_unpack_from = _LEN_PREFIX.unpack_from
_page_id_pack = _PAGE_ID.pack
_page_id_unpack_from = _PAGE_ID.unpack_from
_int64_pack = _INT64.pack
_int64_unpack_from = _INT64.unpack_from
_pickle_dumps = pickle.dumps
_pickle_loads = pickle.loads
_frombuffer = np.frombuffer

_HEADER_SIZE = _HEADER.size
_LEN_SIZE = _LEN_PREFIX.size
_PAGE_ID_SIZE = _PAGE_ID.size


#: Meta-page superblock: magic (8) + page_size (u32) + flags (u16) +
#: reserved (u16) + payload length (u32) + payload CRC32 (u32).
_META_SUPERBLOCK = struct.Struct("<8sIHHII")
_META_MAGIC = b"RPROMET1"
_META_FLAG_CHECKSUMS = 0x0001
META_SUPERBLOCK_SIZE = _META_SUPERBLOCK.size
_NOT_AN_INDEX = "is not a repro index file (it does not start with a meta superblock)"


def pack_meta(meta: dict) -> bytes:
    """Serialize the node store's metadata dict into a page payload.

    The payload starts with a fixed binary *superblock* carrying the
    file geometry (page size, checksums flag) followed by the CRC-guarded
    pickled dict.  The geometry never changes over the life of a file,
    so its bytes are identical across every meta rewrite — a torn meta
    write can mangle the pickled tail (detected by the CRC and repaired
    from the WAL) but never the geometry a reopening process needs to
    find the WAL in the first place.
    """
    payload = _pickle_dumps(meta, protocol=pickle.HIGHEST_PROTOCOL)
    flags = _META_FLAG_CHECKSUMS if meta.get("checksums") else 0
    header = _META_SUPERBLOCK.pack(
        _META_MAGIC,
        int(meta.get("page_size", 0)),
        flags,
        0,
        len(payload),
        zlib.crc32(payload) & 0xFFFFFFFF,
    )
    return header + payload


def read_superblock(path) -> tuple[int, bool]:
    """``(page_size, checksums)`` of an index file, from its superblock.

    The meta page is page 0, so whatever the page geometry the
    superblock is the first :data:`META_SUPERBLOCK_SIZE` bytes of the
    file: nothing else is read, and nothing is unpickled, to learn how
    to open the file and find its WAL.  A file that does not start with
    one is not an index this code wrote, and is refused.
    """
    with open(path, "rb") as handle:
        head = handle.read(META_SUPERBLOCK_SIZE)
    if len(head) < META_SUPERBLOCK_SIZE or head[:8] != _META_MAGIC:
        raise ReproError(f"{os.fspath(path)} {_NOT_AN_INDEX}")
    _, page_size, flags, _, _, _ = _META_SUPERBLOCK.unpack(head)
    return page_size, bool(flags & _META_FLAG_CHECKSUMS)


def unpack_meta(payload: bytes) -> dict:
    """Inverse of :func:`pack_meta`: superblock, CRC check, then the dict."""
    if len(payload) < META_SUPERBLOCK_SIZE or payload[:8] != _META_MAGIC:
        raise SerializationError(f"page 0 {_NOT_AN_INDEX}")
    _, _, _, _, length, crc = _META_SUPERBLOCK.unpack_from(payload)
    body = payload[META_SUPERBLOCK_SIZE : META_SUPERBLOCK_SIZE + length]
    if len(body) != length or zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise SerializationError(
            "metadata page failed its CRC check (torn meta write?)"
        )
    try:
        meta = _pickle_loads(body)
    except Exception as exc:  # pickle raises many types
        raise SerializationError(f"metadata page failed to decode: {exc}") from exc
    if not isinstance(meta, dict):
        raise SerializationError(
            f"metadata page decoded to {type(meta).__name__}, expected dict"
        )
    return meta


class NodeCodec:
    """Encodes and decodes nodes of one index family."""

    def __init__(self, layout: NodeLayout) -> None:
        self.layout = layout

    # ------------------------------------------------------------------
    # encoding
    # ------------------------------------------------------------------

    def encode(self, node: LeafNode | InternalNode) -> bytes:
        """Serialize a node into an image of at most ``extent`` pages."""
        if node.is_leaf:
            capacity = self.layout.leaf_capacity
        else:
            capacity = self.layout.node_capacity_for(node.extent)
        if node.count > capacity:
            raise PageOverflowError(
                f"cannot persist node {node.page_id} with {node.count} entries "
                f"(capacity {capacity}): split it first"
            )
        flags = _FLAG_REINSERTED if node.reinserted else 0
        if node.is_leaf:
            body = self._encode_leaf_body(node)
            header = _header_pack(_KIND_LEAF, flags, 0, node.count, 1, 0)
            continuation = b""
        else:
            body = self._encode_internal_body(node)
            header = _header_pack(
                _KIND_INTERNAL, flags, node.level, node.count, node.extent, 0
            )
            continuation = b"".join(
                _page_id_pack(page) for page in node.extra_pages
            )
        image = header + continuation + body
        if len(image) > self.layout.page_size * node.extent:
            raise PageOverflowError(
                f"node {node.page_id} serialized to {len(image)} bytes, "
                f"extent is {node.extent} pages of {self.layout.page_size}"
            )
        return image

    @staticmethod
    def peek_extent(first_page: bytes) -> tuple[int, list[int]]:
        """Extent and continuation page ids from a node's first page.

        The node store uses this to know which further pages to fetch
        before :meth:`decode` can run on the assembled image.
        """
        if len(first_page) < _HEADER_SIZE:
            raise SerializationError("page image too short to hold a header")
        _, _, _, _, extent, _ = _header_unpack_from(first_page)
        extras = []
        offset = _HEADER_SIZE
        for _ in range(extent - 1):
            (page,) = _page_id_unpack_from(first_page, offset)
            extras.append(page)
            offset += _PAGE_ID_SIZE
        return extent, extras

    def _encode_leaf_body(self, leaf: LeafNode) -> bytes:
        parts = [np.ascontiguousarray(leaf.points[: leaf.count]).tobytes()]
        area = self.layout.leaf_data_size
        pad = b"\x00" * area
        for value in leaf.values:
            # Fast path: plain int row ids skip pickle entirely.  type()
            # (not isinstance) deliberately excludes bool subclasses.
            if type(value) is int and _INT64_MIN <= value <= _INT64_MAX:
                slot = _len_pack(_INT_FLAG | 8) + _int64_pack(value)
            else:
                payload = _pickle_dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
                if len(payload) + _LEN_SIZE > area:
                    raise SerializationError(
                        f"leaf payload pickles to {len(payload)} bytes; the data "
                        f"area is {area} bytes (including a 4-byte length prefix)"
                    )
                slot = _len_pack(len(payload)) + payload
            parts.append(slot + pad[len(slot):])
        return b"".join(parts)

    def _encode_internal_body(self, node: InternalNode) -> bytes:
        n = node.count
        parts = [np.ascontiguousarray(node.child_ids[:n], dtype=np.uint32).tobytes()]
        if node.weights is not None:
            parts.append(np.ascontiguousarray(node.weights[:n], dtype=np.uint32).tobytes())
        if node.lows is not None:
            parts.append(np.ascontiguousarray(node.lows[:n]).tobytes())
            parts.append(np.ascontiguousarray(node.highs[:n]).tobytes())
        if node.centers is not None:
            parts.append(np.ascontiguousarray(node.centers[:n]).tobytes())
            parts.append(np.ascontiguousarray(node.radii[:n]).tobytes())
        return b"".join(parts)

    # ------------------------------------------------------------------
    # decoding
    # ------------------------------------------------------------------

    def decode(self, page_id: int, data: bytes) -> LeafNode | InternalNode:
        """Reconstruct a node from its (possibly multi-page) image.

        The returned node is *frozen*: its entry arrays are read-only
        views aliasing ``data``.  Callers that mutate entry arrays
        directly must call ``ensure_mutable`` first; the node's own
        mutators do so automatically.
        """
        if len(data) < _HEADER_SIZE:
            raise SerializationError(f"page {page_id}: image too short to hold a header")
        kind, flags, level, count, extent, _ = _header_unpack_from(data)
        extras: list[int] = []
        offset = _HEADER_SIZE
        if kind == _KIND_INTERNAL and extent > 1:
            for _ in range(extent - 1):
                (page,) = _page_id_unpack_from(data, offset)
                extras.append(page)
                offset += _PAGE_ID_SIZE
        if kind == _KIND_LEAF:
            node = self._decode_leaf(page_id, count, data, offset)
        elif kind == _KIND_INTERNAL:
            node = self._decode_internal(page_id, level, count, data, offset, extent, extras)
        else:
            raise SerializationError(f"page {page_id}: unknown node kind {kind}")
        node.reinserted = bool(flags & _FLAG_REINSERTED)
        return node

    def _decode_leaf(
        self, page_id: int, count: int, data: bytes, body_offset: int
    ) -> LeafNode:
        dims = self.layout.dims
        if count > self.layout.leaf_capacity:
            raise SerializationError(
                f"page {page_id}: leaf count {count} exceeds capacity"
            )
        point_bytes = 8 * dims * count
        area = self.layout.leaf_data_size
        needed = point_bytes + area * count
        if len(data) - body_offset < needed:
            raise SerializationError(f"page {page_id}: truncated leaf body")
        # Zero-copy: the point block is a read-only view over the page
        # image (bytes are immutable, so numpy refuses writes for free).
        points = _frombuffer(
            data, dtype=np.float64, count=dims * count, offset=body_offset
        ).reshape(count, dims)
        values: list[object] = []
        append = values.append
        offset = body_offset + point_bytes
        for _ in range(count):
            (length,) = _len_unpack_from(data, offset)
            start = offset + _LEN_SIZE
            if length & _INT_FLAG:
                if (length ^ _INT_FLAG) != 8:
                    raise SerializationError(f"page {page_id}: corrupt payload length")
                append(_int64_unpack_from(data, start)[0])
            else:
                if length > area - _LEN_SIZE:
                    raise SerializationError(f"page {page_id}: corrupt payload length")
                try:
                    append(_pickle_loads(data[start : start + length]))
                except Exception as exc:  # pickle raises many types
                    raise SerializationError(
                        f"page {page_id}: payload failed to unpickle: {exc}"
                    ) from exc
            offset += area
        return LeafNode.from_views(
            page_id, dims, self.layout.leaf_capacity, count, points, values
        )

    def _decode_internal(
        self,
        page_id: int,
        level: int,
        count: int,
        data: bytes,
        body_offset: int,
        extent: int = 1,
        extras: list[int] | None = None,
    ) -> InternalNode:
        layout = self.layout
        dims = layout.dims
        capacity = layout.node_capacity_for(extent)
        if count > capacity:
            raise SerializationError(
                f"page {page_id}: node count {count} exceeds capacity"
            )
        offset = body_offset

        def take(dtype, items: int, shape: tuple[int, ...] | None = None) -> np.ndarray:
            nonlocal offset
            arr = _frombuffer(data, dtype=dtype, count=items, offset=offset)
            offset += arr.nbytes
            return arr if shape is None else arr.reshape(shape)

        weights = lows = highs = centers = radii = None
        try:
            child_ids = take(np.uint32, count)
            if layout.has_weights:
                weights = take(np.uint32, count)
            if layout.has_rects:
                lows = take(np.float64, count * dims, (count, dims))
                highs = take(np.float64, count * dims, (count, dims))
            if layout.has_spheres:
                centers = take(np.float64, count * dims, (count, dims))
                radii = take(np.float64, count)
        except ValueError as exc:
            raise SerializationError(f"page {page_id}: truncated node body") from exc
        return InternalNode.from_views(
            page_id,
            dims,
            capacity,
            level,
            count,
            child_ids,
            weights,
            lows,
            highs,
            centers,
            radii,
            extras if extras is not None else [],
        )
