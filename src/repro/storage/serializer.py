"""Binary page codec: node objects <-> fixed-size page images.

Every node is serialized into a single page (a supernode into ``extent``
pages).  Every block sits at a fixed offset that depends on the node's
capacity, never on its count; :class:`~repro.storage.layout.NodeLayout`
holds the offsets:

* header: kind (u8), flags (u8), level (u16), count (u32), extent (u16),
  reserved (u16) — 12 bytes; an internal node's continuation page ids
  (u32 each) follow it;
* leaf body: a block of ``leaf_capacity`` points (contiguous float64),
  then ``leaf_capacity`` fixed-width data areas, each holding a 4-byte
  length prefix and the payload, zero-padded to ``leaf_data_size``;
* internal body: the child pointers (u32), then the optional weights
  (u32), rectangle lows and highs (D float64 each), and sphere centers (D
  float64) and radii (float64) blocks, in that order, each
  ``node_capacity_for(extent)`` rows long.

Rows beyond ``count`` are zero.  So a write changes only the rows it
touched (and the count word), and the write-ahead log's delta of the
page is that many short ranges, not a restatement of every block behind
the first changed row.  :meth:`NodeCodec.encode` writes the blocks into
one zeroed page buffer by slice assignment and returns the whole
``extent`` pages.

**Zero-copy decode.**  :meth:`NodeCodec.decode` does not copy the entry
blocks out of the page image: every numpy array of a freshly decoded node
is a read-only ``np.frombuffer`` view of its ``count`` live rows that
aliases ``data`` (bytes are immutable, so numpy marks the views
non-writeable for free).  The node arrives *frozen* and materializes
private ``capacity + 1`` arrays only on first mutation
(:meth:`~repro.storage.nodes.LeafNode.ensure_mutable`).  The entire
search path therefore decodes a leaf with two ``frombuffer`` calls and
zero float copies.

**Plain-int fast path.**  Leaf payloads are pickled in general, but the
overwhelmingly common payload is a plain Python ``int`` row id.  Those
are stored as a raw little-endian int64 with the high bit of the length
prefix set (:data:`_INT_FLAG`); a pickled payload never exceeds
``leaf_data_size`` (< 2**31), so its prefix never has that bit.

The encoder refuses a node caught mid-overflow (``count == capacity +
1``): persisting it is a programming error, reported as
:class:`~repro.exceptions.PageOverflowError`.

This module is also the only place allowed to call :func:`pickle.loads`
(enforced by ``tools/lint.py``); the node store's metadata page goes
through :func:`pack_meta` / :func:`unpack_meta` here.  There is one meta
format: a fixed superblock (what :func:`read_superblock` takes from a
file's first bytes) in front of a CRC-guarded pickle.  A page 0 without
the superblock is refused, never unpickled, and so is a file whose
superblock lacks the fixed-offset flag: its node bodies were packed by
count, by an older build, and there is no reader for them.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib

import numpy as np

from ..exceptions import PageOverflowError, ReproError, SerializationError
from .layout import NodeBlocks, NodeLayout
from .nodes import InternalNode, LeafNode

__all__ = [
    "NodeCodec",
    "META_SUPERBLOCK_SIZE",
    "pack_meta",
    "meta_image",
    "read_superblock",
    "unpack_meta",
]

_HEADER = struct.Struct("<BBHIHH")  # kind, flags, level, count, extent, reserved
_KIND_LEAF = 0
_KIND_INTERNAL = 1
_FLAG_REINSERTED = 0x01
_LEN_PREFIX = struct.Struct("<I")
_PAGE_ID = struct.Struct("<I")
_INT_SLOT = struct.Struct("<Iq")  # flagged length prefix + raw int64

#: High bit of the length prefix: payload is a raw int64, not a pickle.
_INT_FLAG = 0x8000_0000
_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

# Pre-bound struct methods: attribute lookups on struct.Struct instances
# are surprisingly hot inside the per-value decode loop.
_header_pack_into = _HEADER.pack_into
_header_unpack_from = _HEADER.unpack_from
_len_pack_into = _LEN_PREFIX.pack_into
_len_unpack_from = _LEN_PREFIX.unpack_from
_page_id_pack_into = _PAGE_ID.pack_into
_page_id_unpack_from = _PAGE_ID.unpack_from
_int_slot_pack_into = _INT_SLOT.pack_into
_int64_unpack_from = struct.Struct("<q").unpack_from
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
#: Node blocks sit at fixed offsets (set on every file this build writes).
_META_FLAG_FIXED_BLOCKS = 0x0002
META_SUPERBLOCK_SIZE = _META_SUPERBLOCK.size
_NOT_AN_INDEX = "is not a repro index file (it does not start with a meta superblock)"
_COUNT_PACKED = (
    "was written with count-packed node bodies by an older build, and this "
    "build reads only fixed-offset node blocks: rebuild the index from its points"
)


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
    flags = _META_FLAG_FIXED_BLOCKS
    if meta.get("checksums"):
        flags |= _META_FLAG_CHECKSUMS
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
    one is not an index this code wrote, and is refused; so is one whose
    node bodies an older build packed by count (no fixed-offset flag),
    before recovery or anything else touches it or its log.
    """
    with open(path, "rb") as handle:
        head = handle.read(META_SUPERBLOCK_SIZE)
    if len(head) < META_SUPERBLOCK_SIZE or head[:8] != _META_MAGIC:
        raise ReproError(f"{os.fspath(path)} {_NOT_AN_INDEX}")
    _, page_size, flags, _, _, _ = _META_SUPERBLOCK.unpack(head)
    if not flags & _META_FLAG_FIXED_BLOCKS:
        raise ReproError(f"{os.fspath(path)} {_COUNT_PACKED}")
    return page_size, bool(flags & _META_FLAG_CHECKSUMS)


def meta_image(page: bytes) -> bytes:
    """What :func:`pack_meta` wrote at the head of ``page``, without the
    page's zero tail (a page that holds no superblock comes back whole)."""
    if len(page) < META_SUPERBLOCK_SIZE or page[:8] != _META_MAGIC:
        return page
    length = _META_SUPERBLOCK.unpack_from(page)[4]
    return page[: META_SUPERBLOCK_SIZE + length]


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
        self._leaf_data = layout.leaf_data_offset
        #: extent -> the layout's block offsets for a node of that extent
        self._blocks: dict[int, NodeBlocks] = {}

    def _node_blocks(self, extent: int) -> NodeBlocks:
        blocks = self._blocks.get(extent)
        if blocks is None:
            blocks = self._blocks[extent] = self.layout.node_blocks(extent)
        return blocks

    # ------------------------------------------------------------------
    # encoding
    # ------------------------------------------------------------------

    def encode(self, node: LeafNode | InternalNode) -> bytes:
        """Serialize a node into an image of exactly ``extent`` pages."""
        flags = _FLAG_REINSERTED if node.reinserted else 0
        if node.is_leaf:
            capacity = self.layout.leaf_capacity
        else:
            blocks = self._node_blocks(node.extent)
            capacity = blocks.capacity
        if node.count > capacity:
            raise PageOverflowError(
                f"cannot persist node {node.page_id} with {node.count} entries "
                f"(capacity {capacity}): split it first"
            )
        image = bytearray(self.layout.page_size * node.extent)
        # Blocks are assigned through a memoryview: a block of the wrong
        # length raises instead of resizing the buffer.
        page = memoryview(image)
        if node.is_leaf:
            _header_pack_into(image, 0, _KIND_LEAF, flags, 0, node.count, 1, 0)
            self._encode_leaf_body(node, page)
        else:
            _header_pack_into(
                image, 0, _KIND_INTERNAL, flags, node.level, node.count, node.extent, 0
            )
            for i, extra in enumerate(node.extra_pages):
                _page_id_pack_into(image, _HEADER_SIZE + _PAGE_ID_SIZE * i, extra)
            self._encode_internal_body(node, blocks, page)
        return bytes(image)

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

    def _encode_leaf_body(self, leaf: LeafNode, page: memoryview) -> None:
        n = leaf.count
        page[_HEADER_SIZE : _HEADER_SIZE + 8 * leaf.dims * n] = leaf.points[:n].tobytes()
        area = self.layout.leaf_data_size
        offset = self._leaf_data
        for value in leaf.values:
            # Fast path: plain int row ids skip pickle entirely.  type()
            # (not isinstance) deliberately excludes bool subclasses.
            if type(value) is int and _INT64_MIN <= value <= _INT64_MAX:
                _int_slot_pack_into(page, offset, _INT_FLAG | 8, value)
            else:
                payload = _pickle_dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
                if len(payload) + _LEN_SIZE > area:
                    raise SerializationError(
                        f"leaf payload pickles to {len(payload)} bytes; the data "
                        f"area is {area} bytes (including a 4-byte length prefix)"
                    )
                _len_pack_into(page, offset, len(payload))
                start = offset + _LEN_SIZE
                page[start : start + len(payload)] = payload
            offset += area

    @staticmethod
    def _encode_internal_body(
        node: InternalNode, blocks: NodeBlocks, page: memoryview
    ) -> None:
        n = node.count
        vector = 8 * node.dims * n
        at = blocks.child_ids
        page[at : at + 4 * n] = node.child_ids[:n].astype(np.uint32).tobytes()
        if node.weights is not None:
            at = blocks.weights
            page[at : at + 4 * n] = node.weights[:n].astype(np.uint32).tobytes()
        if node.lows is not None:
            page[blocks.lows : blocks.lows + vector] = node.lows[:n].tobytes()
            page[blocks.highs : blocks.highs + vector] = node.highs[:n].tobytes()
        if node.centers is not None:
            page[blocks.centers : blocks.centers + vector] = node.centers[:n].tobytes()
            page[blocks.radii : blocks.radii + 8 * n] = node.radii[:n].tobytes()

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
        if len(data) < self.layout.page_size * extent:
            raise SerializationError(f"page {page_id}: truncated node image")
        if kind == _KIND_LEAF:
            node = self._decode_leaf(page_id, count, data)
        elif kind == _KIND_INTERNAL:
            node = self._decode_internal(page_id, level, count, data, extent)
        else:
            raise SerializationError(f"page {page_id}: unknown node kind {kind}")
        node.reinserted = bool(flags & _FLAG_REINSERTED)
        return node

    def _decode_leaf(self, page_id: int, count: int, data: bytes) -> LeafNode:
        dims = self.layout.dims
        if count > self.layout.leaf_capacity:
            raise SerializationError(
                f"page {page_id}: leaf count {count} exceeds capacity"
            )
        area = self.layout.leaf_data_size
        # Zero-copy: the point block is a read-only view over the page
        # image (bytes are immutable, so numpy refuses writes for free).
        points = _frombuffer(
            data, dtype=np.float64, count=dims * count, offset=_HEADER_SIZE
        ).reshape(count, dims)
        values: list[object] = []
        append = values.append
        offset = self._leaf_data
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
        self, page_id: int, level: int, count: int, data: bytes, extent: int
    ) -> InternalNode:
        dims = self.layout.dims
        blocks = self._node_blocks(extent)
        if count > blocks.capacity:
            raise SerializationError(
                f"page {page_id}: node count {count} exceeds capacity"
            )
        extras = [
            _page_id_unpack_from(data, _HEADER_SIZE + _PAGE_ID_SIZE * i)[0]
            for i in range(extent - 1)
        ]

        def rows(offset: int | None, dtype, width: int = 0) -> np.ndarray | None:
            if offset is None:
                return None
            if not width:
                return _frombuffer(data, dtype=dtype, count=count, offset=offset)
            return _frombuffer(
                data, dtype=dtype, count=count * width, offset=offset
            ).reshape(count, width)

        return InternalNode.from_views(
            page_id, dims, blocks.capacity, level, count,
            rows(blocks.child_ids, np.uint32),
            rows(blocks.weights, np.uint32),
            rows(blocks.lows, np.float64, dims),
            rows(blocks.highs, np.float64, dims),
            rows(blocks.centers, np.float64, dims),
            rows(blocks.radii, np.float64),
            extras,
        )
