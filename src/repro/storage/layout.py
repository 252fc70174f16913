"""Page layout: how many entries fit in an 8 KiB page.

The fanout of every index in the paper follows directly from the byte
layout of its node entries (paper Sections 3.1 and 5.3):

* a **leaf entry** is a point (``8 * D`` bytes) plus a fixed 512-byte data
  area — identical for every point index, giving leaf capacity 12 at
  D = 16 with 8 KiB pages;
* an **R*-tree node entry** is a rectangle (``16 * D``) plus a child
  pointer — capacity 31 at D = 16;
* an **SS-tree node entry** is a sphere (``8 * D + 8``) plus a weight and
  a child pointer — capacity 56;
* an **SR-tree node entry** carries both shapes plus the weight — three
  times the SS-tree entry, capacity 20 (the "fanout problem" of
  Section 5.3).

:class:`NodeLayout` encodes these rules once; every index family
instantiates it with the flags matching its entry contents.

It also holds the page offsets of every entry block, and those depend on
the node's capacity, never on its count.  A leaf's point block is
``leaf_capacity`` rows long and its data areas follow it; an internal
node's ``child_ids``, ``weights``, ``lows``, ``highs``, ``centers`` and
``radii`` blocks are each ``node_capacity_for(extent)`` rows long, in
that order, after the header and the continuation pointers.  Appending an
entry therefore moves no byte behind it: a write changes the rows it
touched and the count, and the write-ahead log's delta says just that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .constants import (
    COORD_SIZE,
    COUNT_SIZE,
    DEFAULT_LEAF_DATA_SIZE,
    DEFAULT_PAGE_SIZE,
    NODE_HEADER_SIZE,
    POINTER_SIZE,
)

__all__ = ["NodeBlocks", "NodeLayout"]


class NodeBlocks(NamedTuple):
    """Byte offsets of an internal node's entry blocks in its page image.

    Each block is ``capacity`` rows long; an offset is ``None`` for a
    block the index family does not carry.
    """

    capacity: int
    child_ids: int
    weights: int | None
    lows: int | None
    highs: int | None
    centers: int | None
    radii: int | None


@dataclass(frozen=True)
class NodeLayout:
    """Byte layout of a single index family's pages.

    Parameters
    ----------
    dims:
        Dimensionality of the indexed points.
    has_rects / has_spheres / has_weights:
        Which components a node entry carries (see module docstring).
    page_size:
        Page size in bytes (paper default: 8192).
    leaf_data_size:
        Bytes reserved per leaf entry for the user payload (paper: 512).
    """

    dims: int
    has_rects: bool
    has_spheres: bool
    has_weights: bool
    page_size: int = DEFAULT_PAGE_SIZE
    leaf_data_size: int = DEFAULT_LEAF_DATA_SIZE

    def __post_init__(self) -> None:
        if self.dims < 1:
            raise ValueError(f"dimensionality must be >= 1, got {self.dims}")
        if not (self.has_rects or self.has_spheres):
            raise ValueError("a node entry needs at least one bounding shape")
        if self.leaf_capacity < 2:
            raise ValueError(
                f"page size {self.page_size} fits only {self.leaf_capacity} leaf "
                f"entries at D={self.dims}; need at least 2"
            )
        if self.node_capacity < 2:
            raise ValueError(
                f"page size {self.page_size} fits only {self.node_capacity} node "
                f"entries at D={self.dims}; need at least 2"
            )

    @property
    def leaf_entry_size(self) -> int:
        """Bytes per leaf entry: the point plus the fixed data area."""
        return COORD_SIZE * self.dims + self.leaf_data_size

    @property
    def node_entry_size(self) -> int:
        """Bytes per internal-node entry for this index family."""
        size = POINTER_SIZE
        if self.has_rects:
            size += 2 * COORD_SIZE * self.dims
        if self.has_spheres:
            size += COORD_SIZE * self.dims + COORD_SIZE
        if self.has_weights:
            size += COUNT_SIZE
        return size

    @property
    def leaf_capacity(self) -> int:
        """Maximum entries in a leaf (the paper's :math:`M_L`)."""
        return (self.page_size - NODE_HEADER_SIZE) // self.leaf_entry_size

    @property
    def node_capacity(self) -> int:
        """Maximum entries in an internal node (the paper's :math:`M_N`)."""
        return self.node_capacity_for(1)

    def node_capacity_for(self, extent: int) -> int:
        """Maximum entries in a supernode spanning ``extent`` pages.

        The first page carries the header and the continuation page
        pointers; an X-tree-style supernode (see
        :class:`repro.indexes.srx.SRXTree`) therefore holds slightly
        less than ``extent`` times the base capacity.
        """
        if extent < 1:
            raise ValueError(f"extent must be >= 1, got {extent}")
        usable = (
            self.page_size * extent
            - NODE_HEADER_SIZE
            - POINTER_SIZE * (extent - 1)
        )
        return usable // self.node_entry_size

    @property
    def leaf_data_offset(self) -> int:
        """Offset of a leaf's first data area: after ``leaf_capacity`` points.

        The point block starts right after the header.
        """
        return NODE_HEADER_SIZE + COORD_SIZE * self.dims * self.leaf_capacity

    def node_blocks(self, extent: int) -> NodeBlocks:
        """Offsets of the entry blocks of an internal node of ``extent`` pages."""
        rows = self.node_capacity_for(extent)
        vector = COORD_SIZE * self.dims * rows
        sizes = (
            POINTER_SIZE * rows,
            COUNT_SIZE * rows if self.has_weights else 0,
            vector if self.has_rects else 0,
            vector if self.has_rects else 0,
            vector if self.has_spheres else 0,
            COORD_SIZE * rows if self.has_spheres else 0,
        )
        offset = NODE_HEADER_SIZE + POINTER_SIZE * (extent - 1)
        offsets = []
        for size in sizes:
            offsets.append(offset if size else None)
            offset += size
        return NodeBlocks(rows, *offsets)

    def min_fill(self, capacity: int, utilization: float = 0.4) -> int:
        """Minimum entry count for the given capacity.

        The paper sets the minimum utilization of each block to 40 % for
        every index; the result is clamped so that a split into two
        minimum-fill groups is always possible.
        """
        if not 0.0 < utilization <= 0.5:
            raise ValueError(f"utilization must be in (0, 0.5], got {utilization}")
        minimum = int(capacity * utilization)
        return max(1, min(minimum, (capacity + 1) // 2))
