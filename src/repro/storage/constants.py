"""Storage-level constants matching the paper's experimental setup.

The paper (Section 3.1) sets the node/leaf size to 8192 bytes — the disk
block size of the Solaris machine used — and reserves a 512-byte data
area for each leaf entry.  Coordinates are 8-byte floats; child pointers
and point counts are 4-byte integers, which reproduces the fanouts of the
paper's Table 1 (leaf capacity 12 at D = 16; node capacities of roughly
56 / 31 / 20 for the SS- / R*- / SR-tree).
"""

from __future__ import annotations

DEFAULT_PAGE_SIZE = 8192
"""Default page (disk block) size in bytes, as in the paper."""

DEFAULT_LEAF_DATA_SIZE = 512
"""Bytes reserved per leaf entry for the user payload, as in the paper."""

MIN_LEAF_DATA_SIZE = 12
"""Smallest data area: a plain ``int`` payload is stored in place as a
4-byte flagged length prefix and an 8-byte int64."""

COORD_SIZE = 8
"""Bytes per coordinate (float64)."""

POINTER_SIZE = 4
"""Bytes per child-page pointer (uint32)."""

COUNT_SIZE = 4
"""Bytes per subtree point count (uint32)."""

NODE_HEADER_SIZE = 12
"""Bytes of node header: kind (1), flags (1), level (2), entry count (4),
page extent (2), reserved (2).  The extent supports X-tree-style
supernodes spanning several contiguous-by-reference pages."""

MAX_NODE_EXTENT = 8
"""Upper bound on supernode size, in pages."""

META_PAGE_ID = 0
"""Page 0 of every page file is reserved for index metadata."""
