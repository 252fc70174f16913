"""Paged storage engine.

This package is the "disk" of the reproduction: fixed-size pages
(default 8192 bytes, as in the paper), binary node serialization whose
entry sizes reproduce the paper's fanouts, a SIEVE buffer pool with pin
counts, and read/write counters split by tree level.  Every index family
performs all node I/O through a :class:`~repro.storage.store.NodeStore`,
which makes the "number of disk reads" metric directly comparable across
index structures.
"""

from .buffer import BufferPool
from .checksums import CHECKSUM_TRAILER_SIZE, ChecksumPageFile
from .constants import (
    DEFAULT_LEAF_DATA_SIZE,
    DEFAULT_PAGE_SIZE,
    META_PAGE_ID,
)
from .faults import FaultInjectingPageFile, FaultPlan
from .layout import NodeLayout
from .nodes import InternalNode, LeafNode
from .pagefile import FilePageFile, InMemoryPageFile, MmapPageFile, PageFile
from .serializer import NodeCodec
from .snapshot import SnapshotStore, open_snapshot_store
from .stack import open_existing, open_pagefile, wal_path
from .stats import IOStats
from .store import DEFAULT_BUFFER_CAPACITY, NodeStore
from .wal import (
    RecoveryReport,
    WriteAheadLog,
    open_wal,
    recover,
    scan_wal,
)

__all__ = [
    "BufferPool",
    "CHECKSUM_TRAILER_SIZE",
    "ChecksumPageFile",
    "DEFAULT_BUFFER_CAPACITY",
    "DEFAULT_LEAF_DATA_SIZE",
    "DEFAULT_PAGE_SIZE",
    "FaultInjectingPageFile",
    "FaultPlan",
    "FilePageFile",
    "IOStats",
    "InMemoryPageFile",
    "InternalNode",
    "LeafNode",
    "META_PAGE_ID",
    "MmapPageFile",
    "NodeCodec",
    "NodeLayout",
    "NodeStore",
    "PageFile",
    "RecoveryReport",
    "SnapshotStore",
    "WriteAheadLog",
    "open_existing",
    "open_pagefile",
    "open_snapshot_store",
    "open_wal",
    "recover",
    "scan_wal",
    "wal_path",
]
