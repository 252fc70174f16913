"""The index structures: the SR-tree and every baseline the paper uses.

* :class:`~repro.indexes.srtree.SRTree` — the paper's contribution;
* :class:`~repro.indexes.sstree.SSTree` — sphere regions (White & Jain);
* :class:`~repro.indexes.rstar.RStarTree` — rectangle regions (Beckmann et al.);
* :class:`~repro.indexes.kdb.KDBTree` — disjoint partitioning (Robinson);
* :class:`~repro.indexes.vamsplit.VAMSplitRTree` — static optimized baseline;
* :class:`~repro.indexes.linear.LinearScan` — exact brute force.
"""

from .base import Entry, Neighbor, SpatialIndex
from .bulk import bulk_load
from .factory import INDEX_KINDS, build_index, make_index
from .kdb import KDBTree
from .linear import LinearScan
from .rstar import RStarTree
from .rtree import RTree
from .srtree import SRTree
from .srx import SRXTree
from .sstree import SSTree
from .vamsplit import VAMSplitRTree

__all__ = [
    "Entry",
    "INDEX_KINDS",
    "KDBTree",
    "LinearScan",
    "Neighbor",
    "RStarTree",
    "RTree",
    "SRTree",
    "SRXTree",
    "SSTree",
    "SpatialIndex",
    "VAMSplitRTree",
    "build_index",
    "bulk_load",
    "make_index",
]
