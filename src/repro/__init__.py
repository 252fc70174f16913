"""repro — the SR-tree and its baselines, reproduced from the paper.

A production-quality reproduction of *Katayama & Satoh, "The SR-tree:
An Index Structure for High-Dimensional Nearest Neighbor Queries",
SIGMOD 1997*: five disk-based multidimensional index structures over a
paged storage engine, the workloads and measurements of the paper's
evaluation, and a benchmark harness regenerating every table and figure.

Quickstart::

    import numpy as np
    from repro import SRTree

    data = np.random.default_rng(0).random((1000, 16))
    tree = SRTree(dims=16)
    tree.load(data)

    for neighbor in tree.nearest(data[0], k=5):
        print(neighbor.distance, neighbor.value)

See ``examples/`` for complete programs and ``DESIGN.md`` for the
architecture and the per-experiment index.
"""

from .api import Database, QuerySurface, Snapshot
from .exec import ServingPool
from .exceptions import (
    ChecksumError,
    CrashError,
    DeadlineExceededError,
    DimensionalityError,
    EmptyIndexError,
    InvariantViolationError,
    KeyNotFoundError,
    NetError,
    RemoteError,
    ReproError,
    ServerOverloadedError,
    ShardLostError,
    StorageError,
    TransientIOError,
    WALError,
    WorkloadError,
)
from .indexes import (
    INDEX_KINDS,
    KDBTree,
    LinearScan,
    Neighbor,
    RStarTree,
    RTree,
    SRTree,
    SRXTree,
    SSTree,
    SpatialIndex,
    VAMSplitRTree,
    build_index,
    bulk_load,
    make_index,
)
from .obs import REGISTRY, MetricsRegistry, explain, render, trace
from .storage import IOStats
from .workloads import (
    PAPER_K,
    cluster_dataset,
    histogram_dataset,
    sample_queries,
    uniform_dataset,
)

__version__ = "1.0.0"

__all__ = [
    "ChecksumError",
    "CrashError",
    "Database",
    "DeadlineExceededError",
    "DimensionalityError",
    "EmptyIndexError",
    "INDEX_KINDS",
    "IOStats",
    "InvariantViolationError",
    "KDBTree",
    "KeyNotFoundError",
    "LinearScan",
    "MetricsRegistry",
    "Neighbor",
    "NetError",
    "PAPER_K",
    "QueryServer",
    "QuerySurface",
    "REGISTRY",
    "RStarTree",
    "RTree",
    "RemoteDatabase",
    "RemoteError",
    "ReproError",
    "SRTree",
    "SRXTree",
    "SSTree",
    "ServerOverloadedError",
    "ServingPool",
    "ShardLostError",
    "Snapshot",
    "SpatialIndex",
    "StorageError",
    "TransientIOError",
    "VAMSplitRTree",
    "WALError",
    "WorkloadError",
    "__version__",
    "build_index",
    "bulk_load",
    "cluster_dataset",
    "explain",
    "histogram_dataset",
    "make_index",
    "render",
    "sample_queries",
    "trace",
    "uniform_dataset",
]


def __getattr__(name: str):
    # The network pair resolves on first use, so a process that never
    # serves or queries over HTTP (a pool worker, ``repro build``) never
    # loads repro.net and its socket stack.
    if name in ("QueryServer", "RemoteDatabase"):
        from . import net

        return getattr(net, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
