"""Batched, zero-copy query execution engine.

The per-query search code in :mod:`repro.search` prices one query
against one node at a time.  This package amortizes that work across a
whole *block* of queries:

* :func:`~repro.exec.batch.batch_knn` / :func:`~repro.exec.batch.batch_range`
  traverse the tree once per block, computing a ``(Q, children)``
  MINDIST matrix per visited node
  (:meth:`~repro.indexes.base.SpatialIndex.child_mindists_batch`) and a
  ``(Q, count)`` leaf distance matrix
  (:func:`~repro.geometry.point.cross_distances`) in single numpy
  passes, with per-query pruning bounds kept in a NumPy array;
* :class:`~repro.exec.parallel.ServingPool` serves one index from
  several workers, each with its own buffer pool.  It is **one core,
  two sets of worker primitives**: the query surface, sharding, the
  deadline-bounded gather, degradation accounting and the worker-side
  block runner exist once (:mod:`repro.exec.parallel`, which also
  states the fault-handling policy and when to choose which backend);
  a backend only says how a shard reaches a worker and what happens to
  a worker that failed — threads that are quarantined
  (:class:`~repro.exec.parallel.ServingPool`, the only backend for a
  live database) or, with ``backend="process"``, processes over one
  shared memory-mapped copy of the file that are killed and respawned
  (:class:`~repro.exec.procpool.ProcessServingPool`), which is what
  actually scales with cores.

Together with the zero-copy page decode
(:class:`~repro.storage.serializer.NodeCodec`), this is the path the
ledger's ``uniform_batch`` and ``uniform_pool`` workloads measure (see
``docs/PERFORMANCE.md``).
"""

from .batch import DEFAULT_BLOCK_SIZE, batch_knn, batch_range
from .parallel import ServingPool
from .procpool import ProcessServingPool

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "ProcessServingPool",
    "ServingPool",
    "batch_knn",
    "batch_range",
]
