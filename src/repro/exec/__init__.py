"""Batched query execution engine.

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
* :class:`~repro.exec.ServingPool` serves one saved index file from
  several worker **processes**, each reading the file read-only through
  its own buffer pool; a worker that times out or dies is killed and
  respawned (:mod:`repro.exec.procpool`, which also states the
  fault-handling policy).  A live :class:`~repro.api.Database` is not
  a pool source: one
  ``db.snapshot()``, refreshed with ``Snapshot.refresh()`` before each
  ``knn_batch`` call, answers every call from one committed epoch.

Together with the page decode
(:class:`~repro.storage.serializer.NodeCodec`), this is the path the
ledger's ``uniform_batch`` and ``uniform_pool`` workloads measure (see
``docs/PERFORMANCE.md``).
"""

from .batch import DEFAULT_BLOCK_SIZE, batch_knn, batch_range
from .procpool import ProcessServingPool, ServingPool

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "ProcessServingPool",
    "ServingPool",
    "batch_knn",
    "batch_range",
]
