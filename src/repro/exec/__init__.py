"""Batched query execution engine.

The one depth-first search, and the pool that serves it:

* :func:`~repro.exec.batch.depth_first` traverses the tree once per
  *block* of queries, pricing every entry of a visited node for the
  whole block in one numpy pass — a ``(Q, children)`` MINDIST matrix
  (:meth:`~repro.indexes.base.SpatialIndex.child_mindists_batch`) and a
  ``(Q, count)`` leaf distance matrix
  (:func:`~repro.geometry.point.cross_distances`), or a window's
  meets-or-misses — with a pruning bound per query.
  :func:`~repro.exec.batch.batch_knn` / :func:`~repro.exec.batch.batch_range`
  run it over blocks, and a single k-NN, range or window query of
  :mod:`repro.search` is a block of one;
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
