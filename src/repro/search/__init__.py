"""Query algorithms shared by every index structure: one traversal per
query kind, each started from the index's top pages
(:meth:`~repro.indexes.base.SpatialIndex.top_ids` — a tree's root, or
every page of the linear scan's chain, which therefore defines no query
of its own).

* :mod:`~repro.search.knn` — the Roussopoulos–Kelley–Vincent depth-first
  branch-and-bound k-nearest-neighbor search the paper uses throughout:
  its candidate heap, and the query as a block of one of
  :func:`repro.exec.batch.depth_first`, the one depth-first traversal;
* :mod:`~repro.search.range` — ball (range) queries: that search with
  its bound held at the radius, reading children in MINDIST order;
* :mod:`~repro.search.incremental` — Hjaltason & Samet's best-first,
  distance-ranked iteration (``iter_nearest``);
* :mod:`~repro.search.window` — box (window) queries: the same
  depth-first search on a block of one box, each entry priced 0 when
  it meets the box and infinity when it misses.
"""

from .incremental import iter_nearest
from .knn import KnnCandidates, knn_search
from .range import range_search
from .window import window_search

__all__ = [
    "KnnCandidates",
    "iter_nearest",
    "knn_search",
    "range_search",
    "window_search",
]
