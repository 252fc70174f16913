"""Query algorithms shared by every index structure.

* :mod:`~repro.search.knn` — the Roussopoulos–Kelley–Vincent depth-first
  branch-and-bound k-nearest-neighbor search the paper uses throughout;
* :mod:`~repro.search.incremental` — Hjaltason & Samet's best-first,
  distance-ranked iteration (``iter_nearest``);
* :mod:`~repro.search.range` — ball (range) queries.
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
