"""Range (ball) queries: every point within a radius of the query.

A range query is the k-NN search of :mod:`repro.search.knn` with a
collector whose pruning bound stays at the radius: the same depth-first
traversal (a block of one of :func:`repro.exec.batch.depth_first`), the
same per-family MINDIST, the same visit/prune trace events, so children
are read in MINDIST order.
"""

from __future__ import annotations

import numpy as np

from ..indexes.base import Neighbor

__all__ = ["range_search", "RangeCandidates"]


class RangeCandidates:
    """Every candidate at or within ``radius``; the bound never moves."""

    def __init__(self, radius: float) -> None:
        self.bound = radius
        self._hits: list[tuple] = []

    def offer_batch(self, distances: np.ndarray, points: np.ndarray, values,
                    page_id: int) -> None:
        """Keep a ``(distance, page, slot, point, value)`` hit for each
        entry of leaf ``page_id`` within the radius."""
        hits = self._hits
        for i in np.flatnonzero(distances <= self.bound).tolist():
            hits.append((float(distances[i]), page_id, i, points[i].copy(),
                         values[i]))

    def results(self) -> list[Neighbor]:
        """The hits as :class:`Neighbor` objects in ``(distance, page,
        slot)`` order: the k-NN order, so a range answer's first ``k``
        are the ``k`` nearest."""
        self._hits.sort(key=lambda hit: hit[:3])
        return [Neighbor(d, point, value) for d, _, _, point, value in self._hits]


def range_search(index, point: np.ndarray, radius: float) -> list[Neighbor]:
    """All stored points with Euclidean distance <= ``radius``, closest first."""
    from ..exec.batch import depth_first

    return depth_first(index, point[None], [RangeCandidates(radius)])[0]
