"""Linear scan: the exact brute-force baseline.

Stores points in a flat chain of leaf pages.  It defines no query of
its own: its top pages (:meth:`LinearScan.top_ids`) are the whole
chain, so every traversal of :mod:`repro.search` and
:mod:`repro.exec.batch` starts at every leaf and reads each page once
per query.  It is the ground truth the test suite verifies the tree
indexes against, and the "no index" cost reference: its page reads per
query equal the total number of leaf pages.
"""

from __future__ import annotations

from ..exceptions import InvariantViolationError
from .base import SpatialIndex

__all__ = ["LinearScan"]


class LinearScan(SpatialIndex):
    """Brute-force index over a chain of leaf pages."""

    NAME = "linear"
    HAS_RECTS = True  # layout only; no internal nodes are ever created
    HAS_SPHERES = False
    HAS_WEIGHTS = False

    def __init__(self, dims: int, **kwargs) -> None:
        super().__init__(dims, **kwargs)
        self._leaf_ids: list[int] = [self._root_id]

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def _insert_point(self, point, value: object = None) -> None:
        """Append a point to the tail page, opening a new page when full."""
        tail = self.read_node(self._leaf_ids[-1])
        if tail.count >= tail.capacity:
            tail = self._store.new_leaf()
            self._leaf_ids.append(tail.page_id)
        tail.add(point.copy(), value)
        self._store.write(tail)
        self._size += 1

    def _mutation_snapshot(self):
        return (super()._mutation_snapshot(), list(self._leaf_ids))

    def _restore_mutation_snapshot(self, snapshot) -> None:
        base_snapshot, leaf_ids = snapshot
        super()._restore_mutation_snapshot(base_snapshot)
        self._leaf_ids = leaf_ids

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def _extra_meta(self) -> dict:
        return {"leaf_ids": list(self._leaf_ids)}

    def _restore_extra(self, meta: dict) -> None:
        self._leaf_ids = list(meta["leaf_ids"])

    # ------------------------------------------------------------------
    # walking
    # ------------------------------------------------------------------

    def top_ids(self) -> list[int]:
        """Every page of the chain: each query starts at every leaf."""
        return list(self._leaf_ids)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Every page of the chain is a leaf within capacity, and their
        counts sum to the stored size."""
        total = 0
        for node in self.iter_nodes():
            if not node.is_leaf or node.count > node.capacity:
                raise InvariantViolationError(
                    f"page {node.page_id} of the chain is not a leaf "
                    f"within capacity")
            total += node.count
        if total != self._size:
            raise InvariantViolationError(
                f"the chain holds {total} points, size says {self._size}")
