"""In-memory node objects — the deserialized form of a page.

Both node kinds hold their entries in pre-allocated numpy arrays sized
``capacity + 1``: the extra slot lets an overflowing insert land in the
node *before* the split/reinsertion logic runs, exactly like the classic
R-tree formulation ("add the new entry, then split the M+1 entries").

A :class:`LeafNode` stores points plus an opaque per-point value.  An
:class:`InternalNode` stores one entry per child; which region arrays are
present depends on the index family (rectangles for the R*-tree family,
spheres for the SS-tree, both for the SR-tree), governed by the
:class:`~repro.storage.layout.NodeLayout`.

**Zero-copy decode.**  Nodes deserialized by the page codec arrive
*frozen*: their entry arrays are read-only ``np.frombuffer`` views that
alias the page image instead of copies (see
:class:`~repro.storage.serializer.NodeCodec`).  Reads — the entire
search path — work on the views directly.  The first mutation calls
:meth:`ensure_mutable`, which materializes the usual pre-allocated
``capacity + 1`` arrays (copy-on-write); the handful of call sites that
poke entry arrays directly must call :meth:`ensure_mutable` themselves.
"""

from __future__ import annotations

import numpy as np

__all__ = ["LeafNode", "InternalNode"]

LEAF_LEVEL = 0


class LeafNode:
    """A leaf page: up to ``capacity`` (point, value) entries.

    Attributes
    ----------
    page_id:
        The page this node is stored in.
    points:
        ``(capacity + 1, D)`` float64 array; rows ``[:count]`` are live.
    values:
        Python list of opaque payloads, parallel to ``points``.
    reinserted:
        SS-/SR-tree overflow bookkeeping: set once this node has shed
        entries through forced reinsertion; cleared by a split.
    """

    __slots__ = ("page_id", "dims", "capacity", "count", "points", "values",
                 "reinserted", "frozen")

    def __init__(self, page_id: int, dims: int, capacity: int) -> None:
        self.page_id = page_id
        self.dims = dims
        self.capacity = capacity
        self.count = 0
        self.points = np.empty((capacity + 1, dims), dtype=np.float64)
        self.values: list[object] = []
        self.reinserted = False
        #: True while the entry arrays are read-only views over the page
        #: image (zero-copy decode); cleared by :meth:`ensure_mutable`.
        self.frozen = False

    @classmethod
    def from_views(cls, page_id: int, dims: int, capacity: int, count: int,
                   points: np.ndarray, values: list[object]) -> "LeafNode":
        """Build a frozen leaf whose point rows alias a page image.

        ``points`` is a read-only ``(count, dims)`` view; no data is
        copied until the node is mutated.
        """
        leaf = cls.__new__(cls)
        leaf.page_id = page_id
        leaf.dims = dims
        leaf.capacity = capacity
        leaf.count = count
        leaf.points = points
        leaf.values = values
        leaf.reinserted = False
        leaf.frozen = True
        return leaf

    def ensure_mutable(self) -> None:
        """Materialize writable ``capacity + 1`` arrays (copy-on-write)."""
        if not self.frozen:
            return
        points = np.empty((self.capacity + 1, self.dims), dtype=np.float64)
        points[: self.count] = self.points[: self.count]
        self.points = points
        self.frozen = False

    @property
    def is_leaf(self) -> bool:
        return True

    @property
    def level(self) -> int:
        return LEAF_LEVEL

    @property
    def extent(self) -> int:
        """Leaves always occupy exactly one page."""
        return 1

    @property
    def all_page_ids(self) -> list[int]:
        """Every page id the node occupies (just the one, for a leaf)."""
        return [self.page_id]

    @property
    def weight(self) -> int:
        """Number of points in the subtree rooted here (== count for a leaf)."""
        return self.count

    @property
    def live_points(self) -> np.ndarray:
        """View of the live point rows."""
        return self.points[: self.count]

    def add(self, point: np.ndarray, value: object) -> None:
        """Append an entry; the caller handles overflow (count may reach capacity + 1)."""
        if self.count > self.capacity:
            raise ValueError("leaf already holds an overflow entry")
        self.ensure_mutable()
        self.points[self.count] = point
        self.values.append(value)
        self.count += 1

    def remove_at(self, index: int) -> tuple[np.ndarray, object]:
        """Remove and return the entry at ``index`` (order not preserved)."""
        if not 0 <= index < self.count:
            raise IndexError(index)
        self.ensure_mutable()
        point = self.points[index].copy()
        value = self.values[index]
        last = self.count - 1
        if index != last:
            self.points[index] = self.points[last]
            self.values[index] = self.values[last]
        self.values.pop()
        self.count = last
        return point, value

    def take_all(self) -> tuple[np.ndarray, list[object]]:
        """Remove and return every entry (used by splits)."""
        points = self.points[: self.count].copy()
        values = list(self.values)
        self.count = 0
        self.values = []
        return points, values

    def __repr__(self) -> str:
        return f"LeafNode(page={self.page_id}, count={self.count}/{self.capacity})"


class InternalNode:
    """An internal page: one entry per child subtree.

    Which region arrays are live depends on the index family:

    * ``lows`` / ``highs`` — bounding rectangles (R*, K-D-B, VAMSplit, SR),
    * ``centers`` / ``radii`` — bounding spheres (SS, SR),
    * ``weights`` — subtree point counts (SS, SR).

    Unused arrays are ``None``.  All arrays have ``capacity + 1`` rows for
    the same overflow-slot reason as :class:`LeafNode`.
    """

    __slots__ = (
        "page_id",
        "dims",
        "capacity",
        "level",
        "count",
        "child_ids",
        "weights",
        "lows",
        "highs",
        "centers",
        "radii",
        "reinserted",
        "extra_pages",
        "frozen",
    )

    def __init__(
        self,
        page_id: int,
        dims: int,
        capacity: int,
        level: int,
        *,
        has_rects: bool,
        has_spheres: bool,
        has_weights: bool,
    ) -> None:
        if level < 1:
            raise ValueError(f"internal node level must be >= 1, got {level}")
        self.page_id = page_id
        self.dims = dims
        self.capacity = capacity
        self.level = level
        self.count = 0
        rows = capacity + 1
        self.child_ids = np.zeros(rows, dtype=np.int64)
        self.weights = np.zeros(rows, dtype=np.int64) if has_weights else None
        self.lows = np.empty((rows, dims), dtype=np.float64) if has_rects else None
        self.highs = np.empty((rows, dims), dtype=np.float64) if has_rects else None
        self.centers = np.empty((rows, dims), dtype=np.float64) if has_spheres else None
        self.radii = np.empty(rows, dtype=np.float64) if has_spheres else None
        self.reinserted = False
        # Continuation pages of an X-tree-style supernode (empty for an
        # ordinary single-page node).
        self.extra_pages: list[int] = []
        #: True while the entry arrays are read-only views over the page
        #: image (zero-copy decode); cleared by :meth:`ensure_mutable`.
        self.frozen = False

    @classmethod
    def from_views(
        cls,
        page_id: int,
        dims: int,
        capacity: int,
        level: int,
        count: int,
        child_ids: np.ndarray,
        weights: np.ndarray | None,
        lows: np.ndarray | None,
        highs: np.ndarray | None,
        centers: np.ndarray | None,
        radii: np.ndarray | None,
        extra_pages: list[int],
    ) -> "InternalNode":
        """Build a frozen internal node whose entry arrays alias a page image.

        All arrays are read-only ``(count, ...)`` views (``child_ids`` and
        ``weights`` may be narrower integer dtypes than the canonical
        int64); nothing is copied until the node is mutated.
        """
        node = cls.__new__(cls)
        node.page_id = page_id
        node.dims = dims
        node.capacity = capacity
        node.level = level
        node.count = count
        node.child_ids = child_ids
        node.weights = weights
        node.lows = lows
        node.highs = highs
        node.centers = centers
        node.radii = radii
        node.reinserted = False
        node.extra_pages = extra_pages
        node.frozen = True
        return node

    def ensure_mutable(self) -> None:
        """Materialize writable ``capacity + 1`` arrays (copy-on-write)."""
        if not self.frozen:
            return
        rows = self.capacity + 1
        n = self.count
        child_ids = np.zeros(rows, dtype=np.int64)
        child_ids[:n] = self.child_ids[:n]
        self.child_ids = child_ids
        if self.weights is not None:
            weights = np.zeros(rows, dtype=np.int64)
            weights[:n] = self.weights[:n]
            self.weights = weights
        if self.lows is not None:
            lows = np.empty((rows, self.dims), dtype=np.float64)
            highs = np.empty((rows, self.dims), dtype=np.float64)
            lows[:n] = self.lows[:n]
            highs[:n] = self.highs[:n]
            self.lows = lows
            self.highs = highs
        if self.centers is not None:
            centers = np.empty((rows, self.dims), dtype=np.float64)
            radii = np.empty(rows, dtype=np.float64)
            centers[:n] = self.centers[:n]
            radii[:n] = self.radii[:n]
            self.centers = centers
            self.radii = radii
        self.frozen = False

    @property
    def is_leaf(self) -> bool:
        return False

    @property
    def extent(self) -> int:
        """Number of pages this node occupies (1 + continuation pages)."""
        return 1 + len(self.extra_pages)

    @property
    def all_page_ids(self) -> list[int]:
        """Every page id the node occupies, primary first."""
        return [self.page_id, *self.extra_pages]

    @property
    def has_rects(self) -> bool:
        return self.lows is not None

    @property
    def has_spheres(self) -> bool:
        return self.centers is not None

    @property
    def has_weights(self) -> bool:
        return self.weights is not None

    @property
    def weight(self) -> int:
        """Total number of points beneath this node (requires weights)."""
        if self.weights is None:
            raise AttributeError("this index family does not track subtree weights")
        return int(self.weights[: self.count].sum())

    def add(
        self,
        child_id: int,
        *,
        low: np.ndarray | None = None,
        high: np.ndarray | None = None,
        center: np.ndarray | None = None,
        radius: float | None = None,
        weight: int | None = None,
    ) -> None:
        """Append a child entry; the caller handles overflow."""
        if self.count > self.capacity:
            raise ValueError("node already holds an overflow entry")
        self.ensure_mutable()
        i = self.count
        self.child_ids[i] = child_id
        if self.lows is not None:
            if low is None or high is None:
                raise ValueError("this index family requires rectangle bounds")
            self.lows[i] = low
            self.highs[i] = high
        if self.centers is not None:
            if center is None or radius is None:
                raise ValueError("this index family requires a bounding sphere")
            self.centers[i] = center
            self.radii[i] = radius
        if self.weights is not None:
            if weight is None:
                raise ValueError("this index family requires subtree weights")
            self.weights[i] = weight
        self.count += 1

    def remove_at(self, index: int) -> None:
        """Remove the entry at ``index`` (order not preserved)."""
        if not 0 <= index < self.count:
            raise IndexError(index)
        self.ensure_mutable()
        last = self.count - 1
        if index != last:
            self.child_ids[index] = self.child_ids[last]
            if self.weights is not None:
                self.weights[index] = self.weights[last]
            if self.lows is not None:
                self.lows[index] = self.lows[last]
                self.highs[index] = self.highs[last]
            if self.centers is not None:
                self.centers[index] = self.centers[last]
                self.radii[index] = self.radii[last]
        self.count = last

    def find_child(self, child_id: int) -> int:
        """Index of the entry pointing at ``child_id``; raises if absent."""
        try:
            return self.child_ids[: self.count].tolist().index(child_id)
        except ValueError:
            raise KeyError(
                f"child page {child_id} not found in node {self.page_id}"
            ) from None

    def __repr__(self) -> str:
        return (
            f"InternalNode(page={self.page_id}, level={self.level}, "
            f"count={self.count}/{self.capacity})"
        )
