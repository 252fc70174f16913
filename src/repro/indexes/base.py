"""Shared index machinery: results, child entries, and the base class.

:class:`SpatialIndex` owns the node store and provides everything common
to all five index structures — metadata, tree walking, query entry
points (delegating to :mod:`repro.search`), persistence, and statistics.
It also states the region rules once — bounding rectangle, centroid
sphere, parent-bounds-child and MINDIST, keyed by the ``HAS_RECTS`` /
``HAS_SPHERES`` flags that fix the page layout.  Subclasses implement
the construction algorithms.
"""

from __future__ import annotations

import math
import time
from abc import ABC, abstractmethod
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from ..exceptions import EmptyIndexError, InvariantViolationError, StorageError
from ..geometry import (
    as_point,
    as_points,
    farthest_point_rects,
    mindist_points_rects,
    mindist_points_spheres,
)
from ..obs.hooks import (
    observed_query,
    on_build,
    on_epoch_published,
    on_flush,
    on_snapshot_refresh,
)
from ..storage import (
    DEFAULT_BUFFER_CAPACITY,
    DEFAULT_LEAF_DATA_SIZE,
    DEFAULT_PAGE_SIZE,
    InternalNode,
    IOStats,
    LeafNode,
    NodeLayout,
    NodeStore,
    PageFile,
    WriteAheadLog,
)

__all__ = ["Neighbor", "Entry", "SpatialIndex"]

#: Slack the containment checks allow a stored bound.
_BOUND_EPS = 1e-9


def _plain(value):
    """A numpy scalar payload as its Python scalar (``np.int64`` -> ``int``),
    so every handle stores and returns the same values."""
    return value.item() if isinstance(value, np.generic) else value


@dataclass(frozen=True)
class Neighbor:
    """One query result: a point, its payload, and its distance."""

    distance: float
    point: np.ndarray
    value: object

    def __iter__(self):
        """Allow ``dist, point, value = neighbor`` unpacking."""
        return iter((self.distance, self.point, self.value))


@dataclass
class Entry:
    """A child entry in transit (reinsertion, orphan handling, splits).

    For a data point, ``child_id`` is ``None``, ``point``/``value`` are
    set, and the region fields degenerate to the point itself.  For a
    subtree, ``child_id`` points at the child page and the region fields
    describe it in whichever shapes the index family maintains.
    """

    child_id: int | None
    center: np.ndarray
    radius: float = 0.0
    low: np.ndarray | None = None
    high: np.ndarray | None = None
    weight: int = 1
    point: np.ndarray | None = None
    value: object = None

    @classmethod
    def for_point(cls, point: np.ndarray, value: object) -> "Entry":
        """Entry wrapping a raw data point."""
        return cls(
            child_id=None,
            center=point,
            radius=0.0,
            low=point,
            high=point,
            weight=1,
            point=point,
            value=value,
        )

    @property
    def is_point(self) -> bool:
        return self.child_id is None


@dataclass
class _IndexConfig:
    """Construction-time knobs shared by every index family."""

    page_size: int = DEFAULT_PAGE_SIZE
    leaf_data_size: int = DEFAULT_LEAF_DATA_SIZE
    buffer_capacity: int = DEFAULT_BUFFER_CAPACITY
    min_utilization: float = 0.4
    reinsert_fraction: float = 0.3
    extras: dict = field(default_factory=dict)


class SpatialIndex(ABC):
    """Base class for every index structure in the library.

    Subclasses declare their node-entry contents through the class
    attributes ``HAS_RECTS`` / ``HAS_SPHERES`` / ``HAS_WEIGHTS`` (which
    determine the page layout and therefore the fanout, and select the
    region rules below) and implement the abstract construction hooks.
    """

    #: Human-readable name used by the benchmark harness.
    NAME = "index"
    HAS_RECTS = True
    HAS_SPHERES = False
    HAS_WEIGHTS = False

    def __init__(
        self,
        dims: int,
        *,
        page_size: int = DEFAULT_PAGE_SIZE,
        leaf_data_size: int = DEFAULT_LEAF_DATA_SIZE,
        buffer_capacity: int = DEFAULT_BUFFER_CAPACITY,
        min_utilization: float = 0.4,
        reinsert_fraction: float = 0.3,
    ) -> None:
        self._layout = NodeLayout(
            dims=dims,
            has_rects=self.HAS_RECTS,
            has_spheres=self.HAS_SPHERES,
            has_weights=self.HAS_WEIGHTS,
            page_size=page_size,
            leaf_data_size=leaf_data_size,
        )
        # Refuses a utilization outside (0, 0.5] now, not at the first insert.
        self._layout.min_fill(self._layout.leaf_capacity, min_utilization)
        self._attach(NodeStore(self._layout, buffer_capacity=buffer_capacity))
        self._config = _IndexConfig(
            page_size=page_size,
            leaf_data_size=leaf_data_size,
            buffer_capacity=buffer_capacity,
            min_utilization=min_utilization,
            reinsert_fraction=reinsert_fraction,
        )
        self._size = 0
        root = self._store.new_leaf()
        self._root_id = root.page_id
        self._height = 1

    def _attach(self, store) -> None:
        """Adopt ``store``, which settles a node's deferred entries
        (:meth:`_settle`) before it encodes the node."""
        self._store = store
        #: child page id -> (parent, child) node objects, for each row
        #: whose MBR and radius :meth:`_summarize` deferred.
        self._unsettled: dict[int, tuple] = {}
        store.on_encode = self._settle

    # ------------------------------------------------------------------
    # metadata
    # ------------------------------------------------------------------

    @property
    def dims(self) -> int:
        """Dimensionality of the indexed points."""
        return self._layout.dims

    @property
    def size(self) -> int:
        """Number of points currently stored."""
        return self._size

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        """Number of levels, counting the leaf level (a fresh index has 1)."""
        return self._height

    @property
    def root_id(self) -> int:
        """Page id of the root node."""
        return self._root_id

    @property
    def store(self) -> NodeStore:
        """The node store (exposes the buffer pool and I/O statistics)."""
        return self._store

    @property
    def stats(self) -> IOStats:
        """The live I/O and work counters for this index."""
        return self._store.stats

    @property
    def layout(self) -> NodeLayout:
        """Page layout (fanout) of this index."""
        return self._layout

    @property
    def leaf_capacity(self) -> int:
        """Maximum entries per leaf (the paper's Table 1 leaf column)."""
        return self._layout.leaf_capacity

    @property
    def node_capacity(self) -> int:
        """Maximum entries per internal node (the paper's Table 1 node column)."""
        return self._layout.node_capacity

    @property
    def leaf_min_fill(self) -> int:
        """Minimum entries in a non-root leaf (40 % utilization)."""
        return self._layout.min_fill(self._layout.leaf_capacity,
                                     self._config.min_utilization)

    @property
    def node_min_fill(self) -> int:
        """Minimum entries in a non-root internal node."""
        return self._layout.min_fill(self._layout.node_capacity,
                                     self._config.min_utilization)

    # ------------------------------------------------------------------
    # abstract construction / search hooks
    # ------------------------------------------------------------------

    def insert(self, point, value: object = None) -> None:
        """Insert a point with an optional payload.

        When the store carries a write-ahead log, the whole insertion —
        every page it touches plus the updated metadata — commits as one
        transaction: a crash at any moment leaves the index at either
        the previous or the new state, never in between.  Without a WAL
        the mutation is applied directly (the original, faster path).
        A numpy scalar ``value`` is stored as its Python scalar.  The
        point is checked (:func:`~repro.geometry.as_point`) before any
        transaction opens, so a refused point leaves no trace in the log.
        """
        point, value = as_point(point, self.dims), _plain(value)
        self._durably(lambda: self._insert_point(point, value))

    @abstractmethod
    def _insert_point(self, point, value: object = None) -> None:
        """Family-specific insertion (runs inside the durability wrapper)
        of a checked ``(D,)`` float64 point."""

    def delete(self, point, value: object = ...) -> None:
        """Remove one stored copy of ``point`` (families that support it).

        When ``value`` is given, only an entry carrying an equal payload
        matches.  Raises :class:`~repro.exceptions.KeyNotFoundError`
        when no matching entry exists, and ``NotImplementedError`` on
        static or append-only families.  Runs inside the same WAL
        transaction wrapper as :meth:`insert`, and checks ``point`` as
        it does.
        """
        point = as_point(point, self.dims)
        self._durably(lambda: self._delete_point(point, value))

    def _delete_point(self, point, value: object = ...) -> None:
        """Family-specific deletion (runs inside the durability wrapper)
        of a checked ``(D,)`` float64 point."""
        raise NotImplementedError(
            f"the {self.NAME} index does not support deletion"
        )

    # -- the durability wrapper ----------------------------------------

    def _durably(self, mutate) -> None:
        """Run one mutation, transactionally when a WAL is attached.

        With a WAL: begin, mutate, journal the refreshed metadata,
        commit (flushing every dirty page into the log first), and only
        then let the images reach the data file.  On a failure *before*
        the WAL commit the transaction is rolled back entirely in
        memory — dirty buffers dropped, uncommitted pages discarded, the
        index counters restored from a pre-mutation snapshot — so a
        rejected insert (say, a K-D-B-tree leaf of duplicates that
        cannot split) leaves the index exactly as it was.  A failure
        *after* the WAL commit (the store reports itself
        :attr:`~repro.storage.store.NodeStore.poisoned`) is different:
        the transaction is durable, so rolling it back in
        memory would diverge from what recovery will replay — the
        in-memory state is kept (it *is* the committed state), the
        store refuses further mutations, and the error propagates;
        reopening the index replays the WAL and repairs the data file.

        Either way no entry is left unsettled (:meth:`_settle`) when the
        mutation ends; under a WAL they settle before the metadata is
        journaled, so the commit flushes finished pages.
        """
        store = self._store
        if store.wal is None:
            try:
                mutate()
            finally:
                self._settle()
            return
        snapshot = self._mutation_snapshot()
        store.begin_txn()
        try:
            mutate()
            self._settle()
            store.write_meta(self._meta_dict())
            store.commit_txn()
        except BaseException:
            self._unsettled.clear()  # an abort drops the nodes they name
            if store.poisoned:
                raise  # durably committed; never roll back in memory
            try:
                store.abort_txn()
            except Exception:
                pass  # never mask the original failure
            self._restore_mutation_snapshot(snapshot)
            raise
        on_epoch_published(self.NAME, store.epoch)

    def _mutation_snapshot(self):
        """Index-level counters to restore if a transaction aborts."""
        return (self._root_id, self._height, self._size)

    def _restore_mutation_snapshot(self, snapshot) -> None:
        """Undo counter changes made by an aborted mutation."""
        self._root_id, self._height, self._size = snapshot

    def load(self, points, values=None) -> int:
        """Insert many points (values default to row indices); returns
        how many.

        The one fill path — :meth:`repro.api.Database.insert_many`,
        ``repro build`` and :func:`~repro.indexes.factory.build_index`
        all fill through here — so this is where the points are checked
        (:func:`~repro.geometry.as_points`), a ``values`` list of
        another length is refused before any point goes in, numpy scalar
        values become Python scalars (as in :meth:`insert`), and a fill
        is timed and counted (``repro_builds_total``,
        ``repro_build_seconds``).

        Without a WAL the fill is one mutation: the entries its inserts
        defer settle once, when it returns or raises (:meth:`_settle`),
        and the tree is the one a loop of :meth:`insert` builds.  Under
        a WAL every point is its own transaction, and the static tree's
        build is one.
        """
        points = as_points(points, self.dims)
        if values is not None:
            values = [_plain(value) for value in values]
            if len(values) != points.shape[0]:
                raise ValueError("points and values lengths differ")
        start = time.perf_counter()
        try:
            self._load(points, values)
        finally:
            self._settle()
        on_build(self, points.shape[0], time.perf_counter() - start)
        return points.shape[0]

    def _load(self, points: np.ndarray, values) -> None:
        """Family-specific fill: one insert per point here (a transaction
        each under a WAL), one bulk build on the static tree."""
        if values is None:
            values = range(points.shape[0])
        insert = self._insert_point if self._store.wal is None else self.insert
        for point, value in zip(points, values, strict=True):
            insert(point, value)

    def child_mindists(self, node: InternalNode, point: np.ndarray) -> np.ndarray:
        """Lower-bound distance from ``point`` to each child region of ``node``.

        The Section 4.4 MINDIST for one point, as the best-first search
        and deletion lookups use it: row 0 of
        :meth:`child_mindists_batch` for a block of one.
        """
        return self._region_mindists(node, point[None])[0]

    def child_mindists_batch(
        self, node: InternalNode, points: np.ndarray
    ) -> np.ndarray:
        """``(Q, count)`` MINDIST matrix from each query to each child.

        One vectorised numpy pass prices every child region of ``node``
        against a whole ``(Q, D)`` block of queries.  The default covers
        every region shape combination (``HAS_RECTS`` / ``HAS_SPHERES``);
        a subclass with a bespoke rule (the SR-tree's ``mindist_rule``)
        overrides :meth:`_region_mindists`.
        """
        return self._region_mindists(node, points)

    # ------------------------------------------------------------------
    # region rules: a region is a rectangle, a sphere, or both
    # ------------------------------------------------------------------
    #
    # ``HAS_RECTS`` / ``HAS_SPHERES`` pick the shapes; each rule below is
    # stated once for every family that bounds a node's *contents* (the
    # K-D-B-tree's regions partition space instead and use none of it).

    def _region_mindists(self, node, points: np.ndarray) -> np.ndarray:
        """``(Q, count)`` MINDIST to each child region; with both
        shapes, the larger of the two bounds (Section 4.4)."""
        n = node.count
        if not self.HAS_SPHERES:
            return mindist_points_rects(points, node.lows[:n], node.highs[:n])
        sphere = mindist_points_spheres(points, node.centers[:n], node.radii[:n])
        if not self.HAS_RECTS:
            return sphere
        return np.maximum(
            mindist_points_rects(points, node.lows[:n], node.highs[:n]), sphere)

    def _summarize(self, child, parent: InternalNode,
                   slot: int | None = None, *, defer: bool = False) -> None:
        """Write ``child``'s entry into row ``slot`` of ``parent``, in place.

        The entry is the child's page id plus, by ``HAS_RECTS`` /
        ``HAS_SPHERES``, its MBR and its centroid, radius and weight;
        ``slot=None`` appends a row.  Every ancestor of an insert pays
        this once, so it allocates no dict and writes the reductions
        straight into the parent's arrays.

        ``defer`` writes only what a centroid ChooseSubtree reads — the
        page id, centroid and weight — and leaves the MBR and radius
        unsettled, for :meth:`_settle` to write once the child stops
        changing.  A full write forgets any deferral of the row it
        overwrites.
        """
        parent.ensure_mutable()
        row = parent.count if slot is None else slot
        unsettled = self._unsettled
        if slot is not None and unsettled:
            unsettled.pop(int(parent.child_ids[row]), None)
        parent.child_ids[row] = child.page_id
        if self.HAS_SPHERES:
            parent.weights[row] = self._centroid(child, parent.centers[row])[1]
        if defer:
            unsettled[child.page_id] = (parent, child)
        else:
            self._bound(child, parent, row)
        if slot is None:
            parent.count += 1

    def _bound(self, child, parent: InternalNode, row: int) -> None:
        """Write the MBR and the radius of ``child``'s entry into ``row``
        of ``parent``, the radius around the centroid already there."""
        if self.HAS_RECTS:
            self._rect_of(child, parent.lows[row], parent.highs[row])
        if self.HAS_SPHERES:
            parent.radii[row] = self._radius(child, parent.centers[row])

    def _settle(self, node=None) -> None:
        """Write the MBR and radius of rows :meth:`_summarize` deferred:
        every one when ``node`` is None, else ``node``'s own rows and
        then its row in its parent.

        A row is a pure function of its child's contents, so written
        once after the child's last change it has the bits a write after
        every change left.  A row reads its child's rows, so children
        settle first, from the node objects registered with the rows:
        nothing is looked up in the buffer pool, read or counted.
        """
        unsettled = self._unsettled
        if not unsettled:
            return
        if node is None:
            while unsettled:
                self._settle(next(iter(unsettled.values()))[1])
            return
        if not node.is_leaf:
            for child_id in node.child_ids[: node.count].tolist():
                pending = unsettled.get(child_id)
                if pending is not None:
                    self._settle(pending[1])
        pending = unsettled.pop(node.page_id, None)
        if pending is not None:
            parent, child = pending
            self._bound(child, parent, parent.find_child(child.page_id))

    def _rect_of(self, node, low=None, high=None) -> tuple[np.ndarray, np.ndarray]:
        """Minimum bounding rectangle of a node's contents (Section 2.2),
        written into ``low``/``high`` when given."""
        n = node.count
        lows, highs = ((node.points, node.points) if node.is_leaf
                       else (node.lows, node.highs))
        return (np.minimum.reduce(lows[:n], axis=0, out=low),
                np.maximum.reduce(highs[:n], axis=0, out=high))

    def _centroid(self, node, out=None) -> tuple[np.ndarray, int]:
        """Centroid and weight of the points beneath a node (Section 2.3),
        the centroid written into ``out`` when given.

        Child centroids are weighted by subtree point counts.  The sum
        is ``np.mean``'s own (``add.reduce``, then divide), kept in that
        order so every stored centre is the same to the bit.
        """
        n = node.count
        if node.is_leaf:
            weight = n
            center = np.add.reduce(node.points[:n], axis=0, out=out)
        else:
            weights = node.weights[:n]
            weight = int(np.add.reduce(weights))
            center = np.add.reduce(node.centers[:n] * weights[:, None],
                                   axis=0, out=out)
        center /= weight
        return center, weight

    def _radius(self, node, center: np.ndarray) -> float:
        """Radius of the sphere around ``center`` that a node's parent
        entry stores: the SS-tree's :meth:`_reach`, which the SR-tree
        tightens (:meth:`SRTree._radius <repro.indexes.srtree.SRTree._radius>`)."""
        return self._reach(center, node)

    def _reach(self, center: np.ndarray, node, rects: bool = False) -> float:
        """An upper bound on the distance from ``center`` to any point
        beneath ``node``.

        A leaf's farthest point; above the leaves, the far side of the
        farthest child sphere.  With ``rects`` each child is an
        intersection region, so the farthest vertex of its rectangle
        bounds it too and the smaller of the two reaches counts.
        """
        n = node.count
        if node.is_leaf:
            diff = node.points[:n] - center
            return math.sqrt(np.maximum.reduce(np.einsum("ij,ij->i", diff, diff)))
        diff = node.centers[:n] - center
        reaches = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        reaches += node.radii[:n]
        if rects:
            np.minimum(reaches, farthest_point_rects(
                center, node.lows[:n], node.highs[:n]), out=reaches)
        return float(np.maximum.reduce(reaches))

    def _check_parent_entry(self, parent: InternalNode, slot: int, child) -> None:
        """Verify that entry ``slot`` of ``parent`` bounds ``child``'s contents.

        The rectangle must contain the child's own bounding rectangle.
        The sphere must reach every point beneath the child — not every
        child *sphere*: under the SR-tree's ``min(d_s, d_r)`` radius a
        parent sphere may be smaller than a child's, which is why the
        reach keeps the rectangle term where both shapes are stored.
        """
        if self.HAS_RECTS:
            low, high = self._rect_of(child)
            if (np.any(low < parent.lows[slot] - _BOUND_EPS)
                    or np.any(high > parent.highs[slot] + _BOUND_EPS)):
                raise InvariantViolationError(
                    f"parent {parent.page_id} entry {slot} rectangle does not "
                    f"bound child {child.page_id}"
                )
        if self.HAS_SPHERES:
            radius = float(parent.radii[slot])
            reach = self._reach(parent.centers[slot], child, self.HAS_RECTS)
            if reach > radius + _BOUND_EPS:
                raise InvariantViolationError(
                    f"parent {parent.page_id} entry {slot} sphere (r={radius:.6g}) "
                    f"does not cover child {child.page_id} (reach {reach:.6g})"
                )

    # ------------------------------------------------------------------
    # queries (shared)
    # ------------------------------------------------------------------

    def nearest(self, point, k: int = 1) -> list[Neighbor]:
        """The ``k`` nearest stored points, closest first.

        The depth-first branch-and-bound search of Roussopoulos, Kelley
        and Vincent, as used throughout the paper.  The best-first
        traversal of Hjaltason & Samet is :meth:`iter_nearest`, whose
        first ``k`` neighbors are the same answer.  Equal distances are
        ordered by storage address, ``(distance, leaf page id, slot)``,
        in every engine, so the answer depends only on the pages read.
        """
        from ..exec.batch import per_query
        from ..search.knn import knn_search

        point = as_point(point, self.dims)
        k = int(per_query("k", k, 1)[0])
        if self._size == 0:
            raise EmptyIndexError("cannot run a nearest-neighbor query on an empty index")
        with observed_query(self, "knn", k):
            return knn_search(self, point, k)

    def nearest_batch(self, points, k=1) -> list[list[Neighbor]]:
        """The ``k`` nearest neighbors of *each* query point, batched.

        Convenience wrapper over :func:`repro.exec.batch_knn`, which
        amortizes the tree traversal across the whole query block (one
        vectorised MINDIST pass per visited node instead of one scan per
        query per node).  ``k`` is one int shared by every query or a
        ``(Q,)`` array with one value per query.  Results match
        :meth:`nearest` exactly.
        """
        from ..exec import batch_knn

        return batch_knn(self, points, k)

    def within(self, point, radius: float) -> list[Neighbor]:
        """All stored points within ``radius`` of ``point``, closest first."""
        from ..exec.batch import per_query
        from ..search.range import range_search

        point = as_point(point, self.dims)
        radius = float(per_query("radius", radius, 1)[0])
        with observed_query(self, "range"):
            return range_search(self, point, radius)

    def within_batch(self, points, radius) -> list[list[Neighbor]]:
        """The range query of *each* query point, batched.

        Convenience wrapper over :func:`repro.exec.batch_range` — one
        traversal per query block.  ``radius`` is a scalar shared by
        every query or a ``(Q,)`` array with one radius per query.
        Results match :meth:`within` exactly.
        """
        from ..exec import batch_range

        return batch_range(self, points, radius)

    def window(self, low, high) -> list[Neighbor]:
        """All stored points inside the axis-aligned box ``[low, high]``,
        in ``(leaf page id, slot)`` order, each at distance 0."""
        from ..search.window import window_search

        low, high = as_point(low, self.dims), as_point(high, self.dims)
        if np.any(low > high):
            raise ValueError("window query has low > high on some dimension")
        with observed_query(self, "window"):
            return window_search(self, low, high)

    def lookup(self, point) -> list[object]:
        """Exact-match point query: the payloads stored at ``point``.

        Returns an empty list when the point is absent.  This is the
        paper's Section 2.1 "point query": on the K-D-B-tree it follows
        a single root-to-leaf path; on the overlapping-region trees it
        may have to enter several subtrees.
        """
        return [n.value for n in self.window(point, point)]

    def iter_nearest(self, point, max_distance: float = float("inf")):
        """Lazily yield stored points in ascending distance from ``point``.

        The incremental algorithm of Hjaltason & Samet: no ``k`` needed
        up front, and only the pages required for the neighbors actually
        consumed are read.  Optionally bounded by ``max_distance``.  The
        arguments are checked, and the query counted, at the call —
        before the first neighbor is asked for.
        """
        from ..exec.batch import per_query
        from ..obs.hooks import on_incremental_query
        from ..search.incremental import iter_nearest

        point = as_point(point, self.dims)
        max_distance = float(per_query("max_distance", max_distance, 1)[0])
        on_incremental_query(self)
        return iter_nearest(self, point, max_distance)

    # ------------------------------------------------------------------
    # walking
    # ------------------------------------------------------------------

    def read_node(self, page_id: int) -> LeafNode | InternalNode:
        """Fetch a node through the buffer pool (counted I/O)."""
        return self._store.read(page_id)

    def top_ids(self) -> list[int]:
        """The pages every traversal starts from: the root of a tree."""
        return [self._root_id]

    def iter_nodes(self) -> Iterator[LeafNode | InternalNode]:
        """Depth-first iteration over every node, from the top pages in
        order (:meth:`top_ids`)."""
        stack = self.top_ids()[::-1]
        while stack:
            node = self.read_node(stack.pop())
            yield node
            if not node.is_leaf:
                stack.extend(int(c) for c in node.child_ids[: node.count])

    def iter_leaves(self) -> Iterator[LeafNode]:
        """Iterate over every leaf node."""
        for node in self.iter_nodes():
            if node.is_leaf:
                yield node

    def iter_points(self) -> Iterator[tuple[np.ndarray, object]]:
        """Iterate over every stored ``(point, value)`` pair."""
        for leaf in self.iter_leaves():
            for i in range(leaf.count):
                yield leaf.points[i].copy(), leaf.values[i]

    def leaf_count(self) -> int:
        """Number of leaf nodes (denominator of Figure 16's access ratio)."""
        return sum(1 for _ in self.iter_leaves())

    def node_count(self) -> int:
        """Number of internal nodes."""
        return sum(1 for node in self.iter_nodes() if not node.is_leaf)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def _meta_dict(self) -> dict:
        """The metadata dict persisted into the meta page."""
        meta = {
            "index": type(self).NAME,
            "class": f"{type(self).__module__}.{type(self).__qualname__}",
            "dims": self.dims,
            "page_size": self._config.page_size,
            "leaf_data_size": self._config.leaf_data_size,
            "min_utilization": self._config.min_utilization,
            "reinsert_fraction": self._config.reinsert_fraction,
            "root_id": self._root_id,
            "height": self._height,
            "size": self._size,
            "durability": "wal" if self._store.wal is not None else "none",
        }
        meta.update(self._extra_meta())
        return meta

    def save(self) -> None:
        """Flush all pages and persist index metadata to the meta page.

        Under a WAL every commit journaled its metadata already, so this
        is a flush: the log fsynced, every commit in the data file.
        """
        if self._store.wal is None:
            self._store.write_meta(self._meta_dict())
        self._store.flush()
        on_flush(self)

    def _extra_meta(self) -> dict:
        """Subclass hook: extra metadata persisted with :meth:`save`."""
        return {}

    def _restore_extra(self, meta: dict) -> None:
        """Subclass hook: restore state saved by :meth:`_extra_meta`."""

    def _adopt_meta(self, meta: dict) -> None:
        """Take the tree's counters and the family's extras from ``meta``."""
        self._root_id = meta["root_id"]
        self._height = meta["height"]
        self._size = meta["size"]
        self._restore_extra(meta)

    # ------------------------------------------------------------------
    # snapshots (epoch-pinned read-only views)
    # ------------------------------------------------------------------

    @property
    def is_snapshot(self) -> bool:
        """Whether this handle is an epoch-pinned read-only view."""
        return getattr(self._store, "is_snapshot", False)

    @property
    def snapshot_epoch(self) -> int:
        """The epoch this handle reads from.

        For a snapshot view this is its pinned epoch; for a live index
        it is the newest committed epoch the store has published.
        """
        return self._store.epoch

    def snapshot_view(self, epoch: int | None = None,
                      buffer_capacity: int | None = None) -> "SpatialIndex":
        """A read-only view of this index pinned at a committed epoch.

        The view shares the page file but owns a private buffer pool
        and stats bundle, so it is safe to query from another thread
        while this handle keeps committing WAL transactions — it sees
        exactly the committed state at its epoch, never an open
        transaction's pages or part of a commit.  ``epoch=None`` pins the newest
        committed epoch.  Close the view (or the
        :class:`~repro.api.Snapshot` facade wrapping it) to release the
        pin; use :meth:`refresh_snapshot` to advance it in place.
        """
        from ..storage import open_snapshot_store

        if self.is_snapshot:
            raise StorageError(
                "cannot snapshot a snapshot view; call snapshot_view() "
                "on the live index"
            )
        store = open_snapshot_store(self._store, epoch,
                                    buffer_capacity=buffer_capacity)
        try:
            meta = store.read_meta()
        except BaseException:
            store.close()
            raise
        cls = type(self)
        view = cls.__new__(cls)
        view._layout = self._layout
        view._attach(store)
        view._config = self._config
        view._adopt_meta(meta)
        return view

    def refresh_snapshot(self, epoch: int | None = None) -> int:
        """Advance a snapshot view to a newer committed epoch, in place.

        Re-pins the underlying :class:`~repro.storage.SnapshotStore`
        (``epoch=None`` means the newest committed epoch), reloads the
        root/height/size counters from that epoch's metadata, and
        returns the new epoch.  Only valid on a view returned by
        :meth:`snapshot_view`.
        """
        store = self._store
        if not self.is_snapshot:
            raise StorageError(
                "refresh_snapshot() only applies to snapshot views"
            )
        age = store.lag  # staleness being caught up, for the metric
        store.refresh_to(epoch)
        self._adopt_meta(store.read_meta())
        on_snapshot_refresh(self.NAME, age)
        return store.epoch

    def close(self) -> None:
        """Save and close the backing page file (idempotent).

        A snapshot view merely releases its epoch pin and private
        buffers; the writer's store and page file stay open.  A
        poisoned store (post-commit apply failure) is closed without
        saving: its metadata is already durable in the WAL, and writing
        to the diverged data file is exactly what poisoning forbids.
        A readonly store likewise closes without saving —
        its page file rejects writes and its meta page is already on
        disk.
        """
        if self._store.closed:
            return
        if self.is_snapshot:
            self._store.close()
            return
        if not self._store.poisoned and not self._store.readonly:
            self.save()
        self._store.close()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has completed."""
        return self._store.closed

    def __enter__(self) -> "SpatialIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _move_onto(index: SpatialIndex, pagefile: PageFile,
               wal: WriteAheadLog | None = None) -> None:
    """Move a freshly built, empty in-memory index onto a new page stack.

    The one way a new index reaches a file (:meth:`repro.Database.create`):
    the in-memory store is dropped and the root leaf allocated again on
    ``pagefile``, whose allocator, like every fresh stack's, hands out
    the same first page id.
    """
    index._attach(NodeStore(index._layout, pagefile,
                            index._config.buffer_capacity, wal=wal))
    if index._store.new_leaf().page_id != index._root_id:
        raise StorageError("the page stack to move onto is not empty")


def _restore(cls: type[SpatialIndex], pagefile: PageFile, buffer_capacity: int,
             meta: dict, wal: WriteAheadLog | None = None) -> SpatialIndex:
    """A live ``cls`` index around an existing page file and its meta dict."""
    index = cls.__new__(cls)
    index._layout = NodeLayout(
        dims=meta["dims"],
        has_rects=cls.HAS_RECTS,
        has_spheres=cls.HAS_SPHERES,
        has_weights=cls.HAS_WEIGHTS,
        page_size=meta["page_size"],
        leaf_data_size=meta["leaf_data_size"],
    )
    index._attach(NodeStore(index._layout, pagefile, buffer_capacity, wal=wal))
    index._config = _IndexConfig(
        page_size=meta["page_size"],
        leaf_data_size=meta["leaf_data_size"],
        buffer_capacity=buffer_capacity,
        min_utilization=meta["min_utilization"],
        reinsert_fraction=meta["reinsert_fraction"],
    )
    index._adopt_meta(meta)
    return index
