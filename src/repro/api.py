"""The unified database facade: one object, every index family.

:class:`Database` wraps the storage stack (page file, CRC32 page
checksums, optional write-ahead log) and any of the index families
behind one context-managed surface::

    import repro

    with repro.Database.create("points.db", kind="sr", dims=16,
                               durability="wal") as db:
        db.insert([0.1] * 16, value="first")
        for n in db.knn([0.1] * 16, k=5):
            print(n.distance, n.value)

    with repro.Database.open("points.db") as db:   # WAL recovery runs here
        print(db.stats()["size"])

``kind`` accepts both the paper's registry names (``srtree``,
``sstree``, ``rstar``, ``rtree``, ``kdb``, ``srx``, ``vamsplit``,
``linear``) and the short aliases ``sr``, ``ss``, ``r*``, ``r``, and
``scan``.  ``":memory:"`` (or ``None``) builds an in-process database —
full API, no file, no durability.

Durability modes:

* ``durability="none"`` (default) — the original engine: fast, pages
  reach the file through the write-back buffer, a crash can tear a
  multi-page insert.
* ``durability="wal"`` — every :meth:`insert`/:meth:`delete`, and the
  static tree's build, commits as one transaction through a physical
  redo log (so does :meth:`create`'s empty tree); :meth:`Database.open`
  replays whatever a crash left behind, and only then reads the meta
  page that says which mode to resume.  See ``docs/DURABILITY.md``.

In both modes every page on disk is sealed with a CRC32 trailer, so a
torn or rotten page raises :class:`~repro.exceptions.ChecksumError`
instead of being read as data.

Concurrent reads: :meth:`Database.snapshot` returns a
:class:`Snapshot` — a read-only handle pinned to the newest *committed*
epoch.  Queries through a snapshot never observe an in-flight WAL
transaction's shadow pages or a half-applied commit, even while another
thread keeps inserting; see ``docs/CONCURRENCY.md``.

A file describes itself: :meth:`Database.open` takes a path and nothing
else it could get wrong (page size, kind and mode all come from the
file), every family fills through :meth:`Database.insert_many`,
and a file this library did not write is refused by name.
:meth:`Database.create` and :meth:`Database.open` are the only ways an
index meets a file; ``make_index``/``build_index`` and the index classes
themselves build in memory.
"""

from __future__ import annotations

import os
from typing import Protocol, runtime_checkable

from .indexes.base import Neighbor, SpatialIndex, _move_onto
from .indexes.factory import (
    _open_index,
    normalize_index_kwargs,
    resolve_kind,
)
from .storage.stats import IOStats

__all__ = [
    "Database",
    "Snapshot",
    "QuerySurface",
    "KIND_ALIASES",
]

KIND_ALIASES: dict[str, str] = {
    "sr": "srtree",
    "ss": "sstree",
    "r*": "rstar",
    "r": "rtree",
    "scan": "linear",
}
"""Short spellings accepted by :meth:`Database.create` on top of the
registry names in :data:`repro.indexes.factory.INDEX_KINDS`."""

_MEMORY = ":memory:"


def _remove_files(file_path: str) -> None:
    """Delete a data file and its write-ahead log, whichever exist."""
    from .storage import wal_path

    for name in (file_path, wal_path(file_path)):
        if os.path.exists(name):
            os.remove(name)


def _resolve_alias(kind: str) -> str:
    return KIND_ALIASES.get(kind, kind)


@runtime_checkable
class QuerySurface(Protocol):
    """The formal read surface every query handle implements.

    Four handle kinds satisfy this protocol — :class:`Database`,
    :class:`Snapshot`, :class:`~repro.exec.ServingPool` (worker
    processes), and :class:`~repro.net.RemoteDatabase` —
    and ``tests/test_query_surface.py`` runs one shared conformance
    suite against all of them, asserting identical answers on the
    paper's three workloads.  Code written against this protocol can
    swap a local handle for a pool or a network client without
    call-site changes::

        def serve(handle: QuerySurface):
            return handle.knn([0.0] * handle.dims, k=5)

    The protocol is ``runtime_checkable``: ``isinstance(h,
    QuerySurface)`` verifies member *presence* (not signatures), which
    is what the conformance suite pins down.

    **The argument contract** is the same on every handle because it is
    decided in two places only — :func:`repro.geometry.as_point` /
    ``as_points`` for coordinates, :func:`repro.exec.batch.per_query`
    for ``k`` and radius — and a remote handle applies it before the
    round trip.  The suite's disagreement matrix holds every handle to
    ``Database``'s outcome, class and message::

        method                       accepts                            refuses, and with which class
        ---------------------------  ---------------------------------  -----------------------------------
        knn(point, k=1)              point: 1-D, dims finite floats     shape, dims: DimensionalityError
                                     k: one whole number >= 1           NaN, inf coordinate: ValueError
                                                                        k of 0, 2.5, NaN, a list: ValueError
                                                                        empty index: EmptyIndexError
        knn_batch(points, k=1)       points: (n, dims); a 1-D point     as knn, and a k of another
                                     is one row                         length: ValueError
                                     k: one value, or (n,) per row
        range(point, radius)         point: as knn                      point: as knn
                                     radius: one number >= 0, or inf    radius of -1, NaN: ValueError
        range_batch(points, radius)  as knn_batch's points and k        as range, and a radius of another
                                                                        length: ValueError
        window(low, high)            two points as knn's,               points: as knn
                                     low <= high on every axis          low > high: ValueError
        lookup(point)                point: as knn                      point: as knn
        stats()                      --                                 -- (a dict; on the pools an IOStats)
        any read                     the keywords its handle names      an unknown keyword: TypeError
        any read after close()       --                                 StorageError (Database, Snapshot),
                                                                        RuntimeError (pools),
                                                                        NetError (RemoteDatabase)

    **No handle returns part of an answer.**  A pool read that lost a
    shard (a timeout, a dead worker, reads failing past the retries)
    raises :class:`~repro.exceptions.ShardLostError`; a remote handle
    over a pool raises ``DeadlineExceededError`` (504) or
    ``ServerOverloadedError`` (503) for it, on every read endpoint.

    Everything else is one handle's extension, not the contract: a
    pool's ``knn``/``range`` also take a 2-D batch (every other handle
    refuses one), every pool read takes ``timeout=``, its
    ``knn``/``knn_batch``/``range``/``range_batch`` take
    ``with_times=`` (the ``knn`` pair also ``block_size=``) and its
    ``stats()`` is an :class:`~repro.storage.stats.IOStats`; a remote
    handle's reads take ``deadline_ms=``; ``Database`` and ``Snapshot``
    render ``explain(point, k) -> str`` (remote too) and have a
    ``len()``.
    """

    @property
    def kind(self) -> str:
        """Registry name of the index family answering queries."""
        ...

    @property
    def dims(self) -> int:
        """Dimensionality of the stored points."""
        ...

    @property
    def size(self) -> int:
        """Number of stored points."""
        ...

    @property
    def closed(self) -> bool:
        """Whether the handle has been closed."""
        ...

    def knn(self, point, k: int = 1) -> list[Neighbor]:
        """The ``k`` nearest stored points, closest first."""
        ...

    def knn_batch(self, points, k: int = 1) -> list[list[Neighbor]]:
        """The ``k`` nearest neighbors of each query point, batched."""
        ...

    def range(self, point, radius: float) -> list[Neighbor]:
        """All stored points within ``radius`` of ``point``."""
        ...

    def range_batch(self, points, radius) -> list[list[Neighbor]]:
        """The range query of each query point, batched.

        ``radius`` is a scalar shared by every query or a ``(Q,)``
        array-like with one radius per query.
        """
        ...

    def window(self, low, high) -> list[Neighbor]:
        """All stored points inside the axis-aligned box ``[low, high]``,
        in ``(leaf page id, slot)`` order, each at distance 0."""
        ...

    def lookup(self, point) -> list[object]:
        """Exact-match point query: every payload stored at ``point``."""
        ...

    def stats(self) -> dict | IOStats:
        """A diagnostic snapshot of the handle: a dict, or — on the
        serving pools — the workers' summed ``IOStats``."""
        ...

    def close(self) -> None:
        """Release the handle (idempotent)."""
        ...


class _IndexHandle:
    """What :class:`Database` and :class:`Snapshot` share: one
    :class:`~repro.indexes.base.SpatialIndex` (live, or an epoch-pinned
    view of one) behind the read half of :class:`QuerySurface`."""

    _index: SpatialIndex

    @property
    def index(self) -> SpatialIndex:
        """The underlying index engine — for a snapshot, its epoch-pinned
        view (for benchmark/diagnostic code)."""
        return self._index

    @property
    def kind(self) -> str:
        """Registry name of the index family (e.g. ``"srtree"``)."""
        return self._index.NAME

    @property
    def dims(self) -> int:
        """Dimensionality of the stored points."""
        return self._index.dims

    @property
    def size(self) -> int:
        """Number of stored points (a snapshot: in its pinned state)."""
        return self._index.size

    def __len__(self) -> int:
        return self._index.size

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has completed."""
        return self._index.closed

    # -- queries: uniform across every family; a snapshot answers from
    # -- exactly the committed state at its epoch

    def knn(self, point, k: int = 1) -> list[Neighbor]:
        """The ``k`` nearest stored points, closest first (the paper's
        depth-first search)."""
        return self._index.nearest(point, k=k)

    def knn_batch(self, points, k=1) -> list[list[Neighbor]]:
        """The ``k`` nearest neighbors of each query point, batched.

        Same :class:`~repro.indexes.base.Neighbor` results as
        :meth:`knn`, amortized over the whole query block.  ``k`` is
        one int shared by every query or a ``(Q,)`` array with one
        value per query (how the network coalescer shares a traversal
        across mixed-``k`` requests).
        """
        return self._index.nearest_batch(points, k=k)

    def range(self, point, radius: float) -> list[Neighbor]:
        """All stored points within ``radius`` of ``point``, closest first."""
        return self._index.within(point, radius)

    def range_batch(self, points, radius) -> list[list[Neighbor]]:
        """The range query of each query point, batched.

        ``radius`` is a scalar shared by every query or a ``(Q,)``
        array with one radius per query; results match :meth:`range`
        exactly.
        """
        return self._index.within_batch(points, radius)

    def window(self, low, high) -> list[Neighbor]:
        """All stored points inside the axis-aligned box ``[low, high]``."""
        return self._index.window(low, high)

    def lookup(self, point) -> list[object]:
        """Exact-match point query: every payload stored at ``point``."""
        return self._index.lookup(point)

    def explain(self, point, k: int = 1) -> str:
        """Run one k-NN query under the tracer and render its EXPLAIN.

        The report's page counts equal the ``IOStats.page_reads`` delta
        of the same query — the invariant ``tests/test_api_facade.py``
        asserts under every durability mode.  A snapshot's report is
        labelled with its pinned epoch.
        """
        from .obs import explain as render_explain
        from .obs import trace

        index = self._index
        labels = {"epoch": index.snapshot_epoch} if index.is_snapshot else {}
        was_enabled = trace.enabled
        trace.enable()
        try:
            with trace.span("knn", k=k, **labels) as span:
                index.nearest(point, k=k)
            return render_explain(span)
        finally:
            if not was_enabled:
                trace.disable()

    # -- lifecycle

    def close(self) -> None:
        """Release the handle (idempotent): a database saves and closes
        its file, a snapshot drops its epoch pin and private buffers."""
        self._index.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class Database(_IndexHandle):
    """A context-managed spatial database over one index file.

    Construct with :meth:`create` or :meth:`open`, never directly.  The
    underlying :class:`~repro.indexes.base.SpatialIndex` stays reachable
    through :attr:`index` for benchmark code that needs the raw engine;
    both layers return the same :class:`~repro.indexes.base.Neighbor`
    result objects.
    """

    def __init__(self, index: SpatialIndex, *, path: str | None,
                 _token: object = None) -> None:
        if _token is not _CONSTRUCT:
            raise TypeError(
                "use Database.create(path, ...) or Database.open(path)"
            )
        self._index = index
        self._path = path

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        path: str | os.PathLike | None,
        kind: str = "sr",
        dims: int = 16,
        *,
        durability: str = "none",
        sync_every: int = 1,
        overwrite: bool = False,
        fault_plan=None,
        **index_kwargs,
    ) -> "Database":
        """Create a new, empty database.

        Parameters
        ----------
        path:
            Data file path, or ``":memory:"``/``None`` for an in-process
            database (no durability possible).
        kind:
            Index family — a registry name or one of
            :data:`KIND_ALIASES` (default ``"sr"``, the SR-tree).
        dims:
            Dimensionality of the points.
        durability:
            ``"none"`` (default) or ``"wal"``.  Either way every page is
            sealed with a CRC32 trailer; the log adds crash recovery.
        sync_every:
            WAL fsync batching: fsync the log on every Nth commit.
            Batched (unsynced) commits stay WAL-only until the next
            fsync boundary, so an OS crash loses at most the last N−1
            acknowledged transactions, never part of one.
        overwrite:
            Replace an existing file (and its WAL) instead of raising.
        index_kwargs:
            Uniform factory keywords — ``page_size``,
            ``buffer_capacity``, ``reinsert_fraction``, family extras —
            validated with did-you-mean errors.
        """
        from .storage import open_pagefile, open_wal, wal_path

        if durability not in ("none", "wal"):
            raise ValueError(
                f"unknown durability mode {durability!r}; "
                "expected 'none' or 'wal'"
            )
        in_memory = path is None or os.fspath(path) == _MEMORY
        if in_memory and durability == "wal":
            raise ValueError(
                "an in-memory database cannot use durability='wal' "
                "(there is no file to recover); give it a path"
            )
        if sync_every < 1:
            raise ValueError(f"sync_every must be >= 1, got {sync_every}")
        index_cls = resolve_kind(_resolve_alias(kind))
        kwargs = normalize_index_kwargs(index_cls, index_kwargs)
        file_path = None if in_memory else os.fspath(path)
        if file_path is not None and os.path.exists(file_path) and not overwrite:
            raise FileExistsError(
                f"{file_path} already exists; pass overwrite=True "
                "or use Database.open()"
            )
        # The index constructor decides whether ``dims`` and the keywords
        # are acceptable, and it builds in memory: a refused call
        # destroys nothing.  The built index then moves onto its stack.
        index = index_cls(dims, **kwargs)
        if file_path is not None:
            _remove_files(file_path)
        pagefile = open_pagefile(file_path, page_size=index.layout.page_size,
                                 fault_plan=fault_plan)
        wal = None
        try:
            if durability == "wal":
                wal = open_wal(wal_path(file_path), sync_every=sync_every,
                               fault_plan=fault_plan)
            _move_onto(index, pagefile, wal)
            index._durably(lambda: None)  # under a WAL: the log's first commit
            index.save()
        except BaseException:
            # Arguments were checked above, so this is the disk failing:
            # leave neither open handles nor a stub no ``open`` accepts.
            pagefile.close()
            if wal is not None:
                wal.close()
            if file_path is not None:
                _remove_files(file_path)
            raise
        return cls(index, path=file_path, _token=_CONSTRUCT)

    @classmethod
    def open(
        cls,
        path: str | os.PathLike,
        *,
        durability: str | None = None,
        sync_every: int = 1,
        buffer_capacity: int | None = None,
        fault_plan=None,
    ) -> "Database":
        """Open an existing database, running WAL recovery first.

        The file describes itself: its superblock supplies the page
        geometry, and its meta page — read once, after recovery — the
        index kind and (unless ``durability`` overrides it) the
        durability mode it was last saved with.  A file this library
        did not write raises :class:`~repro.exceptions.ReproError`.
        ``buffer_capacity`` is the buffer pool size in frames.
        """
        file_path = os.fspath(path)
        index = _open_index(
            file_path,
            buffer_capacity,
            durability=durability,
            sync_every=sync_every,
            fault_plan=fault_plan,
        )
        return cls(index, path=file_path, _token=_CONSTRUCT)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def path(self) -> str | None:
        """Backing file path, or ``None`` for an in-memory database."""
        return self._path

    @property
    def durability(self) -> str:
        """The active durability mode: ``"wal"`` or ``"none"``."""
        return "wal" if self._index.store.wal is not None else "none"

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def insert(self, point, value: object = None) -> None:
        """Insert one point with an optional payload.

        With ``durability="wal"`` the insertion commits atomically; see
        :meth:`~repro.indexes.base.SpatialIndex.insert`.
        """
        self._index.insert(point, value)

    def insert_many(self, points, values=None) -> int:
        """Insert many points (payloads default to row indices).

        Works for every family: on the static ``vamsplit`` tree this is
        its one bulk build (a second call raises); on a dynamic tree it
        builds the tree a loop of :meth:`insert` builds, faster without
        a WAL.  A ``values`` list of another length than ``points`` is
        refused with ``ValueError`` before any point goes in.  Returns
        the number of points inserted — the same contract as
        :meth:`repro.net.RemoteDatabase.insert_many`, pinned by the
        QuerySurface conformance suite.
        """
        return self._index.load(points, values)

    def delete(self, point, value: object = ...) -> None:
        """Remove one stored copy of ``point`` (families that support it)."""
        self._index.delete(point, value)

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """A snapshot of the database: identity, shape, and I/O counters."""
        index = self._index
        io = index.stats
        return {
            "kind": index.NAME,
            "path": self._path,
            "dims": index.dims,
            "size": index.size,
            "height": index.height,
            "epoch": index.snapshot_epoch,
            "snapshot_pins": index.store.snapshot_pins,
            "durability": self.durability,
            "page_size": index.layout.page_size,
            "leaf_capacity": index.leaf_capacity,
            "node_capacity": index.node_capacity,
            "page_reads": io.page_reads,
            "page_writes": io.page_writes,
            "distance_computations": io.distance_computations,
            "buffer_hit_ratio": io.hit_ratio,
        }

    def verify(self) -> None:
        """Run the structural invariant checks, one walk that reads each
        page once (raises on damage)."""
        self._index.check_invariants()

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------

    def snapshot(self) -> "Snapshot":
        """A read-only handle pinned to the newest *committed* state.

        The snapshot owns a private buffer pool over the same page
        file, so it can be queried from another thread while this
        handle keeps mutating; it sees exactly the committed prefix of
        the operation history as of its epoch — never an in-flight
        transaction's shadow pages, never a half-applied commit.
        Writers pay copy-on-write retention only while snapshots are
        pinned, so close snapshots (they are context managers) when
        done, or call :meth:`Snapshot.refresh` to advance one in place.

        Without a WAL the current in-memory state is flushed and
        published first, so the snapshot reflects every mutation made
        so far; concurrent *non-WAL* mutation is not a supported
        regime (see ``docs/CONCURRENCY.md``).
        """
        if self._index.store.wal is None:
            self._index.save()
        view = self._index.snapshot_view()
        return Snapshot(view, _token=_CONSTRUCT, _db=self)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def flush(self) -> None:
        """Persist metadata and every dirty page without closing."""
        self._index.save()

    def __repr__(self) -> str:
        status = "closed" if self.closed else f"{self.size} points"
        where = self._path or _MEMORY
        return (f"Database(kind={self.kind!r}, dims={self.dims}, "
                f"path={where!r}, durability={self.durability!r}, {status})")


class Snapshot(_IndexHandle):
    """A read-only view of a :class:`Database` at one committed epoch.

    Created by :meth:`Database.snapshot`, never directly.  Offers the
    same query surface as the database (:meth:`knn`, :meth:`knn_batch`,
    :meth:`range`, :meth:`window`, :meth:`lookup`, :meth:`explain`) and
    guarantees every answer is computed against exactly the committed
    state at :attr:`epoch`.  Mutation attempts raise
    :class:`~repro.exceptions.StorageError`.  Use as a context manager
    (or call :meth:`close`) so the pinned page versions can be
    reclaimed.
    """

    def __init__(self, view: SpatialIndex, *, _token: object = None,
                 _db: "Database | None" = None) -> None:
        if _token is not _CONSTRUCT:
            raise TypeError("use Database.snapshot()")
        self._index = view
        self._db = _db

    @property
    def epoch(self) -> int:
        """The committed epoch this snapshot reads from."""
        return self._index.snapshot_epoch

    @property
    def age(self) -> int:
        """Committed epochs published since this snapshot was pinned."""
        return self._index.store.lag

    def stats(self) -> dict:
        """A snapshot of the pinned view: identity, epoch, I/O counters."""
        view = self._index
        io = view.stats
        return {
            "kind": view.NAME,
            "dims": view.dims,
            "size": view.size,
            "epoch": view.snapshot_epoch,
            "age": view.store.lag,
            "page_reads": io.page_reads,
            "distance_computations": io.distance_computations,
            "buffer_hit_ratio": io.hit_ratio,
        }

    def refresh(self) -> int:
        """Advance to the newest committed epoch; returns the new epoch.

        Buffered pages that changed across the refreshed range are
        invalidated, everything else stays warm.
        """
        db = self._db
        if db is not None and not db.closed and db.index.store.wal is None:
            # Without a WAL nothing publishes epochs on its own: persist
            # the live handle's state (pages *and* meta) so the refresh
            # lands on a consistent save point, exactly like snapshot().
            db.flush()
        return self._index.refresh_snapshot()

    def __repr__(self) -> str:
        status = "closed" if self.closed else f"epoch {self.epoch}"
        return (f"Snapshot(kind={self.kind!r}, dims={self.dims}, "
                f"size={self.size}, {status})")


_CONSTRUCT = object()
