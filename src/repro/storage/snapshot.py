"""Epoch-pinned, read-only views over a live :class:`NodeStore`.

A :class:`SnapshotStore` pins one committed epoch of a writer's
:class:`~repro.storage.store.NodeStore` and serves every read from that
epoch through the base store's one read rule: the page's newest entry
in the store's page table at or below the pinned epoch, else the page
file (:meth:`~repro.storage.store.NodeStore.read_image_at`).  An
in-flight WAL transaction's entries sit above every pinnable epoch, so
they are never seen.  It owns a **private** buffer pool and
:class:`~repro.storage.stats.IOStats` bundle, so a reader thread never
shares mutable cache state with the writer (or with other readers); the
only shared surface is the base store's lock-guarded page table.

Snapshots are immutable: every mutation entry point raises
:class:`~repro.exceptions.StorageError`.  :meth:`SnapshotStore.refresh_to`
re-pins a newer committed epoch in place, invalidating exactly the
buffered pages whose committed content changed in between (falling back
to a full drop when the base store's change log no longer covers the
range).  See ``docs/CONCURRENCY.md`` for the full reader/writer
contract.
"""

from __future__ import annotations

from ..exceptions import StorageError
from ..obs.tracer import trace
from .buffer import BufferPool
from .nodes import InternalNode, LeafNode
from .stats import IOStats
from .store import NodeStore, load_node

__all__ = ["SnapshotStore", "open_snapshot_store"]

Node = LeafNode | InternalNode

#: Snapshot reads are bursty and private; a small pool per reader keeps
#: memory bounded with many workers while still covering a traversal's
#: working set.
DEFAULT_SNAPSHOT_BUFFER_CAPACITY = 128


def open_snapshot_store(
    base: NodeStore,
    epoch: int | None = None,
    buffer_capacity: int | None = None,
) -> "SnapshotStore":
    """Pin an epoch of ``base`` and return a read-only store over it.

    This is the one sanctioned way to build an index handle over an
    existing store (``tools/lint.py`` enforces it): the snapshot pins
    its epoch before reading anything, so it can never observe a torn
    mix of pre- and post-commit pages.
    """
    return SnapshotStore(base, epoch=epoch, buffer_capacity=buffer_capacity)


class SnapshotStore:
    """A read-only, epoch-pinned view sharing a writer's page file.

    Duck-types the slice of the :class:`NodeStore` surface the query
    layers use (``read``, ``stats``, ``pin``/``unpin``, ``drop_cache``,
    ``read_meta``, ``close``); everything mutating raises.
    """

    #: Lets ``SpatialIndex`` and the facade distinguish a snapshot view
    #: from a live store without importing this module.
    is_snapshot = True

    def __init__(
        self,
        base: NodeStore,
        epoch: int | None = None,
        buffer_capacity: int | None = None,
    ) -> None:
        if getattr(base, "is_snapshot", False):
            raise StorageError("cannot snapshot a snapshot; pin the base store")
        self.base = base
        self.layout = base.layout
        self.codec = base.codec  # decode is pure; safe to share
        self.stats = IOStats()
        capacity = (DEFAULT_SNAPSHOT_BUFFER_CAPACITY
                    if buffer_capacity is None else buffer_capacity)
        self.buffer = BufferPool(capacity, self._reject_write_back,
                                 stats=self.stats)
        self._epoch = base.pin_snapshot(epoch)
        self._closed = False

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------

    @property
    def epoch(self) -> int:
        """The pinned committed epoch this view reads from."""
        return self._epoch

    @property
    def lag(self) -> int:
        """Committed epochs published since this snapshot was pinned."""
        return max(0, self.base.epoch - self._epoch)

    @property
    def wal(self):
        """Snapshots never journal; present for facade introspection."""
        return None

    @property
    def in_txn(self) -> bool:
        return False

    @property
    def poisoned(self) -> bool:
        return False

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def read(self, page_id: int, *, pin: bool = False) -> Node:
        """Fetch a node at the pinned epoch (same accounting as the base).

        Misses resolve through
        :meth:`~repro.storage.store.NodeStore.read_image_at` and count
        physical reads on this view's private stats bundle, so pool
        aggregation and EXPLAIN behave exactly as over a live store.
        """
        self._require_open()
        node = self.buffer.get(page_id)
        if node is None:
            node = load_node(self, page_id, pin)
        else:
            span = trace.active
            if span is not None:
                span.page(page_id, node.level, node.extent, hit=True)
        if pin:
            self.buffer.pin(page_id)
        return node

    def _read_page_image(self, page_id: int):
        return self.base.read_image_at(page_id, self._epoch)

    def read_meta(self) -> dict:
        """The index metadata dict as of the pinned epoch."""
        self._require_open()
        return self.base.read_meta_at(self._epoch)

    def pin(self, page_id: int) -> None:
        self.buffer.pin(page_id)

    def unpin(self, page_id: int) -> None:
        self.buffer.unpin(page_id)

    def drop_cache(self) -> None:
        """Empty the private buffer pool (nothing is ever written back)."""
        self.buffer.drop()

    # ------------------------------------------------------------------
    # refresh
    # ------------------------------------------------------------------

    def refresh_to(self, epoch: int | None = None) -> int:
        """Re-pin this view at a newer committed epoch, in place.

        The new epoch is pinned *before* the old pin is released, so
        the base store's retention never lapses in between.  Buffered
        nodes whose committed content changed across the epoch range
        are invalidated precisely when the base's change log covers the
        range, otherwise the whole pool is dropped.  Returns the new
        epoch.  Refreshing to the already-pinned epoch is a no-op.
        """
        self._require_open()
        new_epoch = self.base.pin_snapshot(epoch)
        old_epoch = self._epoch
        if new_epoch == old_epoch:
            self.base.release_snapshot(new_epoch)
            return old_epoch
        self._epoch = new_epoch
        self.base.release_snapshot(old_epoch)
        changed = self.base.changed_pages_between(old_epoch, new_epoch)
        if changed is None:
            self.buffer.drop()
        else:
            for page_id in changed:
                self.buffer.discard(page_id)
        from ..obs.events import DEBUG, EVENTS

        if EVENTS.enabled_for(DEBUG):
            EVENTS.emit(
                "snapshot_repinned", level=DEBUG,
                old_epoch=old_epoch, new_epoch=new_epoch,
                invalidated=("all" if changed is None else len(changed)),
            )
        return new_epoch

    # ------------------------------------------------------------------
    # mutation entry points: all forbidden
    # ------------------------------------------------------------------

    def _read_only(self, what: str):
        raise StorageError(
            f"snapshot at epoch {self._epoch} is read-only: {what} is not "
            "allowed (mutate through the live Database handle instead)"
        )

    def _reject_write_back(self, node: Node) -> None:
        self._read_only("writing back a dirty page")

    def new_leaf(self):
        self._read_only("allocating a leaf")

    def new_internal(self, level: int, extent: int = 1):
        self._read_only("allocating an internal node")

    def write(self, node: Node) -> None:
        self._read_only("writing a node")

    def free(self, node_or_id) -> None:
        self._read_only("freeing a page")

    def write_meta(self, meta: dict) -> None:
        self._read_only("writing metadata")

    def begin_txn(self) -> int:
        self._read_only("beginning a transaction")
        raise AssertionError("unreachable")  # pragma: no cover

    def commit_txn(self) -> None:
        self._read_only("committing a transaction")

    def abort_txn(self) -> None:
        self._read_only("aborting a transaction")

    def flush(self) -> None:
        self._read_only("flushing")

    def checkpoint(self) -> None:
        self._read_only("checkpointing")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def _require_open(self) -> None:
        if self._closed:
            raise StorageError("snapshot store is closed")
        if self.base.closed:
            raise StorageError(
                "the base store behind this snapshot has been closed"
            )

    def close(self) -> None:
        """Release the epoch pin and drop private buffers (idempotent).

        Closes only this view — the base store and its page file stay
        open for the writer and any other snapshots.
        """
        if self._closed:
            return
        self._closed = True
        self.buffer.drop()
        self.base.release_snapshot(self._epoch)

    def __enter__(self) -> "SnapshotStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        status = "closed" if self._closed else f"epoch {self._epoch}"
        return f"SnapshotStore({status}, lag={self.lag})"
