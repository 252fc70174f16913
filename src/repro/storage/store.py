"""The node store: page file + buffer pool + codec + I/O accounting.

Every index does all of its node I/O through a :class:`NodeStore`.  The
store owns the physical read/write counters that the benchmarks report,
splitting them into node-level and leaf-level transfers (Figure 14 of
the paper), and exposes pinning so tree operations can hold node objects
across buffer evictions safely.

**Snapshot isolation.**  The store also publishes an *epoch* — a counter
of committed states — and retains copy-on-write images of committed
pages while any snapshot is pinned at an older epoch.  A
:class:`~repro.storage.snapshot.SnapshotStore` pins an epoch and reads
exclusively from it: first the retained version chain, then the
pending-apply table, then the page file, never the uncommitted shadow
table of an in-flight transaction.  In WAL mode the epoch advances at
every ``commit_txn`` durability point; without a WAL,
:meth:`publish_epoch` advances it explicitly (snapshot creation does
this, flushing dirty buffers first).  All page-file access and all
version bookkeeping is serialized on one re-entrant lock so snapshot
readers in other threads can share the file handle with the single
writer; buffer-pool hits never touch the lock, keeping the
single-threaded fast path unchanged.  See ``docs/CONCURRENCY.md``.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right

from ..exceptions import PageNotFoundError, StorageError, WALError
from ..obs.tracer import trace
from .buffer import BufferPool
from .checksums import ChecksumPageFile
from .constants import META_PAGE_ID
from .layout import NodeLayout
from .nodes import InternalNode, LeafNode
from .pagefile import InMemoryPageFile, PageFile
from .serializer import NodeCodec, meta_image, pack_meta, unpack_meta
from .stats import IOStats
from .wal import WriteAheadLog

__all__ = ["NodeStore", "DEFAULT_BUFFER_CAPACITY"]

Node = LeafNode | InternalNode

DEFAULT_BUFFER_CAPACITY = 512
"""Default buffer pool size in frames (4 MiB of 8 KiB pages)."""

CHANGE_LOG_EPOCHS = 64
"""How many epochs of changed-page sets the store remembers.

Snapshot refreshes use the change log to invalidate only the pages that
moved between the old and new epoch; a refresh spanning more epochs than
the log covers falls back to dropping the whole (private) buffer pool.
"""


def load_node(store, page_id: int, pin: bool) -> Node:
    """Resolve a buffer miss on ``store``: fetch, decode, count, admit.

    The one miss path under :meth:`NodeStore.read` and
    :meth:`~repro.storage.snapshot.SnapshotStore.read`, which differ
    only in ``_read_page_image``, each store's way from a page id to
    its image of the page.
    """
    read_image = store._read_page_image
    data = read_image(page_id)
    extent, extras = store.codec.peek_extent(data)
    if extent > 1:
        # join (not +=) so memoryview images from an mmap-backed
        # page file concatenate without needing bytes on the left.
        data = b"".join((data, *map(read_image, extras)))
    node = store.codec.decode(page_id, data)
    stats = store.stats
    stats.page_reads += extent
    if node.is_leaf:
        stats.leaf_reads += extent
    else:
        stats.node_reads += extent
    if pin:
        store.buffer.put(node, dirty=False)  # a pinned page must be resident
    else:
        store.buffer.offer(node)  # may decline: the caller still gets its node
    span = trace.active
    if span is not None:
        span.page(page_id, node.level, extent, hit=False)
    return node


class NodeStore:
    """Page-granular node storage for one index instance."""

    def __init__(
        self,
        layout: NodeLayout,
        pagefile: PageFile | None = None,
        buffer_capacity: int = DEFAULT_BUFFER_CAPACITY,
        stats: IOStats | None = None,
        wal: WriteAheadLog | None = None,
    ) -> None:
        self.layout = layout
        self.pagefile = pagefile if pagefile is not None else InMemoryPageFile(
            layout.page_size
        )
        if self.pagefile.page_size != layout.page_size:
            raise StorageError(
                f"page file page size {self.pagefile.page_size} does not match "
                f"layout page size {layout.page_size}"
            )
        self.codec = NodeCodec(layout)
        self.stats = stats if stats is not None else IOStats()
        self.buffer = BufferPool(buffer_capacity, self._write_back, stats=self.stats)
        #: Optional write-ahead log.  While a transaction is open every
        #: page write is journaled and *shadowed* in memory instead of
        #: reaching the page file; :meth:`commit_txn` makes the shadow
        #: durable (WAL commit) and then applies it — immediately when
        #: the commit fsynced the log, otherwise at the next fsync
        #: boundary (the images wait in the pending-apply table so the
        #: data file never runs ahead of the durable log).
        self.wal = wal
        self._shadow: dict[int, bytes] = {}
        self._shadow_meta: bytes | None = None
        self._txn_freed: list[int] = []
        self._txn_allocated: list[int] = []
        # Committed-but-unsynced transactions (sync_every > 1): images
        # that must not touch the data file until the WAL records
        # covering them are fsynced.
        self._pending: dict[int, bytes] = {}
        self._pending_meta: bytes | None = None
        self._pending_frees: list[int] = []
        self._poisoned: str | None = None
        self._closed = False
        # -- snapshot machinery -----------------------------------------
        # One re-entrant lock serializes page-file access, the pending
        # table, and all version/epoch bookkeeping.  Buffer-pool hits
        # bypass it entirely (the pool is private to the writer thread).
        self._mu = threading.RLock()
        self._epoch = 0
        #: epoch -> number of live snapshot pins at that epoch.
        self._snapshot_pins: dict[int, int] = {}
        #: page -> ascending [(epoch, image)]: ``image`` was the
        #: committed content of the page up to and including ``epoch``.
        self._versions: dict[int, list[tuple[int, bytes]]] = {}
        #: epoch e -> pages whose committed content changed when e was
        #: published (bounded to CHANGE_LOG_EPOCHS entries).
        self._epoch_changes: dict[int, frozenset[int]] = {}
        self._dirty_since_publish = False

    @property
    def in_txn(self) -> bool:
        """Whether a WAL transaction is currently open."""
        return self.wal is not None and self.wal.in_txn

    @property
    def has_checksums(self) -> bool:
        """Whether the page stack seals pages with CRC trailers."""
        return isinstance(self.pagefile, ChecksumPageFile)

    @property
    def readonly(self) -> bool:
        """Whether the page stack rejects mutation (mmap-backed serving).

        A readonly store never flushes or saves: :meth:`close` skips the
        write-back path and ``SpatialIndex.close`` skips ``save()``.
        """
        return getattr(self.pagefile, "readonly", False)

    @property
    def poisoned(self) -> bool:
        """Whether a post-commit apply failure has disabled mutations.

        A transaction that reached its WAL COMMIT is durable; if
        applying its images to the data file then fails (ENOSPC, EIO,
        ...), the in-memory state and the data file diverge and *must
        not* be rolled back — the store poisons itself instead.  Reads
        keep working (the in-memory state is the committed state), but
        every further mutation raises until the file is reopened, which
        replays the WAL and repairs the data file.
        """
        return self._poisoned is not None

    def _poison(self, why: str) -> None:
        from ..obs.hooks import on_store_poisoned

        self._poisoned = why
        on_store_poisoned(why)

    def _require_healthy(self) -> None:
        if self._poisoned is not None:
            raise StorageError(
                "node store is poisoned after a post-commit failure "
                f"({self._poisoned}); the transaction is durable in the WAL "
                "but the data file is behind — reopen the index to recover"
            )

    def _require_writable(self) -> None:
        """Reject mutations on a readonly (mmap-backed) store *eagerly*.

        Dirtying a buffered node would otherwise "succeed" in memory and
        be silently discarded at close (readonly close never flushes) —
        a lost update disguised as a successful call.
        """
        if self.readonly:
            raise StorageError(
                "node store is read-only (memory-mapped serving copy); "
                "reopen the index writable to mutate it"
            )

    # ------------------------------------------------------------------
    # snapshots (epoch-pinned copy-on-write reads)
    # ------------------------------------------------------------------

    @property
    def epoch(self) -> int:
        """The newest committed (published) epoch."""
        return self._epoch

    @property
    def snapshot_pins(self) -> int:
        """Number of live snapshot pins across all epochs."""
        with self._mu:
            return sum(self._snapshot_pins.values())

    def publish_epoch(self) -> int:
        """Flush and advance the epoch (non-WAL stores only).

        WAL stores publish at every ``commit_txn`` durability point;
        calling this on one (or inside an open transaction) is an error
        because flushing here would journal half a transaction.  The
        epoch only advances when something actually changed since the
        last publish, so repeated snapshot creation over a quiet store
        keeps one epoch (and retains nothing).
        """
        with self._mu:
            if self.wal is not None or self.in_txn:
                raise StorageError(
                    "publish_epoch() is only for stores without a WAL; "
                    "WAL stores publish at commit_txn()"
                )
            self.buffer.flush()
            if self._dirty_since_publish:
                self._epoch += 1
                self._dirty_since_publish = False
            return self._epoch

    def pin_snapshot(self, epoch: int | None = None) -> int:
        """Pin a committed epoch so its page images stay readable.

        ``epoch=None`` pins the newest committed epoch (publishing one
        first on non-WAL stores).  An explicit ``epoch`` must be the
        current epoch or one that is already pinned — that is how a
        caller holding one pin transfers other readers onto the same
        consistent state without racing a concurrent commit.  Returns
        the pinned epoch; every pin must be paired with
        :meth:`release_snapshot`.
        """
        with self._mu:
            if epoch is None and self.wal is None and not self._closed:
                self.publish_epoch()
            target = self._epoch if epoch is None else int(epoch)
            if target != self._epoch and target not in self._snapshot_pins:
                raise StorageError(
                    f"cannot pin epoch {target}: it is neither the current "
                    f"epoch ({self._epoch}) nor an already-pinned one, so "
                    "its page images may no longer be retained"
                )
            self._snapshot_pins[target] = self._snapshot_pins.get(target, 0) + 1
            return target

    def release_snapshot(self, epoch: int) -> None:
        """Release one pin taken with :meth:`pin_snapshot`."""
        with self._mu:
            count = self._snapshot_pins.get(epoch)
            if count is None:
                return
            if count <= 1:
                del self._snapshot_pins[epoch]
            else:
                self._snapshot_pins[epoch] = count - 1
            self._gc_versions()

    def read_image_at(self, page_id: int, epoch: int) -> bytes:
        """The committed image of a page as of ``epoch``.

        Resolution order: the retained version chain (first entry whose
        epoch is >= the snapshot epoch was current then), the
        pending-apply table (committed but not yet fsync-covered), the
        page file.  The uncommitted shadow table of an open transaction
        is deliberately invisible.
        """
        with self._mu:
            versions = self._versions.get(page_id)
            if versions:
                keys = [e for e, _ in versions]
                i = bisect_left(keys, epoch)
                if i < len(versions):
                    return versions[i][1]
            if page_id == META_PAGE_ID and self._pending_meta is not None:
                return self._pending_meta
            image = self._pending.get(page_id)
            if image is not None:
                return image
            return self.pagefile.read(page_id)

    def read_meta_at(self, epoch: int) -> dict:
        """The index metadata dict as of ``epoch``."""
        data = self.read_image_at(META_PAGE_ID, epoch)
        try:
            return unpack_meta(data)
        except Exception as exc:
            raise StorageError(
                f"meta page at epoch {epoch} is corrupt: {exc}"
            ) from exc

    def changed_pages_between(
        self, old_epoch: int, new_epoch: int
    ) -> frozenset[int] | None:
        """Pages whose committed content differs between two epochs.

        Returns ``None`` when the change log no longer covers the whole
        range (the caller must then treat every page as changed).
        """
        with self._mu:
            if new_epoch < old_epoch:
                return None
            changed: set[int] = set()
            for e in range(old_epoch + 1, new_epoch + 1):
                pages = self._epoch_changes.get(e)
                if pages is None:
                    return None
                changed.update(pages)
            return frozenset(changed)

    def _retain_current_image(self, page_id: int) -> None:
        """Retain the committed image of a page before it is superseded.

        Called under ``_mu``, keyed at the *current* (pre-bump) epoch,
        and strictly before the new content reaches the pending table or
        the page file.  Idempotent per epoch; pages that never had a
        committed image (fresh allocations) retain nothing.
        """
        versions = self._versions.get(page_id)
        if versions and versions[-1][0] >= self._epoch:
            return
        if page_id == META_PAGE_ID and self._pending_meta is not None:
            image: bytes | None = self._pending_meta
        else:
            image = self._pending.get(page_id)
        if image is None:
            try:
                image = self.pagefile.read(page_id)
            except (PageNotFoundError, StorageError):
                return
        if versions is None:
            versions = self._versions[page_id] = []
        versions.append((self._epoch, image))

    def _record_epoch_changes(self, changed) -> None:
        """Log the changed-page set of the epoch just published."""
        self._epoch_changes[self._epoch] = frozenset(changed)
        while len(self._epoch_changes) > CHANGE_LOG_EPOCHS:
            del self._epoch_changes[min(self._epoch_changes)]

    def _gc_versions(self) -> None:
        """Drop retained images no live snapshot can still read.

        A version entry ``(e, image)`` serves exactly the snapshots
        pinned in ``(previous_entry_epoch, e]``; entries serving no
        pinned epoch are dropped, and with no pins at all the whole
        table empties.
        """
        if not self._snapshot_pins:
            self._versions.clear()
            return
        pins = sorted(self._snapshot_pins)
        dead_pages = []
        for page_id, versions in self._versions.items():
            kept = []
            prev = -1
            for entry in versions:
                if bisect_right(pins, entry[0]) > bisect_right(pins, prev):
                    kept.append(entry)
                prev = entry[0]
            if kept:
                self._versions[page_id] = kept
            else:
                dead_pages.append(page_id)
        for page_id in dead_pages:
            del self._versions[page_id]

    # ------------------------------------------------------------------
    # node construction
    # ------------------------------------------------------------------

    def new_leaf(self) -> LeafNode:
        """Allocate a page and return a fresh empty leaf bound to it."""
        self._require_writable()
        with self._mu:
            page_id = self.pagefile.allocate()
        if self.in_txn:
            self._txn_allocated.append(page_id)
        leaf = LeafNode(page_id, self.layout.dims, self.layout.leaf_capacity)
        self.buffer.put(leaf, dirty=True)
        return leaf

    def new_internal(self, level: int, extent: int = 1) -> InternalNode:
        """Allocate page(s) and return a fresh empty internal node.

        ``extent > 1`` creates an X-tree-style supernode spanning that
        many pages (see :class:`repro.indexes.srx.SRXTree`).
        """
        self._require_writable()
        with self._mu:
            page_id = self.pagefile.allocate()
            extra_pages = [self.pagefile.allocate() for _ in range(extent - 1)]
        node = InternalNode(
            page_id,
            self.layout.dims,
            self.layout.node_capacity_for(extent),
            level,
            has_rects=self.layout.has_rects,
            has_spheres=self.layout.has_spheres,
            has_weights=self.layout.has_weights,
        )
        node.extra_pages = extra_pages
        if self.in_txn:
            self._txn_allocated.extend(node.all_page_ids)
        self.buffer.put(node, dirty=True)
        return node

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------

    def read(self, page_id: int, *, pin: bool = False) -> Node:
        """Fetch a node, counting a physical read per page on a miss.

        A supernode spanning ``e`` pages costs ``e`` physical reads —
        the X-tree cost model.  When a trace span is active, every fetch
        is also recorded as a page event (hit or physical read) so
        EXPLAIN can attribute the query's I/O.
        """
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

    def _read_page_image(self, page_id: int) -> bytes:
        """One physical page image, honouring shadow and pending tables.

        During a transaction the freshest copy of an evicted dirty page
        lives in the shadow table, not the data file; between a batched
        (unsynced) WAL commit and the next fsync boundary it lives in
        the pending-apply table.  Reading from either still counts as a
        physical read (the page *would* have come from disk had the
        buffer been larger), which preserves the EXPLAIN-pages ==
        ``IOStats.page_reads`` invariant.
        """
        if self._shadow:
            image = self._shadow.get(page_id)
            if image is not None:
                return image
        with self._mu:
            if self._pending:
                image = self._pending.get(page_id)
                if image is not None:
                    return image
            return self.pagefile.read(page_id)

    def write(self, node: Node) -> None:
        """Record that ``node`` was mutated (write-back happens lazily)."""
        self._require_writable()
        self.buffer.put(node, dirty=True)

    def pin(self, page_id: int) -> None:
        """Protect a buffered page from eviction."""
        self.buffer.pin(page_id)

    def unpin(self, page_id: int) -> None:
        """Release a pin taken with :meth:`pin` or ``read(pin=True)``."""
        self.buffer.unpin(page_id)

    def free(self, node_or_id: Node | int) -> None:
        """Release every page of a node back to the page file.

        Inside a transaction the release is *deferred* to commit time:
        an aborted transaction must leave the committed tree intact, and
        the committed tree may still reference these pages.
        """
        self._require_writable()
        if isinstance(node_or_id, int):
            page_ids = [node_or_id]
        else:
            page_ids = node_or_id.all_page_ids
        self.buffer.discard(page_ids[0])
        if self.in_txn:
            for page_id in page_ids:
                self._shadow.pop(page_id, None)
            self._txn_freed.extend(page_ids)
            return
        with self._mu:
            for page_id in page_ids:
                if self._snapshot_pins:
                    # The in-memory page file discards content on free,
                    # so the committed image must be retained first.
                    self._retain_current_image(page_id)
                self._pending.pop(page_id, None)
                self.pagefile.free(page_id)
            self._dirty_since_publish = True

    def flush(self) -> None:
        """Write back every dirty buffered node.

        Also drains the pending-apply table (after fsyncing the WAL, so
        log-before-data ordering holds) — after a flush the data file
        carries every committed transaction.
        """
        self._require_healthy()
        self.buffer.flush()
        if self._has_pending:
            self.wal.sync()
            self._apply_pending()
        with self._mu:
            self.pagefile.sync()

    def drop_cache(self) -> None:
        """Flush, then empty the buffer pool.

        The benchmark harness calls this before each measured query so
        that every query starts cold and the read counter matches the
        paper's per-query disk-read metric.
        """
        self.buffer.clear()

    def _delta_base(self, page_id: int) -> bytes | None:
        """The image a page's next log record may be cut against.

        ``None`` unless the log already holds an image of the page.
        Otherwise its current image — shadow, pending table, then a raw
        page-file read that is no node fetch (no ``IOStats`` or buffer
        pool involved).  A failed read is ``None`` too:
        the log then takes the page's non-zero ranges, which need no base.
        """
        if not self.wal.has_image(page_id):
            return None
        try:
            return self._read_page_image(page_id)
        except (StorageError, OSError):
            return None

    def _write_back(self, node: Node) -> None:
        image = self.codec.encode(node)
        page_size = self.layout.page_size
        in_txn = self.in_txn
        for i, page_id in enumerate(node.all_page_ids):
            chunk = image[i * page_size : (i + 1) * page_size]
            if in_txn:
                # Journal + shadow; the data file is untouched until commit.
                self.wal.log_page(page_id, chunk, self._delta_base(page_id))
                self._shadow[page_id] = chunk
            else:
                with self._mu:
                    if self._snapshot_pins:
                        self._retain_current_image(page_id)
                    self.pagefile.write(page_id, chunk)
                    self._dirty_since_publish = True
        extent = node.extent
        self.stats.page_writes += extent
        if node.is_leaf:
            self.stats.leaf_writes += extent
        else:
            self.stats.node_writes += extent

    # ------------------------------------------------------------------
    # metadata (persistence)
    # ------------------------------------------------------------------

    def write_meta(self, meta: dict) -> None:
        """Persist an index metadata dict into the reserved meta page."""
        self._require_writable()
        image = pack_meta(meta)
        if len(image) > self.layout.page_size:
            raise StorageError("index metadata does not fit in the meta page")
        if self.in_txn:
            self.wal.log_meta(image, self._meta_base())
            self._shadow_meta = image
            return
        self._require_healthy()
        with self._mu:
            if self._snapshot_pins:
                self._retain_current_image(META_PAGE_ID)
            self.pagefile.write(META_PAGE_ID, image)
            self.pagefile.sync()
            self._dirty_since_publish = True

    def _meta_image(self) -> bytes:
        """Page 0's newest image: shadow, pending table, then the page file."""
        with self._mu:
            if self._shadow_meta is not None:
                return self._shadow_meta
            if self._pending_meta is not None:
                return self._pending_meta
            return meta_image(self.pagefile.read(META_PAGE_ID))

    def _meta_base(self) -> bytes | None:
        """The image the next meta record may be cut against.

        :meth:`_delta_base`'s rule for page 0: ``None`` unless the log
        already holds a meta image, else the newest one — which, once an
        fsync boundary has applied it, is read back from the page file.
        """
        if not self.wal.has_image(META_PAGE_ID):
            return None
        try:
            return self._meta_image()
        except (StorageError, OSError):
            return None

    def read_meta(self) -> dict:
        """Load the index metadata dict from the reserved meta page."""
        data = self._meta_image()
        try:
            return unpack_meta(data)
        except Exception as exc:
            raise StorageError(f"meta page is corrupt: {exc}") from exc

    # ------------------------------------------------------------------
    # transactions (WAL-backed durability)
    # ------------------------------------------------------------------

    def begin_txn(self) -> int:
        """Open a WAL transaction; page writes shadow until commit."""
        if self.wal is None:
            raise WALError("node store has no write-ahead log attached")
        self._require_healthy()
        txn_id = self.wal.begin()
        self._shadow.clear()
        self._shadow_meta = None
        self._txn_freed.clear()
        self._txn_allocated.clear()
        return txn_id

    def commit_txn(self) -> None:
        """Make the open transaction durable, then apply it.

        Sequence: flush dirty buffers (their images land in the WAL and
        the shadow table), append COMMIT (the durability point), move
        the shadow into the pending-apply table, and — only if the
        commit fsynced the log (``sync_every`` boundary) — apply every
        pending image and deferred free to the data file, checkpointing
        if the log has outgrown its threshold.  Batched (unsynced)
        commits stay WAL-only until the next fsync boundary, so the
        data file can never hold pages of a transaction whose COMMIT
        record the kernel might not have persisted (the write-ahead
        rule).  A crash after COMMIT but before (or during) the apply
        is exactly what :func:`~repro.storage.wal.recover` repairs on
        reopen.

        A failure *before* the COMMIT record is durable rolls back
        normally; a failure *after* (apply, free, or checkpoint)
        poisons the store — see :attr:`poisoned` — because the
        transaction is already committed and must not be undone in
        memory.
        """
        if not self.in_txn:
            raise WALError("no open transaction")
        self._require_healthy()
        self.buffer.flush()
        try:
            synced = self.wal.commit()
        except BaseException as exc:
            if not self.wal.in_txn:
                # The COMMIT record reached the log before the failure
                # (an fsync error, say): the transaction may already be
                # durable, so an in-memory rollback could diverge from
                # what recovery will replay.  Poison instead.
                self._poison(f"{type(exc).__name__}: {exc}")
            raise
        # -- durability point passed: no in-memory rollback below here.
        # Publish the new committed state atomically with respect to
        # snapshot readers: retain the superseded committed images
        # (keyed at the pre-bump epoch, captured before the pending
        # table or the page file is touched), move the shadow into the
        # pending-apply table, and bump the epoch.
        with self._mu:
            changed = set(self._shadow)
            changed.update(self._txn_freed)
            if self._shadow_meta is not None:
                changed.add(META_PAGE_ID)
            changed.difference_update(self._txn_allocated)
            if self._snapshot_pins:
                for page_id in changed:
                    self._retain_current_image(page_id)
            self._pending.update(self._shadow)
            if self._shadow_meta is not None:
                self._pending_meta = self._shadow_meta
            self._pending_frees.extend(self._txn_freed)
            self._shadow.clear()
            self._shadow_meta = None
            self._txn_freed.clear()
            self._txn_allocated.clear()
            self._epoch += 1
            self._record_epoch_changes(changed)
        try:
            if synced:
                self._apply_pending()
            if self.wal.size() > self.wal.checkpoint_bytes:
                self.checkpoint()  # fsyncs the log, so pending drains too
        except BaseException as exc:
            self._poison(f"{type(exc).__name__}: {exc}")
            raise

    @property
    def _has_pending(self) -> bool:
        return bool(
            self._pending or self._pending_frees
        ) or self._pending_meta is not None

    def _apply_pending(self) -> None:
        """Apply fsync-covered committed images to the data file.

        Only called once the WAL records covering the pending table are
        known durable (commit-with-fsync, :meth:`flush`, checkpoint, or
        close), preserving log-before-data ordering.
        """
        # No retention here: these images belong to already-published
        # epochs, and any older epoch a snapshot still pins was retained
        # at its commit's publish point.  Retaining now would mislabel
        # pre-commit content with the current epoch.
        with self._mu:
            for page_id, image in self._pending.items():
                self.pagefile.write(page_id, image)
            if self._pending_meta is not None:
                self.pagefile.write(META_PAGE_ID, self._pending_meta)
            for page_id in self._pending_frees:
                self.pagefile.free(page_id)
            self._pending.clear()
            self._pending_meta = None
            self._pending_frees.clear()

    def abort_txn(self) -> None:
        """Roll the open transaction back entirely in memory.

        Nothing journaled reaches the data file; dirty buffer frames are
        dropped (not flushed), shadowed images and deferred frees are
        discarded, and pages allocated by the transaction return to the
        free list.  The pending-apply table (earlier *committed*
        transactions awaiting an fsync boundary) is untouched — those
        are durable and must survive the abort.  The caller must
        restore its own counters (root id, height, size) from a
        pre-transaction snapshot.
        """
        if self.wal is not None and self.wal.in_txn:
            self.wal.abort()
        self.buffer.drop()
        self._shadow.clear()
        self._shadow_meta = None
        self._txn_freed.clear()
        with self._mu:
            # Pages allocated by the aborted transaction never had a
            # committed image, so no retention — just return them.
            for page_id in reversed(self._txn_allocated):
                self.pagefile.free(page_id)
        self._txn_allocated.clear()

    def checkpoint(self) -> None:
        """Drain pending applies, fsync the data file, truncate the WAL.

        Order matters: the log is fsynced first (making every batched
        commit durable), then the pending images reach the data file,
        then the data file is fsynced, and only then is the log
        truncated — at no point can the data file hold pages the
        durable log does not cover, and the log is only dropped once
        the data file no longer needs it.
        """
        if self.wal is None:
            return
        self._require_healthy()
        if self._has_pending:
            self.wal.sync()
            self._apply_pending()
        with self._mu:
            self.pagefile.sync()
        self.wal.truncate()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has completed."""
        return self._closed

    def close(self) -> None:
        """Flush everything and close the backing page file (idempotent).

        A poisoned store closes *without* flushing or checkpointing:
        its in-memory state is suspect and the WAL — which still holds
        every committed transaction — must survive untruncated so the
        next open can replay it into the data file.  A readonly store
        has nothing to flush.  Every path empties the buffer pool, so a
        closed store cannot go on answering reads from warm frames.
        """
        if self._closed:
            return
        if self._poisoned is not None or self.readonly:
            self._closed = True
            if self.wal is not None:
                self.wal.close()
        else:
            if self.in_txn:  # a caller died mid-transaction: roll back
                self.abort_txn()
            self.flush()
            if self.wal is not None:
                self.checkpoint()
                self.wal.close()
        # Nothing dirty is left (flushed, or never to be written); the
        # next read reaches the closed page file and its StorageError.
        self.buffer.drop()
        self.pagefile.close()
        self._closed = True

    def __enter__(self) -> "NodeStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
