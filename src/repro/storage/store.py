"""The node store: page file + buffer pool + codec + I/O accounting.

Every index does all of its node I/O through a :class:`NodeStore`.  The
store owns the physical read/write counters that the benchmarks report,
splitting them into node-level and leaf-level transfers (Figure 14 of
the paper), and exposes pinning so tree operations can hold node objects
across buffer evictions safely.

**One page table.**  Between the buffer pool and the data file a page
has at most one more home: the store's page table, ``page -> [(epoch,
image)]`` in ascending epoch order, where each entry says "from this
epoch on the page holds this image".  ``None`` is a free; at or below
the *applied* epoch (the newest whose pages the data file holds) it
stands for the file's image, so the table never copies what the file
holds.  The meta page is page 0 like any other: a whole padded page,
here and in the log.  Three kinds of entry
share the table:

* the open WAL transaction's writes and frees, one entry per page at
  ``epoch + 1`` — the uncommitted top entry, which ``commit_txn``
  publishes by bumping the epoch and ``abort_txn`` pops;
* committed entries above the applied epoch: under ``sync_every > 1``
  a commit's images wait here until the log that covers them is
  fsynced, so the data file never runs ahead of the durable log; a
  later commit of the page supersedes its entry unless a pinned
  snapshot reads it;
* entries at or below the applied epoch, kept while a pinned snapshot
  still reads them.

:meth:`NodeStore._resolve` is the one read rule: a page's image as of
epoch ``e`` is its newest table entry at or below ``e``, else the data
file.  The writer reads at ``epoch + 1``, a snapshot at its pinned
epoch, the log cuts its deltas against the writer's image.  The rule
holds because the data file is only ever written through
:meth:`NodeStore._write_file`, which first gives every pinned epoch
that would read the file an entry holding the file's image.  Without
a log the file runs ahead of every published epoch: writes land at
once, as ``epoch + 1`` (the applied epoch), and :meth:`publish_epoch`
makes that the published one.  Under a log every write belongs to a
transaction; one outside is refused with :class:`WALError`.  All
page-file access and all table bookkeeping is serialized on one
re-entrant lock so snapshot readers in other threads can share the file
handle with the single writer; buffer-pool hits never touch the lock,
and a miss with nothing in the table goes straight to the file.  See
``docs/CONCURRENCY.md``.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left

from ..exceptions import StorageError, WALError
from ..obs.tracer import trace
from .buffer import BufferPool
from .constants import META_PAGE_ID
from .layout import NodeLayout
from .nodes import InternalNode, LeafNode
from .pagefile import InMemoryPageFile, PageFile
from .serializer import NodeCodec, pack_meta, unpack_meta
from .stats import IOStats
from .wal import CHECKPOINT_BYTES, WriteAheadLog

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
        #: Called with each node just before it is encoded (eviction or
        #: flush); the owning index finishes the entries it deferred.
        self.on_encode = None
        #: Optional write-ahead log.  While a transaction is open every
        #: page write is journaled and kept in the page table instead of
        #: reaching the page file; :meth:`commit_txn` makes it durable
        #: (WAL commit) and then applies it — at once when the commit
        #: fsynced the log, otherwise at the next fsync boundary.
        self.wal = wal
        #: The page table (module docstring): page -> ascending
        #: [(epoch, image or None for a free)].
        self._pages: dict[int, list[tuple[int, bytes | None]]] = {}
        #: Pages the open transaction allocated: an abort frees them.
        self._txn_allocated: list[int] = []
        self._poisoned: str | None = None
        self._closed = False
        # -- snapshot machinery -----------------------------------------
        # One re-entrant lock serializes page-file access and the page
        # table and epoch bookkeeping.  Buffer-pool hits bypass it
        # entirely (the pool is private to the writer thread).
        self._mu = threading.RLock()
        self._epoch = 0
        #: The newest epoch whose pages the data file holds: at most
        #: ``_epoch`` under a log, ``_epoch + 1`` without one once an
        #: unpublished write has landed.
        self._applied = 0
        #: epoch -> number of live snapshot pins at that epoch.
        self._snapshot_pins: dict[int, int] = {}
        #: epoch e -> pages whose committed content changed when e was
        #: published (bounded to CHANGE_LOG_EPOCHS entries).
        self._epoch_changes: dict[int, set[int]] = {}

    @property
    def in_txn(self) -> bool:
        """Whether a WAL transaction is currently open."""
        return self.wal is not None and self.wal.in_txn

    @property
    def readonly(self) -> bool:
        """Whether the page stack rejects mutation (a read-only serving copy).

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
        """Reject mutations on a readonly store *eagerly*.

        Dirtying a buffered node would otherwise "succeed" in memory and
        be silently discarded at close (readonly close never flushes) —
        a lost update disguised as a successful call.
        """
        if self.readonly:
            raise StorageError(
                "node store is read-only (read-only serving copy); "
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
            if self.wal is not None:
                raise StorageError(
                    "publish_epoch() is only for stores without a WAL; "
                    "WAL stores publish at commit_txn()"
                )
            self.buffer.flush()
            self._epoch = self._applied
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
            for page_id in list(self._pages):
                self._trim(page_id)

    def read_image_at(self, page_id: int, epoch: int) -> bytes:
        """The committed image of a page as of ``epoch`` (see :meth:`_resolve`).

        An open transaction's entries sit above every pinnable epoch, so
        they are invisible here.
        """
        with self._mu:
            return self._resolve(page_id, epoch)

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

    # ------------------------------------------------------------------
    # the page table (all but ``_write_through`` and ``_drain`` run
    # under ``_mu``)
    # ------------------------------------------------------------------

    def _resolve(self, page_id: int, epoch: int) -> bytes:
        """The page's image as of ``epoch``: its newest table entry at or
        below ``epoch``; the data file if there is none, or if it has no
        image (it stands for the file; or the page is free, which no
        reader of that epoch reaches).  The one read rule."""
        chain = self._pages.get(page_id)
        if chain:
            for entry_epoch, image in reversed(chain):
                if entry_epoch <= epoch:
                    if image is not None:
                        return image
                    break
        return self.pagefile.read(page_id)

    def _put(self, page_id: int, image: bytes | None, epoch: int) -> None:
        """Make ``image`` (``None``: a free) the page's content from ``epoch`` on.

        The page moves to the end of the table, so frees apply in the
        order they were made (:meth:`_apply_pending`).
        """
        chain = self._pages.pop(page_id, [])
        if chain and chain[-1][0] == epoch:
            chain[-1] = (epoch, image)
        else:
            chain.append((epoch, image))
        self._pages[page_id] = chain

    def _write_file(self, page_id: int, image: bytes | None) -> None:
        """Write (``None``: free) one page of the data file.

        Every change to the data file comes through here.  A pinned
        epoch reads the page from the file when no entry lies at or
        below it, or when the newest that does is an applied entry with
        no image (one that stands for the file).  So before the file
        changes, each such entry a pin reads takes the file's image, and
        below the first entry the oldest pin gets one.  A page no pin
        can have read (never written, or freed) keeps nothing.
        """
        if self._snapshot_pins:
            pins = sorted(self._snapshot_pins)
            chain = self._pages.get(page_id, [])
            below = not chain or pins[0] < chain[0][0]
            ends = [epoch for epoch, _ in chain[1:]] + [math.inf]
            stale = [i for i, ((epoch, old), end) in enumerate(zip(chain, ends))
                     if old is None and epoch <= self._applied
                     and bisect_left(pins, epoch) < bisect_left(pins, end)]
            if below or stale:
                try:
                    base = self.pagefile.read(page_id)
                except StorageError:
                    base = None
                if base is not None:
                    for i in stale:
                        chain[i] = (chain[i][0], base)
                    if below:
                        self._pages.setdefault(page_id, chain).insert(0, (pins[0], base))
        if image is None:
            self.pagefile.free(page_id)
        else:
            self.pagefile.write(page_id, image)

    def _write_through(self, page_id: int, image: bytes | None, call: str) -> None:
        """A write outside a transaction: without a log the data file
        takes it now, as content of the unpublished ``epoch + 1``.  Under
        a log it is refused, naming ``call``: every write is journaled."""
        if self.wal is not None:
            raise WALError(
                f"{call} of page {page_id} outside a transaction: under a "
                "write-ahead log every write belongs to one"
            )
        with self._mu:
            self._applied = self._epoch + 1
            self._write_file(page_id, image)
            if self._snapshot_pins:
                self._put(page_id, None, self._applied)

    def _trim(self, page_id: int) -> None:
        """Drop the page's entries that no reader can still need.

        Entries above the applied epoch stay (the file lacks them).  Of
        the rest, an entry stays while a pin falls in its range, up to
        the next entry; the newest applied one, whose image the file
        holds, is needed only above an older one that stays, and then
        as an entry with no image: it stands for the file.
        """
        chain = self._pages[page_id]
        applied = self._applied
        n = 0
        while n < len(chain) and chain[n][0] <= applied:
            n += 1
        if n == 0:
            return
        kept = []
        if self._snapshot_pins:
            pins = sorted(self._snapshot_pins)
            kept = [chain[i] for i in range(n - 1)
                    if bisect_left(pins, chain[i][0]) < bisect_left(pins, chain[i + 1][0])]
            if kept:
                kept.append((chain[n - 1][0], None))
        kept += chain[n:]
        if kept:
            self._pages[page_id] = kept
        else:
            del self._pages[page_id]

    def _txn_pages(self) -> list[int]:
        """Pages the open transaction wrote or freed: those whose top
        entry is at ``epoch + 1`` and not in the data file yet."""
        top = self._epoch + 1
        if top <= self._applied:  # without a log that epoch is the file's
            return []
        return [page_id for page_id, chain in self._pages.items()
                if chain[-1][0] == top]

    def _drain(self) -> None:
        """Fsync the log, then apply every commit it now covers."""
        if self._applied < self._epoch:
            self.wal.sync()
            self._apply_pending()

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
        """One physical page image: the writer's, through the page table.

        During a transaction the freshest copy of an evicted dirty page
        is the table's top entry, not the data file's; between a batched
        (unsynced) WAL commit and the next fsync boundary it is a
        committed entry.  Reading either still counts as a physical read
        (the page *would* have come from disk had the buffer been
        larger), which preserves the EXPLAIN-pages ==
        ``IOStats.page_reads`` invariant.
        """
        with self._mu:
            if not self._pages:
                return self.pagefile.read(page_id)
            return self._resolve(page_id, self._epoch + 1)

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
        for page_id in page_ids:
            if self.in_txn:
                with self._mu:
                    self._put(page_id, None, self._epoch + 1)
            else:
                self._write_through(page_id, None, "free()")
        self.buffer.discard(page_ids[0])

    def flush(self) -> None:
        """Write back every dirty buffered node.

        Also applies every committed transaction still in the page
        table (after fsyncing the WAL, so log-before-data ordering holds)
        — after a flush the data file carries every committed
        transaction.
        """
        self._require_healthy()
        self.buffer.flush()
        self._drain()
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
        Otherwise the writer's image of it (:meth:`_read_page_image`,
        no node fetch: no ``IOStats`` or buffer pool involved).  A failed
        read is ``None`` too: the log then takes the page's non-zero
        ranges, which need no base.
        """
        if not self.wal.has_image(page_id):
            return None
        try:
            return self._read_page_image(page_id)
        except (StorageError, OSError):
            return None

    def _write_page(self, page_id: int, image: bytes, call: str) -> None:
        """Write one whole page: inside a transaction to the log and the
        table (the data file is untouched until commit), else through."""
        if self.in_txn:
            self.wal.log_page(page_id, image, self._delta_base(page_id))
            with self._mu:
                self._put(page_id, image, self._epoch + 1)
        else:
            self._write_through(page_id, image, call)

    def _write_back(self, node: Node) -> None:
        if self.on_encode is not None:
            self.on_encode(node)
        image = self.codec.encode(node)
        page_size = self.layout.page_size
        for i, page_id in enumerate(node.all_page_ids):
            self._write_page(page_id, image[i * page_size : (i + 1) * page_size],
                             "write-back")
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
        """Persist an index metadata dict into the reserved meta page.

        The image is padded to a whole page and written like any other:
        inside a transaction it is journaled with the transaction's
        pages; without a log page 0 goes to the data file at once and is
        fsynced.
        """
        self._require_writable()
        image = pack_meta(meta)
        page_size = self.layout.page_size
        if len(image) > page_size:
            raise StorageError("index metadata does not fit in the meta page")
        self._write_page(META_PAGE_ID, image.ljust(page_size, b"\x00"), "write_meta()")
        if not self.in_txn:
            with self._mu:
                self.pagefile.sync()

    def read_meta(self) -> dict:
        """Load the index metadata dict from the reserved meta page."""
        data = self._read_page_image(META_PAGE_ID)
        try:
            return unpack_meta(data)
        except Exception as exc:
            raise StorageError(f"meta page is corrupt: {exc}") from exc

    # ------------------------------------------------------------------
    # transactions (WAL-backed durability)
    # ------------------------------------------------------------------

    def begin_txn(self) -> int:
        """Open a WAL transaction; page writes stay in the table until commit."""
        if self.wal is None:
            raise WALError("node store has no write-ahead log attached")
        self._require_healthy()
        txn_id = self.wal.begin()
        self._txn_allocated.clear()
        return txn_id

    def commit_txn(self) -> None:
        """Make the open transaction durable, then apply it.

        Sequence: flush dirty buffers (their images land in the WAL and
        the page table), append COMMIT (the durability point), publish
        the transaction's top entries by bumping the epoch, and — only
        if the commit fsynced the log (``sync_every`` boundary) — apply
        every committed entry to the data file, checkpointing if the log
        has outgrown its threshold.  Batched (unsynced) commits stay
        WAL-only until the next fsync boundary, so the data file can
        never hold pages of a transaction whose COMMIT record the kernel
        might not have persisted (the write-ahead rule).  A crash after
        COMMIT but before (or during) the apply is exactly what
        :func:`~repro.storage.wal.recover` repairs on reopen.

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
        # Bumping the epoch publishes the top entries to snapshot
        # readers atomically; what older pins read is untouched.
        with self._mu:
            pages = self._txn_pages()
            newest_pin = max(self._snapshot_pins, default=-1)
            for page_id in pages:
                # A written page's committed entry the log has yet to
                # cover is superseded unless a pin reads it.  (One a free
                # supersedes stays: its image still reaches the file.)
                chain = self._pages[page_id]
                if (len(chain) > 1 and chain[-1][1] is not None
                        and chain[-2][0] > max(self._applied, newest_pin)):
                    del chain[-2]
            self._epoch += 1
            self._epoch_changes[self._epoch] = set(pages).difference(
                self._txn_allocated)
            self._txn_allocated.clear()
            while len(self._epoch_changes) > CHANGE_LOG_EPOCHS:
                del self._epoch_changes[min(self._epoch_changes)]
        try:
            if synced:
                self._apply_pending()
            if self.wal.size() > CHECKPOINT_BYTES:
                self.checkpoint()  # fsyncs the log, so every commit applies
        except BaseException as exc:
            self._poison(f"{type(exc).__name__}: {exc}")
            raise

    def _apply_pending(self) -> None:
        """Apply every committed entry above the applied epoch.

        Only called once the WAL records covering them are known durable
        (commit-with-fsync, :meth:`flush`, checkpoint, or close),
        preserving log-before-data ordering.  A page is written with its
        newest image, then freed if a later commit freed it.
        """
        with self._mu:
            applied, epoch = self._applied, self._epoch
            writes, frees = [], []
            for page_id, chain in self._pages.items():
                images = [image for e, image in chain if applied < e <= epoch]
                if images:
                    written = [image for image in images if image is not None]
                    if written:
                        writes.append((page_id, written[-1]))
                    if images[-1] is None:
                        frees.append((page_id, None))
            for page_id, image in writes + frees:
                self._write_file(page_id, image)
            self._applied = epoch
            for page_id, _ in writes + frees:
                if page_id in self._pages:
                    self._trim(page_id)

    def abort_txn(self) -> None:
        """Roll the open transaction back entirely in memory.

        Nothing journaled reaches the data file; dirty buffer frames are
        dropped (not flushed), the transaction's top entries (writes and
        deferred frees) are popped, and pages allocated by the
        transaction return to the free list.  Committed entries awaiting
        an fsync boundary are untouched — those are durable and must
        survive the abort.  The caller must restore its own counters
        (root id, height, size) from a pre-transaction snapshot.
        """
        if self.wal is not None and self.wal.in_txn:
            self.wal.abort()
        self.buffer.drop()
        with self._mu:
            for page_id in self._txn_pages():
                chain = self._pages[page_id]
                chain.pop()
                if not chain:
                    del self._pages[page_id]
            # Pages allocated by the aborted transaction never had a
            # committed image: nothing to keep, just return them.
            for page_id in reversed(self._txn_allocated):
                self.pagefile.free(page_id)
        self._txn_allocated.clear()

    def checkpoint(self) -> None:
        """Apply every commit, fsync the data file, truncate the WAL.

        Order matters: the log is fsynced first (making every batched
        commit durable), then the committed entries reach the data file,
        then the data file is fsynced, and only then is the log
        truncated — at no point can the data file hold pages the
        durable log does not cover, and the log is only dropped once
        the data file no longer needs it.
        """
        if self.wal is None:
            return
        self._require_healthy()
        self._drain()
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
