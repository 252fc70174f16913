"""Physical write-ahead log: crash-safe page updates.

The SR-tree is a *dynamic, disk-based* index, and a single insert
mutates several pages (leaf, split sibling, every ancestor, the meta
page holding the root pointer).  A crash between any two of those page
writes leaves the file torn: a parent pointing at a child that was never
written, a root pointer into a half-updated tree.  The WAL closes that
window with classic physical redo logging:

1. during a transaction every page image is appended to the log — the
   data file is **not** touched;
2. ``commit`` appends a COMMIT record (``fsync`` according to the
   batching policy) — this is the durability point;
3. only then are the images applied to the data file;
4. on reopen, :func:`recover` replays every *committed* transaction's
   images into the data file (pure redo — replay is idempotent) and
   discards the torn tail after the last intact record.

Uncommitted transactions never reach the data file, so recovery needs no
undo pass.  A checkpoint (automatic once the log exceeds
:data:`CHECKPOINT_BYTES`, and on ``close``) fsyncs the data file and
truncates the log.

The durability point of step 2 is also the store's *publish* point for
snapshot isolation: ``NodeStore.commit_txn`` bumps the committed epoch
there, and that one step turns every page the transaction wrote (the
entries above the epoch in the store's page table) into committed
state — which is why an epoch-pinned reader sees either all of a
transaction or none of it (``docs/CONCURRENCY.md``).

Record format (little endian)::

    +--------+------+---------+-------------+-------+-----------+
    | magic  | type | txn id  | payload len | CRC32 | payload   |
    | u32    | u8   | u64     | u32         | u32   | ...       |
    +--------+------+---------+-------------+-------+-----------+

``CRC32`` covers type, txn id, and payload, so a torn append (or a bit
flip) invalidates the record and everything after it.  IMAGE payloads
are ``page_id (u32) + padded image length (u32)`` followed by ``offset
(u32) + length (u32) + bytes`` ranges over a page of zeros; DELTA
payloads are ``page_id (u32) + base CRC32 (u32) + padded image length
(u32)`` followed by the same ranges over the base image; BEGIN/COMMIT
have empty payloads.  The meta page is page 0 here as in the store: its
records are IMAGEs and DELTAs of a whole padded page, like any node's.
Types 2 (PAGE, a whole image, which builds before IMAGE wrote in its
place), 3 (META, a raw meta image) and 7 (META_DELTA, a delta of one)
are reserved: no writer emits them, the numbers are never reused, and a
log carrying one is refused with a :class:`WALError` — not scanned as a
torn tail, which would drop the committed transactions behind it
without a word.  Every clean close leaves an empty log, so that is the
way to carry a file between builds.

**Log the bytes that are not already known.**  One range encoder
(:func:`_encode_ranges`) cuts every record that carries page bytes.  The
*first* write of a page since the last truncate has nothing in the log
to lean on, so it is cut against a page of zeros — an IMAGE: a leaf is
mostly the padding of its fixed data areas, the meta page mostly the
padding behind its pickled dict, and the zeros stay out of the log.  The
record kind itself says "start from zeros"; replay never infers that
from a CRC, so an IMAGE overrides whatever image of the page the log
held before (the page was freed and reallocated, or its base was
stale).  Every later write is a DELTA: the ranges in which the new image
differs from the page's current one, plus the CRC32 of that (padded)
base image.  The log keeps one CRC per imaged page — four bytes, never
the image — and :meth:`WriteAheadLog.log_page` cuts a delta only against
a base that has exactly that CRC; a stale base (the page's only image
sat in an aborted transaction, the page was freed and reallocated, the
read failed) gets an IMAGE instead, which is always correct.  The CRC
table follows the same rule replay does — a transaction's images count
only once it commits — so the writer and :func:`recover` always agree on
what a delta applies to.  Replay never takes a base from the data file
(a crash while an earlier recovery was applying images can leave any
page torn): it keeps one running image per distinct page, applies each
committed transaction's records to it, and treats a delta whose base
CRC does not match as a corrupt record — the scan stops there, as for a
torn tail.

**fsync batching.**  ``sync_every=1`` (default) fsyncs on every commit —
every acknowledged insert survives an OS crash.  ``sync_every=N`` fsyncs
every Nth commit: process crashes lose nothing (the OS has the bytes),
OS crashes may lose up to the last N-1 acknowledged transactions, and
insert throughput rises accordingly.  :meth:`WriteAheadLog.commit`
returns whether it fsynced so callers can honour the write-ahead rule:
a batched (unsynced) commit must stay WAL-only — its images may reach
the data file only once a later commit, :meth:`WriteAheadLog.sync`, or
checkpoint has made the covering log records durable.  Otherwise the
kernel could persist data-file pages *before* the COMMIT record, and
recovery (which discards the torn log tail) would leave a partially
applied transaction in the data file — structural corruption that page
checksums cannot see.  :class:`~repro.storage.store.NodeStore`
implements this by keeping batched commits in its page table, above
the epoch the data file has been brought to, until an fsync covers them.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from ..exceptions import WALError
from ..obs.hooks import on_wal_append, on_wal_commit, on_wal_recovery
from .constants import META_PAGE_ID
from .pagefile import PageFile

__all__ = ["RecoveryReport", "WriteAheadLog", "open_wal", "recover", "scan_wal"]

#: The log size past which the node store checkpoints after a commit.
CHECKPOINT_BYTES = 16 * 1024 * 1024

_RECORD = struct.Struct("<IBQII")
_MAGIC = 0x57414C31  # "WAL1"

REC_BEGIN = 1
REC_COMMIT = 4
REC_DELTA = 5
REC_IMAGE = 6
#: Record types older builds wrote: refused by _scan, never written, never reused.
_RESERVED = {2: "PAGE", 3: "META", 7: "META_DELTA"}

_RECORD_KIND = {REC_BEGIN: "marker", REC_COMMIT: "marker", REC_IMAGE: "page",
                REC_DELTA: "delta"}

_IMAGE = struct.Struct("<II")  # page id, padded image length
_DELTA = struct.Struct("<III")  # page id, CRC32 of the padded base, its length
_RANGE = struct.Struct("<II")  # offset, length (the bytes follow)
_MIN_PAYLOAD = {REC_IMAGE: _IMAGE.size, REC_DELTA: _DELTA.size}


@dataclass(slots=True)
class _Txn:
    """One transaction as :func:`scan_wal` walks it.

    ``pages`` is the transaction-local overlay (page id -> image after
    the records seen so far); COMMIT merges it into the scan's running
    image table and empties it, so a committed ``_Txn`` keeps only its
    id and record counts.
    """

    txn_id: int
    pages: dict[int, bytes] = field(default_factory=dict)
    whole_images: int = 0
    deltas: int = 0


@dataclass
class RecoveryReport:
    """What a recovery pass found and did."""

    committed_txns: int = 0
    replayed_pages: int = 0  # whole images (IMAGE records)
    replayed_deltas: int = 0
    replayed_meta: bool = False  # page 0 was replayed
    discarded_txns: int = 0
    discarded_bytes: int = 0
    last_txn_id: int = 0

    def __str__(self) -> str:
        return (
            f"recovered {self.committed_txns} committed txn(s) "
            f"({self.replayed_pages} page image(s), "
            f"{self.replayed_deltas} delta(s)"
            f"{', meta' if self.replayed_meta else ''}), discarded "
            f"{self.discarded_txns} uncommitted txn(s) and "
            f"{self.discarded_bytes} torn tail byte(s)"
        )


class WriteAheadLog:
    """Append-only physical redo log for one page file.

    Parameters
    ----------
    path:
        Log file path (conventionally ``<data file> + ".wal"``).
    sync_every:
        Fsync the log on every Nth commit (see module docstring).
    fault_plan:
        Optional :class:`~repro.storage.faults.FaultPlan` sharing the
        crash-test write budget with the data file, so the kill harness
        can die mid-log-append too.
    """

    def __init__(self, path, *, sync_every: int = 1, fault_plan=None) -> None:
        if sync_every < 1:
            raise ValueError(f"sync_every must be >= 1, got {sync_every}")
        self._path = os.fspath(path)
        self._file = open(self._path, "ab")
        self._sync_every = sync_every
        self._commits_since_sync = 0
        self._fault_plan = fault_plan
        self._txn_id = 0
        self._in_txn = False
        self._closed = False
        # Bytes in the log file, counted as they are appended (an "ab"
        # handle creates the file, so the size is always readable).
        self._size = os.path.getsize(self._path)
        # CRC32 of the newest logged image of every page imaged since
        # the last truncate: committed transactions, and the open one's
        # overlay that commit() merges and abort() drops — the same
        # visibility rule scan_wal applies to the images themselves.
        self._image_crcs: dict[int, int] = {}
        self._txn_image_crcs: dict[int, int] = {}

    # ------------------------------------------------------------------

    @property
    def path(self) -> str:
        """Filesystem path of the log file."""
        return self._path

    @property
    def in_txn(self) -> bool:
        """Whether a transaction is currently open."""
        return self._in_txn

    def size(self) -> int:
        """Current log size in bytes (appended so far, flushed or not)."""
        return self._size

    def has_image(self, page_id: int) -> bool:
        """Whether :meth:`log_page` could cut a delta for this page.

        True once the page has an image in the log since the last
        truncate, in a committed transaction or earlier in the open one.
        """
        return self._image_crc(page_id) is not None

    def _image_crc(self, page_id: int) -> int | None:
        crc = self._txn_image_crcs.get(page_id)
        return self._image_crcs.get(page_id) if crc is None else crc

    # ------------------------------------------------------------------
    # logging
    # ------------------------------------------------------------------

    def begin(self) -> int:
        """Open a transaction; returns its id."""
        if self._in_txn:
            raise WALError("transaction already open")
        self._txn_id += 1
        self._in_txn = True
        self._append(REC_BEGIN, self._txn_id, b"")
        return self._txn_id

    def log_page(self, page_id: int, image: bytes,
                 base: bytes | None = None) -> None:
        """Journal the after-image of one page, as whatever is smaller.

        ``base`` is the page's current image (the committed one, or the
        one this transaction logged before), padded like ``image``; pass
        it when :meth:`has_image` says the log already holds the page.
        If its CRC32 is the one the log remembers for the page, the byte
        ranges that differ from it are cut as a DELTA; otherwise — or
        when those ranges would not be smaller — the record is an IMAGE,
        the ranges that differ from a page of zeros.  The meta page is
        page 0 (its records are counted as ``record="meta"``).
        """
        self._require_txn()
        kind, payload = REC_DELTA, None
        known = self._image_crc(page_id)
        if (known is not None and base is not None and len(base) == len(image)
                and zlib.crc32(base) == known):
            payload = _DELTA.pack(page_id, known, len(image)) + _encode_ranges(base, image)
        # An IMAGE is longer than its non-zero words, and most deltas
        # are not: those need no IMAGE cut to be compared with.
        words = np.frombuffer(image, np.uint32, len(image) >> 2)
        if payload is None or len(payload) >= _IMAGE.size + 4 * np.count_nonzero(words):
            sparse = _IMAGE.pack(page_id, len(image)) + _encode_ranges(None, image)
            if payload is None or len(payload) >= len(sparse):
                kind, payload = REC_IMAGE, sparse
        self._append(kind, self._txn_id, payload,
                     "meta" if page_id == META_PAGE_ID else None)
        self._txn_image_crcs[page_id] = zlib.crc32(image)

    def commit(self) -> bool:
        """Append the COMMIT record; fsync per the batching policy.

        Returns ``True`` when the log was fsynced — this transaction
        (and every batched one before it) is now durable against OS
        crashes, so its images may be applied to the data file.
        Returns ``False`` for a batched commit that is riding a later
        fsync: the record is flushed (safe against *process* crashes)
        but callers must keep the transaction WAL-only until a commit
        that returns ``True``, :meth:`sync`, or a checkpoint covers it,
        or the data file could run ahead of the durable log (the
        write-ahead rule).
        """
        self._require_txn()
        self._append(REC_COMMIT, self._txn_id, b"")
        self._in_txn = False
        self._image_crcs.update(self._txn_image_crcs)
        self._txn_image_crcs.clear()
        self._commits_since_sync += 1
        self._file.flush()
        synced = self._commits_since_sync >= self._sync_every
        if synced:
            os.fsync(self._file.fileno())
            self._commits_since_sync = 0
        on_wal_commit(txn_id=self._txn_id, synced=synced)
        return synced

    def abort(self) -> None:
        """Drop the open transaction (its records are never committed)."""
        self._in_txn = False
        self._txn_image_crcs.clear()

    def _require_txn(self) -> None:
        if not self._in_txn:
            raise WALError("no open transaction")

    def _append(self, rec_type: int, txn_id: int, payload: bytes,
                label: str | None = None) -> None:
        """Append one record; ``label`` overrides its kind's metric label."""
        crc = _record_crc(rec_type, txn_id, payload)
        record = _RECORD.pack(_MAGIC, rec_type, txn_id, len(payload), crc) + payload
        plan = self._fault_plan
        if plan is not None:
            allowed = plan.take_write_budget(len(record))
            if allowed < len(record):
                # Simulated death mid-append: a torn log record.
                self._file.write(record[:allowed])
                self._file.flush()
                self._size += allowed
                plan.die("WAL append")
        self._file.write(record)
        self._size += len(record)
        on_wal_append(label or _RECORD_KIND[rec_type], len(record))

    # ------------------------------------------------------------------
    # checkpointing / lifecycle
    # ------------------------------------------------------------------

    def truncate(self) -> None:
        """Empty the log (caller must have fsynced the data file first)."""
        self._file.truncate(0)
        self._file.seek(0)
        self._file.flush()
        os.fsync(self._file.fileno())
        self._commits_since_sync = 0
        self._size = 0
        self._image_crcs.clear()
        self._txn_image_crcs.clear()

    def sync(self) -> None:
        """Force an fsync regardless of the batching policy."""
        self._file.flush()
        os.fsync(self._file.fileno())
        self._commits_since_sync = 0

    def close(self) -> None:
        """Flush and close the log file (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if not self._file.closed:
            self._file.flush()
            self._file.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _record_crc(rec_type: int, txn_id: int, payload: bytes) -> int:
    crc = zlib.crc32(bytes((rec_type,)))
    crc = zlib.crc32(txn_id.to_bytes(8, "little"), crc)
    return zlib.crc32(payload, crc) & 0xFFFFFFFF


def _encode_ranges(base: bytes | None, image: bytes) -> bytes:
    """``offset, length, bytes`` ranges turning ``base`` into ``image``.

    ``base`` has ``image``'s length; ``None`` stands for that many zero
    bytes.  The images are compared four bytes at a time (a byte-exact
    diff costs twice the time for 3 % fewer bytes), so a range starts
    and ends on a word boundary.  Changed words with at most two
    unchanged ones between them are logged as one range: the gap costs
    no more than the second range header would.
    """
    size = len(image)
    words = size >> 2
    new = np.frombuffer(image, np.uint32, words)
    changed = new != (0 if base is None else np.frombuffer(base, np.uint32, words))
    # Where a word's successor differs in changedness a run starts or
    # ends: with the two ends of the page, alternately (start, end).
    bounds = (np.flatnonzero(changed[1:] != changed[:-1]) + 1).tolist()
    if words and changed[0]:
        bounds.insert(0, 0)
    if words and changed[-1]:
        bounds.append(words)
    runs = []
    if bounds:
        start = bounds[0]
        for i in range(1, len(bounds) - 1, 2):
            if bounds[i + 1] - bounds[i] > 2:
                runs.append((start << 2, bounds[i] << 2))
                start = bounds[i + 1]
        runs.append((start << 2, bounds[-1] << 2))
    tail = words << 2  # a page size that is no multiple of four
    if image[tail:] != (bytes(size - tail) if base is None else base[tail:]):
        runs.append((tail, size))
    parts = []
    for start, end in runs:
        parts.append(_RANGE.pack(start, end - start))
        parts.append(image[start:end])
    return b"".join(parts)


def _apply_ranges(image: bytearray, payload, pos: int) -> bytearray | None:
    """Write the ranges at ``payload[pos:]`` into ``image``, in place.

    ``None`` if a range is cut short or leaves the image: the record is
    corrupt, and the caller ends the scan.
    """
    size, end = len(image), len(payload)
    while pos < end:
        if pos + _RANGE.size > end:
            return None
        offset, length = _RANGE.unpack_from(payload, pos)
        pos += _RANGE.size
        if offset + length > size or pos + length > end:
            return None
        image[offset : offset + length] = payload[pos : pos + length]
        pos += length
    return image


def _apply_delta(base, payload) -> bytearray | None:
    """The image a DELTA payload makes of ``base``; ``None`` if it cannot.

    ``base`` is the page's running image (``None`` when the log holds
    none).  A delta is only valid against the exact image it was cut
    from, so a missing base, a CRC mismatch, or a range that leaves the
    page are all reported the same way — the caller ends the scan.
    """
    _page_id, base_crc, size = _DELTA.unpack_from(payload)
    if base is None or len(base) > size:
        return None
    image = bytearray(size)
    image[: len(base)] = base
    if zlib.crc32(image) != base_crc:
        return None
    return _apply_ranges(image, payload, _DELTA.size)


def _apply_image(payload) -> tuple[int, bytearray | None]:
    """Page id and image of an IMAGE payload: its ranges over zeros."""
    page_id, size = _IMAGE.unpack_from(payload)
    return page_id, _apply_ranges(bytearray(size), payload, _IMAGE.size)


def _scan(path) -> tuple[list[_Txn], dict[int, bytes], RecoveryReport]:
    """Walk a log: committed transactions, final images, report.

    The image table holds one entry per distinct page — the newest
    committed image, a materialised buffer — so the scan's memory is
    bounded by distinct pages x page size on top of the raw log, no
    matter how many transactions rewrote each page.
    """
    report = RecoveryReport()
    committed: list[_Txn] = []
    open_txns: dict[int, _Txn] = {}
    images: dict[int, bytes] = {}
    with open(path, "rb") as handle:
        data = memoryview(handle.read())
    size = len(data)
    pos = 0
    header_size = _RECORD.size
    while pos + header_size <= size:
        magic, rec_type, txn_id, length, crc = _RECORD.unpack_from(data, pos)
        if magic != _MAGIC:
            break
        end = pos + header_size + length
        if end > size:
            break  # torn payload
        payload = data[pos + header_size : end]
        if _record_crc(rec_type, txn_id, payload) != crc:
            break  # bit flip or torn header
        if rec_type in _RESERVED:
            raise WALError(
                f"{os.fspath(path)}: record type {rec_type} ({_RESERVED[rec_type]}) "
                f"at byte {pos} is from an older build and no longer replayed; "
                "close the index cleanly with that build (an empty log) before "
                "opening it here"
            )
        report.last_txn_id = max(report.last_txn_id, txn_id)
        txn = open_txns.get(txn_id)
        if rec_type == REC_BEGIN:
            open_txns[txn_id] = _Txn(txn_id)
        elif rec_type not in _RECORD_KIND:
            break  # unknown record type: treat as corruption
        elif length < _MIN_PAYLOAD.get(rec_type, 0):
            break  # too short to be what it says it is: corruption too
        elif txn is None:
            pass  # a record of a transaction whose BEGIN the log lacks
        elif rec_type == REC_IMAGE:
            # From zeros, whatever image of the page the scan holds.
            page_id, image = _apply_image(payload)
            if image is None:
                break
            txn.pages[page_id] = image
            txn.whole_images += 1
        elif rec_type == REC_DELTA:
            page_id = _DELTA.unpack_from(payload)[0]
            base = txn.pages.get(page_id)
            if base is None:
                base = images.get(page_id)
            image = _apply_delta(base, payload)
            if image is None:
                break  # not cut from the image the log holds: corrupt
            txn.pages[page_id] = image
            txn.deltas += 1
        else:  # REC_COMMIT
            del open_txns[txn_id]
            images.update(txn.pages)
            txn.pages.clear()
            committed.append(txn)
        pos = end
    report.committed_txns = len(committed)
    report.discarded_txns = len(open_txns)
    report.discarded_bytes = size - pos
    return committed, images, report


def scan_wal(path) -> tuple[list[_Txn], RecoveryReport]:
    """Parse a log file into its committed transactions.

    Walks records from the start, stopping at the first torn or corrupt
    record (everything after it is unreachable tail, by construction —
    records are appended strictly in order); a DELTA that does not fit
    the image the log holds for its page counts as corrupt.
    Transactions with no COMMIT record by the time the scan stops are
    discarded.  Returns the committed transactions (id and record
    counts) in commit order plus a report; the report's ``last_txn_id``
    covers *every* txn id seen, so a re-opened WAL can continue the id
    sequence without collisions.
    """
    committed, _images, report = _scan(path)
    return committed, report


def recover(pagefile: PageFile, wal_path, *, truncate: bool = True) -> RecoveryReport:
    """Replay every committed WAL transaction into ``pagefile``.

    Pure redo: the scan folds the committed transactions, in commit
    order, into one final image per page (deltas are applied to images
    from the log, never to the data file), and each page is written
    once.  Replaying a log twice (or replaying transactions whose images
    already reached the data file) converges to the same bytes —
    asserted by ``tests/test_wal.py``.  The data file is fsynced before
    the log is truncated, closing the crash-during-recovery window.

    ``pagefile`` must be the *logical* page stack (the sealed one
    :func:`~repro.storage.stack.open_pagefile` builds), so replayed
    images are re-sealed on the way down.
    """
    if not os.path.exists(wal_path):
        return RecoveryReport()
    committed, images, report = _scan(wal_path)
    report.replayed_pages = sum(txn.whole_images for txn in committed)
    report.replayed_deltas = sum(txn.deltas for txn in committed)
    report.replayed_meta = META_PAGE_ID in images
    for page_id, image in images.items():
        if len(image) > pagefile.page_size:
            raise WALError(
                f"WAL page image for page {page_id} is {len(image)} bytes, "
                f"page size is {pagefile.page_size}"
            )
        pagefile.ensure_allocated(page_id)
        pagefile.write(page_id, bytes(image).ljust(pagefile.page_size, b"\x00"))
    pagefile.sync()
    if truncate and (committed or report.discarded_bytes or report.discarded_txns):
        # Truncation resets the txn-id sequence: a WAL opened afterwards
        # rescans an empty file and restarts ids at 1.  That is safe —
        # the ids only disambiguate records *within* one log, and the
        # log is now empty — but it does mean ids are not monotonic
        # across checkpoints.
        with open(wal_path, "r+b") as handle:
            handle.truncate(0)
            handle.flush()
            os.fsync(handle.fileno())
    on_wal_recovery(report.committed_txns, report.replayed_deltas)
    return report


def open_wal(path, *, sync_every: int = 1, fault_plan=None) -> WriteAheadLog:
    """Open a WAL for appending, continuing the txn-id sequence.

    The caller is expected to have run :func:`recover` first (the log is
    normally empty here); any surviving records are scanned so fresh
    transactions get ids strictly above everything already on disk.
    Their images do not seed the CRC table: the first write of each page
    in this session is cut against nothing — an IMAGE — which is always
    correct.
    """
    wal = WriteAheadLog(path, sync_every=sync_every, fault_plan=fault_plan)
    if wal.size():
        _, report = scan_wal(path)
        wal._txn_id = report.last_txn_id
    return wal
