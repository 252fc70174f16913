"""``NodeStore`` against a model of its committed states.

A Hypothesis state machine drives a ``NodeStore`` over a checksummed
``FilePageFile`` — with a write-ahead log, or without one and publishing
epochs by hand — through node writes (leaves, internal nodes, two-page
supernodes), frees, meta writes, spills, synced and batched commits,
aborts, snapshot pins, reads, in-place refreshes and releases, saves,
checkpoints and two kinds of death; under the log also node writes,
frees and meta writes outside a transaction, each of which must be
refused and change nothing.  The oracle is a dict of committed page
maps by epoch (the meta page is page 0 in every map).  Between steps
it checks:

* a pinned snapshot reads exactly its epoch's bytes, meta included,
  whatever the writer has done since — also with a transaction open;
* under a log, the data file never holds a page (or meta) image that
  only a commit whose COMMIT is not fsynced made — also at the moment
  of every log fsync, where a meta page written ahead of the log shows;
* no image is retained for snapshots when no snapshot is pinned;

and, in the rules themselves, that the writer reads its own view, that
a snapshot refreshed in place drops every buffered node that changed,
that an abort returns exactly the pages its transaction allocated, that
freed pages are back on the free list once applied, and that recovery
after a process kill (the log cut anywhere past its fsynced prefix) or
an OS crash (the log cut to its fsynced prefix, every data-file write
kept) leaves the committed prefix, byte for byte.

``make test-crash`` runs it deeper (``--hypothesis-profile=deep``).
"""

from __future__ import annotations

import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.exceptions import CrashError, StorageError, WALError
from repro.storage import open_pagefile, open_storage, wal_path
from repro.storage.constants import META_PAGE_ID
from repro.storage.serializer import pack_meta
from repro.storage.snapshot import open_snapshot_store
from repro.storage.store import NodeStore

from .helpers import retained_images
from .test_wal_delta import LAYOUT, PAGE, fill, meta_of, padded, page_images

SEEDS = st.integers(0, 1 << 16)
NEW = st.tuples(st.just("new"), st.sampled_from(["leaf", "internal", "supernode"]),
                SEEDS, st.integers(1, 14))
GROW = st.tuples(st.just("grow"), SEEDS, SEEDS)
# Twice as many allocations as frees, so trees grow between deaths.
OPS = st.one_of(
    NEW, NEW, GROW, GROW,
    st.tuples(st.just("shrink"), SEEDS),
    st.tuples(st.just("free"), SEEDS),
    st.tuples(st.just("meta"), SEEDS),
)
#: Open snapshots at most; the rules that pin skip pinning past it.
MAX_PINS = 6


class _StoreMachine(RuleBasedStateMachine):
    """What both machines share: writes, snapshots, saves, invariants.

    Few rules, each doing several things: Hypothesis runs each example
    with a random subset of the rules enabled, and every rule fewer
    makes a subset that writes, commits and reads snapshots likelier.
    """

    def __init__(self) -> None:
        super().__init__()
        self.dir = tempfile.mkdtemp(prefix="nsmodel")
        self.path = os.path.join(self.dir, "m.db")
        #: epoch -> committed state: page id -> padded image (page 0 is
        #: the meta page), the live nodes' first page ids, the meta dict
        self.epochs: dict[int, tuple[dict[int, bytes], frozenset, dict | None]] = {}
        #: the writer's view: committed plus the open transaction (WAL),
        #: or everything written since the last publish (no WAL)
        self.current: dict[int, bytes] = {}
        self.live: set[int] = set()
        self.meta: dict | None = None
        self.dirty = False
        self.snapshots = []
        self.txn_allocated: list[int] | None = None
        self._open()

    # -- plumbing --------------------------------------------------------

    def _open(self) -> None:
        """Open the store and make its epoch 0 the writer's view."""
        pagefile, wal = self._open_files()
        self.store = NodeStore(LAYOUT, pagefile=pagefile, buffer_capacity=8,
                               wal=wal)
        assert self.store.epoch == 0
        self.epochs = {0: (dict(self.current), frozenset(self.live), self.meta)}
        #: allocated pages no node holds: the free list lives in memory,
        #: so what a dead process freed stays allocated after a reopen
        self.leaked = self._unheld()

    def _open_files(self):
        return open_pagefile(self.path, page_size=PAGE, checksums=True), None

    def _close_files(self) -> None:
        if self.store.wal is not None:
            self.store.wal.close()
        self.store.pagefile.close()

    def _committed(self) -> tuple[dict[int, bytes], frozenset, dict | None]:
        return self.epochs[self.store.epoch]

    def _unheld(self) -> int:
        nodes = sum(page_id != META_PAGE_ID for page_id in self.current)
        return self.store.pagefile.allocated_pages - nodes

    def _check_allocation(self) -> None:
        """With every commit applied, each freed page is back on the
        page file's free list."""
        assert self._unheld() == self.leaked

    def _pick(self, index: int):
        ids = sorted(self.live)
        return self.store.read(ids[index % len(ids)])

    def _wrote(self, node) -> None:
        self.store.write(node)
        self.current.update(page_images(self.store, node))
        self.live.add(node.page_id)
        self.dirty = True

    # -- node and meta writes --------------------------------------------

    def _new(self, kind, seed, entries) -> None:
        if kind == "leaf":
            node = self.store.new_leaf()
        else:
            node = self.store.new_internal(level=1,
                                           extent=2 if kind == "supernode" else 1)
        if self.txn_allocated is not None:
            self.txn_allocated.extend(node.all_page_ids)
        fill(node, np.random.default_rng(seed), entries)
        self._wrote(node)

    def _grow(self, index, seed) -> None:
        if self.live:
            node = self._pick(index)
            fill(node, np.random.default_rng(seed), 1)
            self._wrote(node)

    def _shrink(self, index) -> None:
        if self.live:
            node = self._pick(index)
            for _ in range(node.count // 2):
                node.remove_at(node.count - 1)
            self._wrote(node)

    def _free(self, index) -> None:
        if self.live:
            node = self._pick(index)
            self.store.free(node)
            for page_id in node.all_page_ids:
                self.current.pop(page_id, None)
            self.live.discard(node.page_id)
            self.dirty = True

    def _meta(self, seed) -> None:
        self.store.write_meta(meta_of(seed))
        self.meta = meta_of(seed)
        self.current[META_PAGE_ID] = padded(pack_meta(self.meta))
        self.dirty = True

    @rule(ops=st.lists(OPS, min_size=1, max_size=4), spill=st.booleans(),
          read=st.none() | SEEDS)
    def write(self, ops, spill, read) -> None:
        """Allocate, write, free, rewrite the meta page; then perhaps
        write every dirty buffered page at once (to the log, or the
        file), and perhaps read a node back through an empty buffer
        pool, which must give the writer's own view."""
        for op in ops:
            getattr(self, "_" + op[0])(*op[1:])
        if spill:
            self.store.buffer.flush()
        if read is not None and self.live:
            self.store.drop_cache()
            node = self._pick(read)
            for page_id, image in page_images(self.store, node).items():
                assert self.current[page_id] == image, page_id

    # -- snapshots -----------------------------------------------------------

    def _before_pin(self) -> None:
        """The model's half of what pinning the newest epoch does first."""

    def _pin(self) -> None:
        if len(self.snapshots) < MAX_PINS:
            self._before_pin()
            snap = open_snapshot_store(self.store, buffer_capacity=8)
            assert snap.epoch == self.store.epoch
            self.snapshots.append(snap)

    def _read_through_snapshots(self) -> None:
        for snap in self.snapshots:
            pages, live, _ = self.epochs[snap.epoch]
            for first in sorted(live):
                node = snap.read(first)
                for page_id, image in page_images(self.store, node).items():
                    assert pages[page_id] == image, page_id

    @precondition(lambda self: self.snapshots)
    @rule(refresh=st.booleans(), release=st.none() | SEEDS)
    def snapshots_read(self, refresh, release) -> None:
        """Every node read through every snapshot's own buffer pool.
        Then perhaps the oldest snapshot moves to the newest epoch in
        place, which must drop each of its buffered nodes that changed
        since, and every node is read again; then perhaps one snapshot
        is closed."""
        self._read_through_snapshots()
        if refresh:
            self._before_pin()
            oldest = min(self.snapshots, key=lambda snap: snap.epoch)
            assert oldest.refresh_to() == self.store.epoch
            self._read_through_snapshots()
        if release is not None:
            self.snapshots.pop(release % len(self.snapshots)).close()

    # -- persistence ---------------------------------------------------------

    def _save(self) -> None:
        """``SpatialIndex.save``: the meta page rewritten, then a flush."""
        if self.meta is not None:
            self.store.write_meta(self.meta)
            self.dirty = True
        self.store.flush()

    @precondition(lambda self: self.txn_allocated is None)
    @rule()
    def save(self) -> None:
        self._save()

    # -- invariants ------------------------------------------------------------

    @invariant()
    def snapshots_read_their_epoch(self) -> None:
        for snap in self.snapshots:
            pages, _, meta = self.epochs[snap.epoch]
            for page_id, image in pages.items():
                assert padded(self.store.read_image_at(page_id, snap.epoch)) == image, (
                    page_id, snap.epoch)
            if meta is not None:
                assert snap.read_meta() == meta

    @invariant()
    def nothing_retained_without_pins(self) -> None:
        if self.store.snapshot_pins == 0:
            assert retained_images(self.store) == 0

    def teardown(self) -> None:
        for snap in self.snapshots:
            snap.close()
        self._close_files()
        shutil.rmtree(self.dir, ignore_errors=True)


class NodeStoreMachine(_StoreMachine):
    """A WAL-backed store: transactions, batched commits, two deaths."""

    def _open(self) -> None:
        self.os_crash_armed = False
        super()._open()
        #: (log size, epoch) after each commit since the last truncate
        self.marks = [(0, 0)]
        #: (log size, epoch) at the last log fsync
        self.durable = (0, 0)

    def _open_files(self):
        pagefile, wal, _ = open_storage(self.path, page_size=PAGE,
                                        checksums=True, durability="wal")
        real_sync = wal.sync

        def sync() -> None:
            if self.os_crash_armed:
                raise CrashError("the OS died before the log fsync")
            self.data_file_behind_the_durable_log()  # up to this fsync
            real_sync()
            self.durable = (wal.size(), self.store.epoch)

        wal.sync = sync
        return pagefile, wal

    def _begin(self) -> None:
        if self.txn_allocated is None:
            self.store.begin_txn()
            self.txn_allocated = []
            self.allocated_before = self.store.pagefile.allocated_pages

    @rule(ops=st.lists(OPS, min_size=1, max_size=4), spill=st.booleans(),
          read=st.none() | SEEDS)
    def write(self, ops, spill, read) -> None:
        """The writes, in a transaction (begun here when none is open)."""
        self._begin()
        super().write(ops, spill, read)

    def _untouched(self):
        """What a refused write must leave as it was."""
        with open(self.path, "rb") as handle:
            data = handle.read()
        store = self.store
        table = {page_id: list(chain) for page_id, chain in store._pages.items()}
        return (data, table, store.epoch, store.wal.size(),
                store.pagefile.allocated_pages)

    @precondition(lambda self: self.txn_allocated is None)
    @rule(index=SEEDS, seed=SEEDS, pin=st.booleans())
    def write_outside(self, index, seed, pin) -> None:
        """Perhaps pin the newest epoch; then try a node write (written
        back by a flush), a free and a meta write outside any
        transaction.  Each is refused with ``WALError`` and changes
        neither the data file, the page table, the epoch, the log nor
        the allocation; the refused node is dropped from the pool."""
        if pin:
            self._pin()
        store = self.store
        attempts = [lambda: store.write_meta(meta_of(seed))]
        if self.live:
            node = self._pick(index)

            def write() -> None:
                fill(node, np.random.default_rng(seed), 1)
                store.write(node)
                store.flush()

            attempts += [write, lambda: store.free(node)]
        before = self._untouched()
        for attempt in attempts:
            with pytest.raises(WALError, match="outside a transaction"):
                attempt()
            assert self._untouched() == before
        store.buffer.drop()

    @rule(synced=st.booleans(), meta=st.none() | SEEDS, pin=st.booleans())
    def commit(self, synced, meta, pin) -> None:
        """Commit, fsyncing the log (a ``sync_every`` boundary) or not;
        as an index does, a transaction may write the meta page last.
        Then perhaps pin the new epoch."""
        self._begin()
        if meta is not None:
            self._meta(meta)
        wal = self.store.wal
        wal._sync_every = 1 if synced else 1 << 30
        self.store.commit_txn()
        self.txn_allocated = None
        epoch = self.store.epoch
        self.epochs[epoch] = self._committed_now()
        self.marks.append((wal.size(), epoch))
        if synced:
            self.durable = (wal.size(), epoch)
        if pin:
            self._pin()

    @rule()
    def abort(self) -> None:
        self._begin()
        allocated = self.txn_allocated
        self.store.abort_txn()
        self.txn_allocated = None
        pagefile = self.store.pagefile
        assert pagefile.allocated_pages == self.allocated_before
        assert set(allocated) <= set(pagefile.inner._free)
        committed, live, self.meta = self._committed()
        self.current, self.live = dict(committed), set(live)
        # The writer is back on the committed state, meta included.
        for first in live:
            node = self.store.read(first)
            for page_id, image in page_images(self.store, node).items():
                assert committed[page_id] == image, page_id
        if self.meta is not None:
            assert self.store.read_meta() == self.meta

    def _save(self) -> None:
        """Under a log ``SpatialIndex.save`` is a flush: every commit
        journaled its meta page already."""
        self.store.flush()

    def _committed_now(self) -> tuple[dict[int, bytes], frozenset, dict | None]:
        return dict(self.current), frozenset(self.live), self.meta

    def _checkpoint(self) -> None:
        self.store.checkpoint()
        assert self.store.wal.size() == 0
        self._check_allocation()
        self.marks = [(0, self.store.epoch)]
        self.durable = (0, self.store.epoch)

    @precondition(lambda self: self.txn_allocated is None)
    @rule(checkpoint=st.booleans())
    def save(self, checkpoint) -> None:
        """A save, or a checkpoint: every commit applied, the log empty."""
        if checkpoint:
            self._checkpoint()
        else:
            self._save()

    # -- death ---------------------------------------------------------------

    def _recover_to(self, cut: int, epoch: int) -> None:
        """Cut the log, reopen, and expect ``epoch``'s committed state."""
        for snap in self.snapshots:
            snap.close()
        self.snapshots = []
        self.store.wal.close()  # hands buffered appends to the OS
        self.store.pagefile.close()
        with open(wal_path(self.path), "r+b") as handle:
            handle.truncate(cut)
        pages, live, meta = self.epochs[epoch]
        self.current, self.live, self.meta = dict(pages), set(live), meta
        self.txn_allocated = None
        self._open()
        for page_id, image in pages.items():
            assert self.store.pagefile.read(page_id) == image, page_id
        if meta is None:
            with pytest.raises(StorageError):
                self.store.read_meta()  # page 0 was never written
        else:
            assert self.store.read_meta() == meta

    # A death throws away every snapshot and restarts the epochs: it
    # waits for a commit since the last one or the last checkpoint.
    @precondition(lambda self: len(self.marks) > 1)
    @rule(os_crash=st.booleans(), fraction=st.floats(0.0, 1.0),
          during=st.sampled_from(["save", "checkpoint", "idle"]))
    def die(self, os_crash, fraction, during) -> None:
        """A process kill: the log loses any part of what was never
        fsynced.  Or an OS crash at the next log fsync (perhaps the one
        a save or checkpoint makes): the log loses exactly that, and
        every data-file write is kept, fsynced or not — the case in
        which a page written ahead of its log would show."""
        if not os_crash:
            self.store.wal.close()
            size = os.path.getsize(wal_path(self.path))
            durable = self.durable[0]
            cut = durable + int(fraction * (size - durable))
            epoch = max(mark for mark in self.marks if mark[0] <= cut)[1]
            self._recover_to(cut, epoch)
            return
        self.os_crash_armed = True
        try:
            if during != "idle" and self.txn_allocated is None:
                getattr(self, "_" + during)()
        except CrashError:
            pass
        self._recover_to(*self.durable)

    @invariant()
    def data_file_behind_the_durable_log(self) -> None:
        """No page image of an unsynced commit is in the data file."""
        durable_epoch = self.durable[1]
        old, new = {}, {}
        for epoch, (pages, _, _) in self.epochs.items():
            side = old if epoch <= durable_epoch else new
            for page_id, image in pages.items():
                side.setdefault(page_id, set()).add(image)
        for page_id, images in new.items():
            try:
                image = self.store.pagefile.read(page_id)
            except StorageError:
                continue
            assert image not in images - old.get(page_id, set()), page_id


class PublishedNodeStoreMachine(_StoreMachine):
    """The same store without a log: writes reach the data file as they
    are written back, and an epoch is what ``publish_epoch`` (or a pin)
    last published."""

    def _before_pin(self) -> None:
        self._publish()  # pin_snapshot() publishes first

    def _publish(self) -> None:
        before = self.store.epoch
        epoch = self.store.publish_epoch()
        self._check_allocation()
        assert epoch == before + self.dirty  # a new epoch iff something changed
        if self.dirty:
            self.epochs[epoch] = (dict(self.current), frozenset(self.live),
                                  self.meta)
        self.dirty = False

    @rule(pin=st.booleans())
    def publish(self, pin) -> None:
        """Publish an epoch; then perhaps pin it."""
        self._publish()
        if pin:
            self._pin()


def _budget(examples: int, steps: int) -> settings:
    if settings.get_current_profile_name() == "deep":
        return settings(max_examples=10 * examples, stateful_step_count=2 * steps,
                        deadline=None)
    return settings(max_examples=examples, stateful_step_count=steps,
                    deadline=None)


TestNodeStoreMachine = NodeStoreMachine.TestCase
TestNodeStoreMachine.settings = _budget(25, 40)
TestPublishedNodeStoreMachine = PublishedNodeStoreMachine.TestCase
TestPublishedNodeStoreMachine.settings = _budget(15, 40)
