"""Byte-range records in the write-ahead log.

The log carries only bytes that are not already known: a page's first
image since the last truncate is its non-zero byte ranges (``IMAGE``),
every later write the ranges that changed (``DELTA``), and the meta page
is page 0, a whole padded page under the same rule.  Three things
keep that safe and are what this file tests: the writer cuts a delta
only against a base whose CRC32 is the one the log remembers (anything
else gets an image that needs no base), an ``IMAGE`` starts from zeros
because its record kind says so, and replay applies deltas to images
from the log — never to the data file — ending the scan at a delta that
does not fit its base.

* a Hypothesis state machine drives ``NodeStore`` + WAL over a
  checksummed ``FilePageFile`` through writes, same-transaction
  rewrites, shrinks, frees and reallocations, supernodes, meta writes,
  aborts, synced and batched commits, checkpoints and kills (the log cut
  at an arbitrary byte, or record boundary, past its durable prefix),
  comparing the recovered file with a dict model of the committed
  prefix byte for byte;
* one scripted log is cut at every record boundary;
* named regressions pin each fallback and each way a record can be bad,
  hand-built logs pin what an older process's records replay to, and the
  record types older builds wrote are refused;
* the log's size counter, recovery's memory bound and the log growth per
  insert (the gain itself) are pinned.
"""

from __future__ import annotations

import os
import shutil
import struct
import tempfile
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from repro import Database
from repro.exceptions import CrashError, TransientIOError, WALError
from repro.storage import (
    FaultPlan,
    FilePageFile,
    InMemoryPageFile,
    WriteAheadLog,
    open_pagefile,
    open_wal,
    recover,
    scan_wal,
    wal_path,
)
from repro.storage.constants import META_PAGE_ID
from repro.storage.layout import NodeLayout
from repro.storage.serializer import pack_meta
from repro.storage.store import NodeStore
from repro.storage.wal import (
    REC_DELTA,
    REC_IMAGE,
    _DELTA,
    _IMAGE,
    _RANGE,
    _RECORD,
    _apply_delta,
    _apply_image,
    _encode_ranges,
)
from repro.workloads import cluster_dataset

PAGE = 512
LAYOUT = NodeLayout(dims=2, has_rects=True, has_spheres=True, has_weights=True,
                    page_size=PAGE, leaf_data_size=16)


def create_files(path, *, page_size: int = PAGE, sync_every: int = 1):
    """A new data file's page stack and its empty log."""
    return (open_pagefile(path, page_size=page_size),
            open_wal(wal_path(path), sync_every=sync_every))


def reopen_files(path, *, sync_every: int = 1):
    """How a process takes up a data file another one left: its page
    stack with every committed transaction of its log replayed, and the
    log open for appends."""
    pagefile = open_pagefile(path, page_size=PAGE, create=False)
    recover(pagefile, wal_path(path))
    return pagefile, open_wal(wal_path(path), sync_every=sync_every)


def padded(image: bytes, size: int = PAGE) -> bytes:
    return image + b"\x00" * (size - len(image))


def page_images(store: NodeStore, node) -> dict[int, bytes]:
    """What the data file must hold for ``node``, page by page."""
    image = store.codec.encode(node)
    return {
        page_id: padded(image[i * PAGE : (i + 1) * PAGE])
        for i, page_id in enumerate(node.all_page_ids)
    }


def fill(node, rng: np.random.Generator, entries: int) -> None:
    for _ in range(entries):
        if node.count >= node.capacity:
            break
        if node.is_leaf:
            node.add(rng.random(2), int(rng.integers(1 << 40)))
        else:
            low = rng.random(2)
            node.add(int(rng.integers(1, 1 << 20)), low=low, high=low + 1.0,
                     center=low + 0.5, radius=float(rng.random()),
                     weight=int(rng.integers(1, 100)))


def meta_of(seed: int) -> dict:
    """A meta dict: mostly one pickled length, now and then another."""
    return {"page_size": PAGE, "size": 70_000 + seed,
            "root": seed % 50, "height": seed % 5, "note": "x" * (seed % 3 == 0)}


def records(log: str) -> list[tuple[int, int]]:
    """``(record type, end offset)`` of every record in a log file."""
    with open(log, "rb") as handle:
        data = handle.read()
    out, pos = [], 0
    while pos + _RECORD.size <= len(data):
        _magic, rec_type, _txn, length, _crc = _RECORD.unpack_from(data, pos)
        pos += _RECORD.size + length
        if pos > len(data):
            break
        out.append((rec_type, pos))
    return out


def kinds(log: str) -> list[int]:
    return [kind for kind, _ in records(log)]


def page_kinds(log: str, page_id: int = META_PAGE_ID) -> list[int]:
    """The types of the log's records of one page (the meta page's)."""
    with open(log, "rb") as handle:
        data = handle.read()
    out, pos = [], 0
    while pos + _RECORD.size <= len(data):
        _magic, kind, _txn, length, _crc = _RECORD.unpack_from(data, pos)
        pos += _RECORD.size
        if kind in (REC_IMAGE, REC_DELTA) and _IMAGE.unpack_from(data, pos)[0] == page_id:
            out.append(kind)
        pos += length
    return out


# ----------------------------------------------------------------------
# generated crash schedules
# ----------------------------------------------------------------------


SEEDS = st.integers(0, 1 << 16)
OPS = st.one_of(
    st.tuples(st.just("new_leaf"), SEEDS, st.integers(1, 12)),
    st.tuples(st.just("new_supernode"), SEEDS, st.integers(1, 14)),
    st.tuples(st.just("grow"), SEEDS, SEEDS),
    st.tuples(st.just("grow"), SEEDS, SEEDS),
    st.tuples(st.just("touch"), SEEDS),
    st.tuples(st.just("shrink"), SEEDS),
    st.tuples(st.just("free"), SEEDS),
    st.tuples(st.just("spill")),
    st.tuples(st.just("meta"), SEEDS),
    st.tuples(st.just("meta"), SEEDS),
)


class WalDeltaMachine(RuleBasedStateMachine):
    """``NodeStore`` + WAL against a dict model of the committed pages.

    One step is a whole transaction (a few node operations, then commit,
    abort, or death with the transaction open), a checkpoint, or a kill.
    A transaction may be ``stale``: the log is then handed, as the base
    of every record, the image it was handed that many page (or meta)
    records ago — another page's, or this one's from an aborted
    transaction or before a truncate — or, for -1, the new image itself
    (no bytes differ: the cheapest delta there is).  The log must see
    through it: a wrong base costs bytes, never a page.  Every image the
    log is handed, the meta page's too, is one whole page.
    """

    def __init__(self) -> None:
        super().__init__()
        self.dir = tempfile.mkdtemp(prefix="waldelta")
        self.path = os.path.join(self.dir, "m.db")
        self.log = wal_path(self.path)
        #: committed state: page id -> padded image (the meta page's
        #: too, once one committed), and the first page id of every
        #: live node
        self.model: dict[int, bytes] = {}
        self.live: set[int] = set()
        #: the last few meta images (True) and page images (False) handed
        #: to the log, committed or not
        self.logged: dict[bool, list[bytes]] = {True: [], False: []}
        self.stale = 0
        open_pagefile(self.path, page_size=PAGE).close()
        self._open()

    # -- plumbing --------------------------------------------------------

    def _open(self) -> None:
        pagefile, wal = reopen_files(self.path, sync_every=3)
        self.store = NodeStore(LAYOUT, pagefile=pagefile, buffer_capacity=8,
                               wal=wal)
        real_commit = wal.commit

        def commit() -> bool:
            self.synced = real_commit()
            return self.synced

        wal.commit = commit
        real_page = wal.log_page

        def base_for(page_id: int, image: bytes, base):
            assert len(image) == PAGE, (page_id, len(image))
            logged = self.logged[page_id == META_PAGE_ID]
            if self.stale < 0:
                base = image
            elif 0 < self.stale <= len(logged):
                base = logged[-self.stale]
            logged.append(image)
            del logged[:-3]
            return base

        wal.log_page = lambda page_id, image, base=None: real_page(
            page_id, image, base_for(page_id, image, base))
        #: (log size, model, live) after each commit since the last truncate
        self.marks = [(0, dict(self.model), set(self.live))]
        self.durable = 0

    def _pick(self, live: set[int], index: int):
        ids = sorted(live)
        return self.store.read(ids[index % len(ids)])

    # -- node operations inside a transaction ------------------------------

    def _apply(self, op, live: set[int], touched: dict, freed: list) -> None:
        store, kind = self.store, op[0]
        if kind == "spill":
            # Log every dirty page now: what follows rewrites them.
            store.buffer.flush()
            return
        if kind == "meta":
            store.write_meta(meta_of(op[1]))
            self.txn_meta = padded(pack_meta(meta_of(op[1])))
            return
        if kind == "new_leaf":
            node = store.new_leaf()
            fill(node, np.random.default_rng(op[1]), op[2])
        elif kind == "new_supernode":
            node = store.new_internal(level=1, extent=2)
            fill(node, np.random.default_rng(op[1]), op[2])
        elif not live:
            return
        else:
            node = self._pick(live, op[1])
            if kind == "free":
                store.free(node)
                touched.pop(node.page_id, None)
                live.discard(node.page_id)
                freed.extend(node.all_page_ids)
                return
            if kind == "grow":
                fill(node, np.random.default_rng(op[2]), 1)
            elif kind == "shrink":  # a shorter image than its base
                for _ in range(node.count // 2):
                    node.remove_at(node.count - 1)
            # "touch": dirty the node without changing a byte of it
        store.write(node)
        touched[node.page_id] = node
        live.add(node.page_id)

    # -- rules -----------------------------------------------------------

    @rule(ops=st.lists(OPS, min_size=1, max_size=6),
          outcome=st.sampled_from(["commit"] * 4 + ["abort", "die"]),
          fraction=st.floats(0.0, 1.0),
          stale=st.sampled_from([0] * 4 + [-1, 1, 1, 2]))
    def transaction(self, ops, outcome, fraction, stale=0) -> None:
        live, touched, freed = set(self.live), {}, []
        self.txn_meta = None
        self.stale = stale
        self.store.begin_txn()
        for op in ops:
            self._apply(op, live, touched, freed)
        if outcome == "abort":
            self.store.abort_txn()
            return
        if outcome == "die":
            self.kill(fraction)
            return
        images = {}
        for node in touched.values():
            images.update(page_images(self.store, node))
        self.store.commit_txn()
        for page_id in freed:
            self.model.pop(page_id, None)
        self.model.update(images)
        if self.txn_meta is not None:
            self.model[META_PAGE_ID] = self.txn_meta
        self.live = live
        size = self.store.wal.size()
        assert size == os.path.getsize(self.log)
        self.marks.append((size, dict(self.model), set(self.live)))
        if self.synced:
            self.durable = size

    @rule(ops=st.lists(OPS, min_size=1, max_size=4), stale=st.sampled_from([0, 1]))
    def retry(self, ops, stale) -> None:
        """A transaction aborts and is tried again, its images still around."""
        self.transaction(ops, "abort", 0.0)
        self.transaction(ops, "commit", 0.0, stale)

    @rule(index=SEEDS, seed=SEEDS)
    def insert(self, index, seed) -> None:
        """The common case: one node changes a little, and commits."""
        self.transaction([("grow", index, seed)], "commit", 0.0)

    @precondition(lambda self: len(self.marks) > 2)
    @rule()
    def checkpoint(self) -> None:
        self.store.checkpoint()
        assert self.store.wal.size() == os.path.getsize(self.log) == 0
        self.marks = [(0, dict(self.model), set(self.live))]
        self.durable = 0

    @precondition(lambda self: len(self.marks) > 1)
    @rule(fraction=st.one_of(st.just(1.0), st.floats(0.0, 1.0), SEEDS))
    def kill(self, fraction) -> None:
        """Die; lose an arbitrary part of the log past its durable prefix.

        A float cuts at that fraction of the undurable bytes, an integer
        at a record boundary.
        """
        self.store.wal.close()  # hands buffered appends to the OS
        self.store.pagefile.close()
        size = os.path.getsize(self.log)
        if isinstance(fraction, int):
            ends = [end for _, end in records(self.log) if end >= self.durable]
            cut = ends[fraction % len(ends)] if ends else self.durable
        else:
            cut = self.durable + int(fraction * (size - self.durable))
        with open(self.log, "r+b") as handle:
            handle.truncate(cut)
        _, self.model, self.live = max(
            (mark for mark in self.marks if mark[0] <= cut),
            key=lambda mark: mark[0],
        )
        # Recovering twice changes nothing ...
        pagefile = open_pagefile(self.path, page_size=PAGE, create=False)
        recover(pagefile, self.log, truncate=False)
        with open(self.path, "rb") as handle:
            once = handle.read()
        recover(pagefile, self.log, truncate=False)
        pagefile.close()
        with open(self.path, "rb") as handle:
            assert handle.read() == once
        # ... and what it leaves is the committed prefix, byte for byte.
        self._open()
        for page_id, image in self.model.items():
            assert self.store.pagefile.read(page_id) == image, page_id

    def teardown(self) -> None:
        self.store.wal.close()
        self.store.pagefile.close()
        shutil.rmtree(self.dir, ignore_errors=True)



TestWalDeltaMachine = WalDeltaMachine.TestCase
TestWalDeltaMachine.settings = settings(max_examples=40, deadline=None,
                                        stateful_step_count=40)


def loop_ranges(base: bytes, image: bytes) -> bytes:
    """The range encoder as a loop over changed words: the reference."""
    words = len(image) >> 2
    changed = [w for w in range(words)
               if base[4 * w : 4 * w + 4] != image[4 * w : 4 * w + 4]]
    runs = []
    if changed:
        start = last = changed[0]
        for word in changed:
            if word - last > 3:
                runs.append((start << 2, (last + 1) << 2))
                start = word
            last = word
        runs.append((start << 2, (last + 1) << 2))
    if base[words << 2 :] != image[words << 2 :]:
        runs.append((words << 2, len(image)))
    return b"".join(_RANGE.pack(start, end - start) + image[start:end]
                    for start, end in runs)


SPARSE = st.lists(st.one_of(st.just(b"\x00" * 4), st.just(b"\x00" * 16),
                            st.binary(min_size=1, max_size=9)),
                  min_size=1, max_size=24).map(b"".join)


@given(data=st.data(), base=st.one_of(st.binary(min_size=1, max_size=90), SPARSE))
@settings(max_examples=300, deadline=None)
def test_ranges_round_trip_at_any_page_size(data, base):
    """Sizes that are no multiple of the compare width included."""
    size = len(base)
    edits = data.draw(st.lists(st.tuples(st.integers(0, size - 1),
                                         st.integers(0, 255)), max_size=6))
    image = bytearray(base)
    for at, byte in edits:
        image[at] = byte
    image = bytes(image)
    ranges = _encode_ranges(base, image)
    assert ranges == loop_ranges(base, image)
    payload = _DELTA.pack(9, zlib.crc32(base), size) + ranges
    assert _apply_delta(base, payload) == image
    # Replay holds an older log's first image without its trailing zeros.
    assert _apply_delta(base.rstrip(b"\x00"), payload) == image
    assert _apply_delta(None, payload) is None
    assert _apply_delta(image, payload) in (None, image)  # wrong base, or no-op
    # Against nothing: the same encoder, a zero base.
    ranges = _encode_ranges(None, image)
    assert ranges == loop_ranges(bytes(size), image)
    assert _apply_image(_IMAGE.pack(9, size) + ranges) == (9, image)


# ----------------------------------------------------------------------
# named regressions
# ----------------------------------------------------------------------


@pytest.fixture
def store(tmp_path):
    """A store with one committed, checkpointed leaf (``store.leaf_id``)."""
    pagefile, wal = create_files(tmp_path / "r.db")
    store = NodeStore(LAYOUT, pagefile=pagefile, buffer_capacity=8, wal=wal)
    store.begin_txn()
    leaf = store.new_leaf()
    fill(leaf, np.random.default_rng(1), 6)
    store.write(leaf)
    store.commit_txn()
    store.checkpoint()
    store.leaf_id = leaf.page_id
    yield store
    if not store.closed:
        store.wal.close()
        store.pagefile.close()


def rewrite(store: NodeStore, page_id: int, seed: int, commit: bool = True):
    """One transaction that changes a leaf a little; returns the node."""
    store.begin_txn()
    node = store.read(page_id)
    fill(node, np.random.default_rng(seed), 1)
    store.write(node)
    if commit:
        store.commit_txn()
    else:
        store.buffer.flush()  # the image reaches the log, then is dropped
        store.abort_txn()
    return node


def crash_and_recover(store: NodeStore):
    """Replay the store's log into a fresh copy of nothing at all."""
    store.wal.close()
    fresh = InMemoryPageFile(PAGE)
    return fresh, recover(fresh, store.wal.path, truncate=False)


def counts(store: NodeStore) -> list[tuple[int, int]]:
    committed, _ = scan_wal(store.wal.path)
    return [(txn.whole_images, txn.deltas) for txn in committed]


def test_second_write_of_a_page_is_a_delta(store):
    rewrite(store, store.leaf_id, seed=2)
    first = store.wal.size()
    node = rewrite(store, store.leaf_id, seed=3)
    assert store.wal.size() - first < first  # one entry's bytes, not eight's
    assert counts(store) == [(1, 0), (0, 1)]
    assert kinds(store.wal.path) == [
        1, REC_IMAGE, 4, 1, REC_DELTA, 4]
    fresh, report = crash_and_recover(store)
    assert (report.replayed_pages, report.replayed_deltas) == (1, 1)
    assert "1 delta(s)" in str(report)
    assert fresh.read(store.leaf_id) == page_images(store, node)[store.leaf_id]


def test_first_image_only_in_an_aborted_transaction(store):
    """The aborted image is no base: replay never sees it."""
    rewrite(store, store.leaf_id, seed=2, commit=False)
    node = rewrite(store, store.leaf_id, seed=3)
    assert counts(store) == [(1, 0)]
    fresh, _ = crash_and_recover(store)
    assert fresh.read(store.leaf_id) == page_images(store, node)[store.leaf_id]


def test_aborted_image_equal_to_the_committed_one_is_still_no_base(store):
    """Same bytes, same CRC — and still not in the log for replay."""
    store.begin_txn()
    store.write(store.read(store.leaf_id))  # dirty, unchanged
    store.buffer.flush()
    store.abort_txn()
    node = rewrite(store, store.leaf_id, seed=3)
    assert counts(store) == [(1, 0)]
    fresh, _ = crash_and_recover(store)
    assert fresh.read(store.leaf_id) == page_images(store, node)[store.leaf_id]


def test_free_and_reallocate_between_two_writes(store):
    """The log's image of the page never reached the data file."""
    store.begin_txn()
    node = store.read(store.leaf_id)
    fill(node, np.random.default_rng(2), 1)
    store.write(node)
    store.buffer.flush()  # logged whole ...
    store.free(node)  # ... then freed by the same transaction
    store.commit_txn()
    store.begin_txn()
    leaf = store.new_leaf()
    assert leaf.page_id == store.leaf_id  # the page came back
    assert store.pagefile.read(leaf.page_id)  # with its oldest bytes
    fill(leaf, np.random.default_rng(1), 7)  # ... which the new leaf resembles
    store.write(leaf)
    store.commit_txn()
    assert counts(store) == [(1, 0), (1, 0)]
    fresh, _ = crash_and_recover(store)
    assert fresh.read(leaf.page_id) == page_images(store, leaf)[leaf.page_id]


def test_page_write_outside_a_transaction_is_refused(store):
    """Under a log no write goes past it: not one page, not a base."""
    rewrite(store, store.leaf_id, seed=2)
    path = store.pagefile.inner.path
    with open(path, "rb") as handle:
        data = handle.read()
    table = {page_id: list(chain) for page_id, chain in store._pages.items()}
    epoch, logged = store.epoch, store.wal.size()
    node = store.read(store.leaf_id)
    fill(node, np.random.default_rng(5), 1)
    store.write(node)
    with pytest.raises(WALError, match=r"write-back of page \d+ outside a transaction"):
        store.flush()
    with open(path, "rb") as handle:
        assert handle.read() == data
    assert (store._pages, store.epoch, store.wal.size()) == (table, epoch, logged)
    store.buffer.drop()  # the refused image
    node = rewrite(store, store.leaf_id, seed=3)
    assert counts(store) == [(1, 0), (0, 1)]
    fresh, _ = crash_and_recover(store)
    assert fresh.read(store.leaf_id) == page_images(store, node)[store.leaf_id]


def test_base_read_error_falls_back_to_a_whole_image(store, monkeypatch):
    rewrite(store, store.leaf_id, seed=2)  # imaged and applied (sync_every=1)
    real_read = store.pagefile.read
    failures = []

    def read(page_id):
        if not failures:
            failures.append(page_id)
            raise TransientIOError(f"injected EIO reading page {page_id}")
        return real_read(page_id)

    store.begin_txn()
    node = store.read(store.leaf_id)  # from the buffer pool
    fill(node, np.random.default_rng(3), 1)
    store.write(node)
    monkeypatch.setattr(store.pagefile, "read", read)
    store.commit_txn()
    assert failures == [store.leaf_id]
    assert counts(store) == [(1, 0), (1, 0)]
    fresh, _ = crash_and_recover(store)
    assert fresh.read(store.leaf_id) == page_images(store, node)[store.leaf_id]


def test_flipped_bit_in_a_delta_ends_replay_before_its_transaction(store):
    first = rewrite(store, store.leaf_id, seed=2)
    want = page_images(store, first)[store.leaf_id]
    before = store.wal.size()
    rewrite(store, store.leaf_id, seed=3)
    rewrite(store, store.leaf_id, seed=4)
    store.wal.close()
    with open(store.wal.path, "r+b") as handle:
        handle.seek(before + 21 + 21 + _DELTA.size + _RANGE.size)  # BEGIN, header
        byte = handle.read(1)
        handle.seek(-1, os.SEEK_CUR)
        handle.write(bytes([byte[0] ^ 0x10]))
    fresh = InMemoryPageFile(PAGE)
    report = recover(fresh, store.wal.path, truncate=False)
    assert (report.committed_txns, report.replayed_deltas) == (1, 0)
    # The scan stops at the DELTA record, just past its transaction's BEGIN.
    assert report.discarded_bytes == os.path.getsize(store.wal.path) - before - 21
    assert fresh.read(store.leaf_id) == want


def test_delta_with_the_wrong_base_crc_ends_replay(tmp_path):
    """A well-formed record that was cut against some other image."""
    log = str(tmp_path / "c.wal")
    base = padded(b"base image " * 20)
    after = b"BASE" + base[4:]
    wal = WriteAheadLog(log)
    wal.begin()
    wal.log_page(3, base)
    wal.commit()
    good = wal.size()
    wal.begin()
    wal._append(REC_DELTA, wal._txn_id,
                _DELTA.pack(3, zlib.crc32(after), PAGE)
                + _RANGE.pack(0, 4) + b"BASE")
    wal.commit()
    wal.begin()
    wal.log_page(4, padded(b"unreachable"))
    wal.commit()
    wal.close()
    fresh = InMemoryPageFile(PAGE)
    report = recover(fresh, log, truncate=False)
    assert report.committed_txns == 1
    assert report.discarded_bytes == os.path.getsize(log) - good - 21
    assert fresh.read(3) == base
    # The same record against the right CRC applies.
    wal = WriteAheadLog(str(tmp_path / "ok.wal"))
    wal.begin()
    wal.log_page(3, base)
    wal.log_page(3, after, base)
    wal.commit()
    wal.close()
    fresh = InMemoryPageFile(PAGE)
    assert recover(fresh, wal.path).replayed_deltas == 1
    assert fresh.read(3) == after


def test_first_image_of_a_16d_leaf_is_under_a_third_of_a_page(tmp_path):
    """The paper's leaf: 10 points and 10 mostly empty 512-byte data areas.

    Its zeros stay out of the log (a ``PAGE`` cut only the trailing
    ones: 0.8 page), and no ``PAGE`` is written.
    """
    path = str(tmp_path / "leaf.db")
    points = np.random.default_rng(3).random((10, 16))
    with Database.create(path, kind="sr", dims=16) as db:
        db.insert_many(points[:9])
    with Database.open(path, durability="wal", sync_every=64) as db:
        store = db.index.store
        db.insert(points[9], value=9)  # the root is a leaf; this is its first image
        image = padded(store.codec.encode(store.read(db.index.root_id)),
                       store.layout.page_size)
        logged = records(store.wal.path)
        assert [kind for kind, _ in logged] == [1, REC_IMAGE, REC_IMAGE, 4]
        assert page_kinds(store.wal.path) == [REC_IMAGE]  # the meta page's first
        record = logged[2][1] - logged[1][1]
        assert record <= 0.3 * store.layout.page_size
        assert record < len(image.rstrip(b"\x00")) // 2
        fresh = InMemoryPageFile(store.layout.page_size)
        report = recover(fresh, store.wal.path, truncate=False)
        assert (report.replayed_pages, report.replayed_deltas) == (2, 0)
        assert fresh.read(db.index.root_id) == image


def test_image_replaces_the_running_image_it_does_not_patch_it(tmp_path):
    """An IMAGE starts from zeros, whatever the log held for the page."""
    first = padded(b"\x11" * 64)
    second = padded(b"\x00" * 32 + b"\x22" * 8)  # zero where ``first`` is not
    wal = WriteAheadLog(str(tmp_path / "z.wal"))
    wal.begin()
    wal.log_page(3, first)
    wal.commit()
    wal.begin()
    wal.log_page(3, second)  # no base: freed and reallocated, say
    wal.log_page(4, first)
    wal.log_page(4, second)  # and within one transaction
    wal.commit()
    wal.close()
    assert kinds(wal.path) == [
        1, REC_IMAGE, 4, 1, REC_IMAGE, REC_IMAGE, REC_IMAGE, 4]
    fresh = InMemoryPageFile(PAGE)
    recover(fresh, wal.path, truncate=False)
    assert (fresh.read(3), fresh.read(4)) == (second, second)


def test_delta_no_smaller_than_the_image_is_logged_as_the_image(tmp_path):
    """A page that lost most of its bytes: zeroing them costs more."""
    full = padded(bytes(range(1, 201)) * 2)
    sparse = padded(b"\x07" * 8)
    wal = WriteAheadLog(str(tmp_path / "d.wal"))
    wal.begin()
    wal.log_page(3, full)
    wal.log_page(3, sparse, full)
    wal.log_page(3, full, sparse)
    wal.commit()
    wal.close()
    assert kinds(wal.path) == [
        1, REC_IMAGE, REC_IMAGE, REC_IMAGE, 4]
    fresh = InMemoryPageFile(PAGE)
    recover(fresh, wal.path, truncate=False)
    assert fresh.read(3) == full


def test_dense_page_costs_one_range_header_and_a_length_more_than_whole(tmp_path):
    """No zero word to leave out: ``PAGE`` + 12 bytes, never more."""
    dense = (bytes(range(1, 256)) * 3)[:PAGE]
    wal = WriteAheadLog(str(tmp_path / "n.wal"))
    wal.begin()
    before = wal.size()
    wal.log_page(3, dense)
    assert wal.size() - before == (_RECORD.size + 4 + PAGE) + _RANGE.size + 4
    wal.close()


META_A = padded(pack_meta(meta_of(1)))
META_B = padded(pack_meta(meta_of(2)))
META_C = padded(pack_meta(meta_of(4)))


def meta_page(pagefile) -> bytes:
    return padded(pagefile.read(META_PAGE_ID))


def recovered_meta(log: str) -> bytes:
    fresh = InMemoryPageFile(PAGE)
    recover(fresh, log, truncate=False)
    return meta_page(fresh)


def test_meta_after_the_first_is_a_delta(tmp_path):
    """The store pads the meta page: a pickle that grew is a delta too."""
    assert len(pack_meta(meta_of(3))) != len(pack_meta(meta_of(1)))
    pagefile, wal = create_files(tmp_path / "m.db")
    store = NodeStore(LAYOUT, pagefile=pagefile, buffer_capacity=8, wal=wal)
    store.begin_txn()
    store.write_meta(meta_of(1))
    store.write_meta(meta_of(2))  # against this transaction's own
    store.commit_txn()
    before = wal.size()
    store.begin_txn()
    store.write_meta(meta_of(4))  # against the committed one
    store.commit_txn()
    assert wal.size() - before < 2 * _RECORD.size + len(pack_meta(meta_of(4)))
    store.begin_txn()
    store.write_meta(meta_of(3))  # another pickled length
    store.write_meta(meta_of(1))
    store.commit_txn()
    assert page_kinds(wal.path) == [REC_IMAGE] + [REC_DELTA] * 4
    fresh, report = crash_and_recover(store)
    store.pagefile.close()
    assert report.replayed_meta
    assert meta_page(fresh) == META_A
    for cut, want in ((os.path.getsize(wal.path) - 1, META_C), (before, META_B)):
        with open(wal.path, "r+b") as handle:
            handle.truncate(cut)
        assert recovered_meta(wal.path) == want


def test_meta_of_an_aborted_transaction_is_no_base(tmp_path):
    wal = WriteAheadLog(str(tmp_path / "a.wal"))
    wal.begin()
    wal.log_page(META_PAGE_ID, META_A)
    wal.commit()
    wal.begin()
    wal.log_page(META_PAGE_ID, META_B, META_A)
    wal.abort()
    wal.begin()
    wal.log_page(META_PAGE_ID, META_C, META_B)  # the log's meta is META_A
    wal.commit()
    wal.begin()
    wal.log_page(META_PAGE_ID, META_A, META_C)
    wal.abort()
    wal.begin()
    wal.log_page(META_PAGE_ID, META_B, META_C)  # against the committed one
    wal.commit()
    wal.close()
    assert page_kinds(wal.path) == [REC_IMAGE, REC_DELTA, REC_IMAGE,
                                    REC_DELTA, REC_DELTA]
    assert recovered_meta(wal.path) == META_B


def test_first_meta_only_in_an_aborted_transaction(tmp_path):
    """Same bytes as the data file's meta, same CRC — and not in the log."""
    wal = WriteAheadLog(str(tmp_path / "f.wal"))
    wal.begin()
    wal.log_page(META_PAGE_ID, META_A)
    wal.abort()
    wal.begin()
    wal.log_page(META_PAGE_ID, META_B, META_A)
    wal.commit()
    wal.close()
    assert page_kinds(wal.path) == [REC_IMAGE, REC_IMAGE]
    assert recovered_meta(wal.path) == META_B


def test_first_meta_since_a_truncate_or_a_reopen_is_an_image(tmp_path):
    log = str(tmp_path / "t.wal")
    wal = WriteAheadLog(log)
    wal.begin()
    wal.log_page(META_PAGE_ID, META_A)
    wal.commit()
    wal.truncate()
    wal.begin()
    wal.log_page(META_PAGE_ID, META_B, META_A)
    wal.commit()
    wal.close()
    reopened = open_wal(log)  # a log that was not recovered first
    reopened.begin()
    reopened.log_page(META_PAGE_ID, META_C, META_B)
    reopened.log_page(META_PAGE_ID, META_A, META_C)
    reopened.commit()
    reopened.close()
    assert page_kinds(log) == [REC_IMAGE, REC_IMAGE, REC_DELTA]
    assert recovered_meta(log) == META_A


def test_store_hands_the_meta_it_holds_to_the_log(tmp_path):
    """The table's image, then the page file's: an applied meta is read
    back for a base, as any node page is, so no fsync boundary costs the
    meta page an ``IMAGE``."""
    pagefile, wal = create_files(tmp_path / "s.db", sync_every=3)
    store = NodeStore(LAYOUT, pagefile=pagefile, buffer_capacity=8, wal=wal)
    for seed in (1, 2, 4, 7, 8):  # the third commit fsyncs and applies
        store.begin_txn()
        store.write_meta(meta_of(seed))
        if seed == 8:
            store.write_meta(meta_of(10))
        store.commit_txn()
    assert page_kinds(wal.path) == [REC_IMAGE] + [REC_DELTA] * 5
    fresh, _ = crash_and_recover(store)
    assert meta_page(fresh) == padded(pack_meta(meta_of(10)))
    store.pagefile.close()


def flip(path: str, at: int) -> None:
    with open(path, "r+b") as handle:
        handle.seek(at)
        byte = handle.read(1)
        handle.seek(at)
        handle.write(bytes([byte[0] ^ 0x10]))


@pytest.mark.parametrize("kind", [REC_IMAGE, REC_DELTA])
@pytest.mark.parametrize("damage", ["flip", "tear"])
def test_damaged_image_or_meta_delta_ends_the_scan_like_a_torn_page(
        tmp_path, kind, damage):
    log = str(tmp_path / "x.wal")
    wal = WriteAheadLog(log)
    wal.begin()
    wal.log_page(3, padded(b"one"))
    wal.log_page(META_PAGE_ID, META_A)
    wal.commit()
    good = wal.size()
    wal.begin()
    wal.log_page(4, padded(b"two " * 9))
    wal.log_page(META_PAGE_ID, META_B, META_A)
    wal.commit()
    wal.begin()
    wal.log_page(5, padded(b"unreachable"))
    wal.commit()
    wal.close()
    at = {REC_IMAGE: 5, REC_DELTA: 6}[kind]  # in the second transaction
    (_, start), (found, end) = records(log)[at - 1 : at + 1]
    assert (found, start >= good + _RECORD.size) == (kind, True)
    if damage == "flip":
        flip(log, end - 2)  # in the record's last range
    else:
        with open(log, "r+b") as handle:
            handle.truncate(end - 2)
    fresh = InMemoryPageFile(PAGE)
    report = recover(fresh, log, truncate=False)
    assert (report.committed_txns, report.discarded_txns) == (1, 1)
    assert report.discarded_bytes == os.path.getsize(log) - start
    assert fresh.read(3) == padded(b"one")
    assert meta_page(fresh) == META_A


def test_meta_delta_that_does_not_fit_its_base_ends_replay(tmp_path):
    """Wrong CRC, no base in the log, or a range that leaves the image."""
    ranges = _RANGE.pack(0, 4) + b"META"
    bad = [
        _DELTA.pack(META_PAGE_ID, zlib.crc32(META_B), PAGE) + ranges,
        _DELTA.pack(META_PAGE_ID, zlib.crc32(META_A), PAGE)
        + _RANGE.pack(PAGE - 2, 4) + b"META",
        _DELTA.pack(META_PAGE_ID, zlib.crc32(META_A), PAGE)[:-1],
    ]
    for n, payload in enumerate(bad):
        wal = WriteAheadLog(str(tmp_path / f"b{n}.wal"))
        wal.begin()
        wal.log_page(META_PAGE_ID, META_A)
        wal.commit()
        wal.begin()
        wal._append(REC_DELTA, wal._txn_id, payload)
        wal.commit()
        wal.close()
        fresh = InMemoryPageFile(PAGE)
        assert recover(fresh, wal.path, truncate=False).committed_txns == 1
        assert meta_page(fresh) == META_A
    wal = WriteAheadLog(str(tmp_path / "none.wal"))  # a delta of nothing
    wal.begin()
    wal._append(REC_DELTA, wal._txn_id,
                _DELTA.pack(META_PAGE_ID, zlib.crc32(META_A), PAGE) + ranges)
    wal.commit()
    wal.close()
    report = recover(InMemoryPageFile(PAGE), wal.path, truncate=False)
    assert (report.committed_txns, report.replayed_meta) == (0, False)


def test_record_that_leaves_the_page_or_is_cut_short_ends_replay(tmp_path):
    """A valid CRC over a payload no writer would emit."""
    wal = WriteAheadLog(str(tmp_path / "r.wal"))
    wal.begin()
    wal.log_page(3, padded(b"fine"))
    wal.commit()
    for kind, payload in (
            (REC_IMAGE, _IMAGE.pack(4, PAGE) + _RANGE.pack(PAGE - 2, 4) + b"over"),
            (REC_IMAGE, _IMAGE.pack(4, PAGE) + _RANGE.pack(0, 8) + b"short"),
            (REC_IMAGE, _IMAGE.pack(4, PAGE)[:-1]),
            (REC_DELTA, _DELTA.pack(3, zlib.crc32(padded(b"fine")), PAGE)[:-1])):
        wal.begin()
        wal._append(kind, wal._txn_id, payload)
        wal.commit()
    wal.close()
    fresh = InMemoryPageFile(PAGE)
    report = recover(fresh, wal.path, truncate=False)
    assert (report.committed_txns, report.replayed_pages) == (1, 1)
    assert fresh.read(3) == padded(b"fine")


def raw_record(kind: int, txn: int, payload: bytes = b"") -> bytes:
    """One log record, byte by byte: what any writer, old or new, emits."""
    crc = zlib.crc32(payload, zlib.crc32(
        txn.to_bytes(8, "little"), zlib.crc32(bytes((kind,)))))
    return struct.pack("<IBQII", 0x57414C31, kind, txn, len(payload), crc) + payload


def test_log_of_an_older_process_replays_to_the_same_bytes(tmp_path):
    """``IMAGE`` and ``DELTA`` records, the meta page's among them, record
    by record as any build since the meta page became page 0 in the log
    writes them — and new records on top of what they left."""
    log = str(tmp_path / "old.wal")
    one, two, meta = padded(b"one"), padded(b"two, rewritten"), padded(b"meta")
    three = two[:32] + b"tail" + two[36:]

    def image(page: int, content: bytes) -> bytes:
        return _IMAGE.pack(page, PAGE) + _encode_ranges(None, content)

    old = (raw_record(1, 1) + raw_record(REC_IMAGE, 1, image(5, one))
           + raw_record(REC_IMAGE, 1, image(META_PAGE_ID, meta)) + raw_record(4, 1)
           + raw_record(1, 2) + raw_record(REC_IMAGE, 2, image(5, two))
           + raw_record(REC_IMAGE, 2, image(6, padded(b"one"))) + raw_record(4, 2)
           + raw_record(1, 3)
           + raw_record(REC_DELTA, 3, _DELTA.pack(5, zlib.crc32(two), PAGE)
                        + _RANGE.pack(32, 4) + b"tail")
           + raw_record(REC_DELTA, 3, _DELTA.pack(6, zlib.crc32(one), PAGE)
                        + _RANGE.pack(0, 3) + b"ONE")
           + raw_record(4, 3))
    with open(log, "wb") as handle:
        handle.write(old)
    fresh = InMemoryPageFile(PAGE)
    report = recover(fresh, log, truncate=False)
    assert (report.committed_txns, report.replayed_pages,
            report.replayed_deltas, report.replayed_meta) == (3, 4, 2, True)
    assert (fresh.read(5), fresh.read(6), meta_page(fresh)) == (
        three, padded(b"ONE"), meta)
    # New records lean on the images the old ones left.
    with open(log, "ab") as handle:
        handle.write(
            raw_record(1, 4)
            + raw_record(REC_DELTA, 4, _DELTA.pack(5, zlib.crc32(three), PAGE)
                         + _encode_ranges(three, one))
            + raw_record(REC_IMAGE, 4, image(6, two))
            + raw_record(REC_DELTA, 4,
                         _DELTA.pack(META_PAGE_ID, zlib.crc32(meta), PAGE)
                         + _encode_ranges(meta, padded(b"META")))
            + raw_record(4, 4))
    report = recover(fresh, log)
    assert (report.committed_txns, report.replayed_pages,
            report.replayed_deltas) == (4, 5, 4)
    assert (fresh.read(5), fresh.read(6), meta_page(fresh)) == (
        one, two, padded(b"META"))


@pytest.mark.parametrize("rec_type, name", [(2, "PAGE"), (3, "META"), (7, "META_DELTA")])
def test_record_type_an_older_build_wrote_is_refused(tmp_path, rec_type, name):
    """A committed record of a reserved type behind committed work: the
    log is refused whole (a "torn tail" reading would drop txn 2 without
    a word), the data file is not touched and the log is left for the
    build that can read it."""
    payload = {
        2: struct.pack("<I", 5) + padded(b"one"),  # a whole image
        3: padded(b"meta"),  # a raw meta image
        7: _DELTA.pack(META_PAGE_ID, 0, PAGE) + _RANGE.pack(0, 4) + b"META",
    }[rec_type]
    log = str(tmp_path / "old.wal")
    stale = (raw_record(1, 1) + raw_record(rec_type, 1, payload) + raw_record(4, 1)
             + raw_record(1, 2)
             + raw_record(REC_IMAGE, 2, _IMAGE.pack(6, PAGE)
                          + _encode_ranges(None, padded(b"two")))
             + raw_record(4, 2))
    with open(log, "wb") as handle:
        handle.write(stale)
    untouched = InMemoryPageFile(PAGE)
    at = len(raw_record(1, 1))
    with pytest.raises(WALError, match=rf"record type {rec_type} \({name}\) at byte {at} "):
        recover(untouched, log)
    assert untouched.allocated_pages == 0
    with open(log, "rb") as handle:
        assert handle.read() == stale


def test_crash_at_every_record_boundary_recovers_the_committed_prefix(tmp_path):
    """One scripted log with every record kind the writer has, cut at each
    record's end and in the middle of each record."""
    pagefile, wal = create_files(tmp_path / "e.db",
                                 sync_every=1 << 20)  # batched: applied on flush
    store = NodeStore(LAYOUT, pagefile=pagefile, buffer_capacity=8, wal=wal)
    rng = np.random.default_rng(8)
    expected: dict[int, bytes] = {}
    marks = [(0, {})]

    def commit(*nodes, meta: int) -> None:
        store.write_meta(meta_of(meta))
        store.commit_txn()
        for node in nodes:
            expected.update(page_images(store, node))
        expected[META_PAGE_ID] = padded(pack_meta(meta_of(meta)))
        marks.append((wal.size(), dict(expected)))

    def grow(page_id: int, entries: int = 1):
        node = store.read(page_id)
        fill(node, rng, entries)
        store.write(node)
        return node

    store.begin_txn()  # first images, one of them a supernode's two pages
    leaf, wide = store.new_leaf(), store.new_internal(level=1, extent=2)
    fill(leaf, rng, 9)
    fill(wide, rng, 12)
    store.write(leaf)
    store.write(wide)
    commit(leaf, wide, meta=1)
    store.begin_txn()  # deltas, the meta's too
    commit(grow(leaf.page_id), grow(wide.page_id), meta=2)
    store.begin_txn()  # aborted: a first image, deltas, a meta delta
    doomed = store.new_leaf()
    fill(doomed, rng, 5)
    store.write(doomed)
    grow(leaf.page_id)
    store.write_meta(meta_of(4))
    store.buffer.flush()
    store.abort_txn()
    store.begin_txn()  # against the committed images, not the aborted ones
    commit(grow(leaf.page_id), meta=5)
    store.begin_txn()  # the leaf's page is freed ...
    store.free(store.read(leaf.page_id))
    commit(meta=7)
    store.flush()  # the fsync boundary: the free reaches the page file
    store.begin_txn()  # ... and comes back with less in it: an IMAGE again
    again = store.new_leaf()
    assert again.page_id == leaf.page_id
    fill(again, rng, 1)
    store.write(again)
    store.buffer.flush()
    commit(grow(again.page_id), meta=3)  # another pickled length: a delta
    wal.close()
    store.pagefile.close()

    assert set(kinds(wal.path)) == {1, 4, REC_IMAGE, REC_DELTA}
    # The page that came back: from zeros, though the log held its image.
    assert kinds(wal.path)[-5:] == [1, REC_IMAGE, REC_DELTA, REC_DELTA, 4]
    assert page_kinds(wal.path) == [REC_IMAGE] + [REC_DELTA] * 5
    with open(wal.path, "rb") as handle:
        log = handle.read()
    cut_log = str(tmp_path / "cut.wal")
    start = 0
    for _, end in records(wal.path):
        for cut in (end, (start + end) // 2):
            with open(cut_log, "wb") as handle:
                handle.write(log[:cut])
            fresh = InMemoryPageFile(PAGE)
            report = recover(fresh, cut_log, truncate=False)
            done = [mark for mark in marks if mark[0] <= cut]
            assert report.committed_txns == len(done) - 1
            for page_id, image in done[-1][1].items():
                assert padded(fresh.read(page_id)) == image, (cut, page_id)
            once = {page_id: fresh.read(page_id) for page_id in done[-1][1]}
            recover(fresh, cut_log, truncate=False)  # twice: the same bytes
            assert once == {page_id: fresh.read(page_id) for page_id in once}
        start = end


# ----------------------------------------------------------------------
# the size counter, recovery's memory, and the gain itself
# ----------------------------------------------------------------------


def test_size_counter_equals_the_file_size(tmp_path):
    def transaction(wal: WriteAheadLog, n: int) -> None:
        wal.begin()
        wal.log_page(n, padded(bytes([n + 1]) * PAGE))
        wal.log_page(META_PAGE_ID, padded(b"meta"))
        assert wal.commit()

    with WriteAheadLog(str(tmp_path / "probe.wal")) as probe:  # uncrashed
        transaction(probe, 0)
        one = probe.size()
    log = str(tmp_path / "s.wal")
    # Two transactions, the third's BEGIN, and half of its page record.
    budget = 2 * one + _RECORD.size + PAGE // 2
    plan = FaultPlan(fail_after_write_bytes=budget)
    wal = WriteAheadLog(log, fault_plan=plan)
    assert wal.size() == 0
    for n in range(2):
        transaction(wal, n)
        assert wal.size() == os.path.getsize(log) == (n + 1) * one
    wal.begin()
    with pytest.raises(CrashError):  # the budget runs out mid-record
        wal.log_page(2, padded(b"\x07" * PAGE))
    assert wal.size() == os.path.getsize(log) == budget
    wal.close()
    reopened = WriteAheadLog(log)  # seeded from the file
    assert reopened.size() == os.path.getsize(log)
    reopened.truncate()
    assert reopened.size() == os.path.getsize(log) == 0
    reopened.close()


def test_appended_bytes_are_counted_by_record_kind(tmp_path):
    from repro.obs import events
    from repro.obs.hooks import WAL_APPENDED_BYTES

    def appended() -> dict[str, float]:
        return {kind: WAL_APPENDED_BYTES.labels(record=kind).value
                for kind in ("page", "delta", "meta", "marker")}

    base = padded(b"base image " * 20)  # 220 bytes, no zero word among them
    before = appended()
    wal = WriteAheadLog(str(tmp_path / "o.wal"))
    wal.begin()
    wal.log_page(3, base)
    wal.log_page(3, b"BASE" + base[4:], base)
    wal.log_page(META_PAGE_ID, META_A)
    wal.log_page(META_PAGE_ID, b"META" + META_A[4:], META_A)
    wal.commit()
    grew = {kind: value - before[kind] for kind, value in appended().items()}
    assert grew == {"page": 21 + _IMAGE.size + _RANGE.size + 220,
                    "delta": 21 + _DELTA.size + _RANGE.size + 4,
                    "meta": 21 + _IMAGE.size + len(_encode_ranges(None, META_A))
                    + 21 + _DELTA.size + _RANGE.size + 4,
                    "marker": 2 * 21}
    assert sum(grew.values()) == wal.size()
    wal.close()
    events.EVENTS.clear()
    try:
        recover(InMemoryPageFile(PAGE), wal.path)
        (event,) = [e for e in events.EVENTS.tail()
                    if e["event"] == "wal_recovery"]
        assert (event["replayed_txns"], event["replayed_deltas"]) == (1, 2)
    finally:
        events.EVENTS.clear()


def test_recovery_memory_is_bounded_by_distinct_pages(tmp_path):
    """2 000 transactions over 40 pages: one image per page, not per record."""
    page, pages, txns = 4096, 40, 2000
    log = str(tmp_path / "m.wal")
    rng = np.random.default_rng(5)
    current = {p: rng.bytes(page - 64) + b"\x00" * 64 for p in range(1, pages + 1)}
    wal = WriteAheadLog(log, sync_every=1 << 30)
    for _ in range(txns):
        wal.begin()
        for p in rng.choice(np.arange(1, pages + 1), size=4, replace=False):
            p = int(p)
            image = bytearray(current[p])
            at = int(rng.integers(0, page - 64))
            image[at : at + 48] = rng.bytes(48)
            wal.log_page(p, bytes(image), current[p] if wal.has_image(p) else None)
            current[p] = bytes(image)
        wal.commit()
    wal.close()
    log_bytes = os.path.getsize(log)
    assert log_bytes < txns * page  # deltas: the parent wrote 4 pages per txn
    target = FilePageFile(tmp_path / "m.db", page_size=page)
    tracemalloc.start()
    try:
        report = recover(target, log, truncate=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.committed_txns == txns
    assert report.replayed_deltas == 4 * txns - pages
    # One image per page and the raw log; per transaction only its id and
    # record counts (naively, one image per record: 32 MB here).
    assert peak <= pages * page + log_bytes + 256 * txns
    for p, image in current.items():
        assert target.read(p) == image
    target.close()


def test_log_growth_per_insert_stays_near_one_page(tmp_path):
    """The gain, pinned: 0.157 pages of log per insert, bounded at 0.18
    (a 15 % margin).

    Node bodies packed by count, whose deltas restated every block behind
    the first changed row, 0.25; trailing-zero-trimmed first images and a
    raw meta per commit, 0.35; every write a whole image, 3.3.
    """
    path = str(tmp_path / "amp.db")
    points = cluster_dataset(20, 115, 16, seed=11)
    base, extra = points[:2000], points[2000:2300]
    with Database.create(path, kind="sr", dims=16) as db:
        db.insert_many(base)
    with Database.open(path, durability="wal", sync_every=64) as db:
        page_size = db.index.store.layout.page_size
        before = os.path.getsize(wal_path(path))
        for i, point in enumerate(extra):
            db.insert(point, value=2000 + i)
        growth = os.path.getsize(wal_path(path)) - before
    assert growth / len(extra) <= 0.18 * page_size


# ----------------------------------------------------------------------
# row-sized deltas: every node block at a fixed offset
# ----------------------------------------------------------------------


#: The paper's SR-tree page: 16-d entries, 8 KiB, 512-byte data areas.
PAPER = NodeLayout(dims=16, has_rects=True, has_spheres=True, has_weights=True)
ROW = 8 * PAPER.dims


@pytest.fixture
def paper_store(tmp_path):
    pagefile, wal = create_files(tmp_path / "p.db", page_size=PAPER.page_size)
    store = NodeStore(PAPER, pagefile=pagefile, buffer_capacity=8, wal=wal)
    yield store
    store.close()


def last_delta(store: NodeStore, page_id: int) -> tuple[list[tuple[int, int]], int]:
    """``(offset, length)`` of each range of the page's last DELTA, and
    the record's size in the log."""
    with open(store.wal.path, "rb") as handle:
        data = handle.read()
    payload, pos = None, 0
    while pos + _RECORD.size <= len(data):
        _magic, kind, _txn, length, _crc = _RECORD.unpack_from(data, pos)
        body = data[pos + _RECORD.size : pos + _RECORD.size + length]
        if kind == REC_DELTA and _DELTA.unpack_from(body)[0] == page_id:
            payload = body
        pos += _RECORD.size + length
    ranges, at = [], _DELTA.size
    while at < len(payload):
        offset, length = _RANGE.unpack_from(payload, at)
        ranges.append((offset, length))
        at += _RANGE.size + length
    return ranges, _RECORD.size + len(payload)


def paper_entry(node, rng: np.random.Generator, child: int) -> None:
    low = rng.random(16) + 0.5
    node.add(child, low=low, high=low + 1.0, center=low + 0.5,
             radius=float(rng.random()) + 0.5, weight=child % 97 + 1)


def committed(store: NodeStore, node) -> None:
    store.write(node)
    store.commit_txn()


def test_a_leaf_append_logs_the_count_one_point_and_one_data_area(paper_store):
    """About 200 bytes at D = 16: the count-packed leaf moved every data
    area behind the new point, and its delta restated them."""
    store, rng = paper_store, np.random.default_rng(4)
    store.begin_txn()
    leaf = store.new_leaf()
    for i in range(5):
        leaf.add(rng.random(16) + 0.5, 1000 + i)
    committed(store, leaf)
    store.begin_txn()
    leaf.add(rng.random(16) + 0.5, 1005)
    committed(store, leaf)
    ranges, size = last_delta(store, leaf.page_id)
    # The count word; the sixth point; the sixth area's flagged length
    # prefix and the low word of its int64 row id (the high word is zero).
    assert ranges == [(4, 4), (12 + 5 * ROW, ROW),
                      (PAPER.leaf_data_offset + 5 * PAPER.leaf_data_size, 8)]
    assert size < 200


def test_an_internal_node_gaining_an_entry_logs_one_row_per_block(paper_store):
    """A child split adds an entry to the parent: the count word and that
    row of each of the six blocks, not every block behind the first."""
    store, rng = paper_store, np.random.default_rng(5)
    store.begin_txn()
    node = store.new_internal(level=1)
    for child in range(6):
        paper_entry(node, rng, 100 + child)
    committed(store, node)
    store.begin_txn()
    paper_entry(node, rng, 106)  # the new sibling's entry
    committed(store, node)
    blocks = PAPER.node_blocks(1)
    ranges, size = last_delta(store, node.page_id)
    assert ranges == [(4, 4), (blocks.child_ids + 4 * 6, 4),
                      (blocks.weights + 4 * 6, 4), (blocks.lows + ROW * 6, ROW),
                      (blocks.highs + ROW * 6, ROW), (blocks.centers + ROW * 6, ROW),
                      (blocks.radii + 8 * 6, 8)]
    assert size == _RECORD.size + _DELTA.size + 7 * _RANGE.size + 4 * 3 + 3 * ROW + 8


def test_an_ascent_update_logs_only_the_changed_entry(paper_store):
    """The entry of the child an insert went down: its weight, the MBR
    side that grew, the new centroid and radius — nothing else."""
    store, rng = paper_store, np.random.default_rng(6)
    store.begin_txn()
    node = store.new_internal(level=1)
    for child in range(8):
        paper_entry(node, rng, 100 + child)
    committed(store, node)
    store.begin_txn()
    node.weights[2] += 1
    node.highs[2, 7] += 0.375
    node.centers[2] += rng.random(16) / 64
    node.radii[2] += 0.125
    committed(store, node)
    blocks = PAPER.node_blocks(1)
    changed = [(blocks.weights + 4 * 2, 4), (blocks.highs + ROW * 2 + 8 * 7, 8),
               (blocks.centers + ROW * 2, ROW), (blocks.radii + 8 * 2, 8)]
    ranges, size = last_delta(store, node.page_id)
    assert len(ranges) == len(changed)
    for (offset, length), (start, width) in zip(ranges, changed):
        assert start <= offset and offset + length <= start + width
    assert size <= _RECORD.size + _DELTA.size + 4 * _RANGE.size + 4 + 8 + ROW + 8


def test_no_raw_meta_after_the_first_since_a_truncate(tmp_path):
    """Every fsync boundary applies the meta page to the data file; the
    next commit's meta record is still a delta, cut against that page."""
    path = str(tmp_path / "meta.db")
    points = np.random.default_rng(9).random((330, 4))
    with Database.create(path, kind="sr", dims=4) as db:
        db.insert_many(points[:300])
    with Database.open(path, durability="wal", sync_every=4) as db:
        for i, point in enumerate(points[300:]):
            db.insert(point, value=300 + i)
        assert page_kinds(wal_path(path)) == [REC_IMAGE] + [REC_DELTA] * 29
