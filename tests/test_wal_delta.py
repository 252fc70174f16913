"""Byte-range delta records in the write-ahead log.

After a page's first image since the last truncate, the log carries only
the byte ranges that changed.  Two things keep that safe and are what
this file tests: the writer cuts a delta only against a base whose CRC32
is the one the log remembers (anything else gets a whole image), and
replay applies deltas to images from the log — never to the data file —
ending the scan at a delta that does not fit its base.

* a Hypothesis state machine drives ``NodeStore`` + WAL over a
  checksummed ``FilePageFile`` through writes, same-transaction
  rewrites, shrinks, frees and reallocations, supernodes, aborts,
  synced and batched commits, checkpoints and kills (the log cut at an
  arbitrary byte past its durable prefix), comparing the recovered file
  with a dict model of the committed prefix byte for byte;
* named regressions pin each fallback and each way a delta can be bad;
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
from repro.exceptions import CrashError, TransientIOError
from repro.storage import (
    FaultPlan,
    FilePageFile,
    InMemoryPageFile,
    WriteAheadLog,
    open_pagefile,
    open_storage,
    recover,
    scan_wal,
    wal_path,
)
from repro.storage.layout import NodeLayout
from repro.storage.store import NodeStore
from repro.storage.wal import (
    REC_DELTA,
    REC_PAGE,
    _DELTA,
    _RANGE,
    _apply_delta,
    _encode_delta,
)
from repro.workloads import cluster_dataset

PAGE = 512
LAYOUT = NodeLayout(dims=2, has_rects=True, has_spheres=True, has_weights=True,
                    page_size=PAGE, leaf_data_size=16)


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
)


class WalDeltaMachine(RuleBasedStateMachine):
    """``NodeStore`` + WAL against a dict model of the committed pages.

    One step is a whole transaction (a few node operations, then commit,
    abort, or death with the transaction open), a checkpoint, or a kill.
    """

    def __init__(self) -> None:
        super().__init__()
        self.dir = tempfile.mkdtemp(prefix="waldelta")
        self.path = os.path.join(self.dir, "m.db")
        self.log = wal_path(self.path)
        #: committed state: page id -> padded image, and the first page
        #: id of every live node
        self.model: dict[int, bytes] = {}
        self.live: set[int] = set()
        self._open()

    # -- plumbing --------------------------------------------------------

    def _open(self) -> None:
        pagefile, wal, _ = open_storage(self.path, page_size=PAGE,
                                        checksums=True, durability="wal",
                                        sync_every=3)
        self.store = NodeStore(LAYOUT, pagefile=pagefile, buffer_capacity=8,
                               wal=wal)
        real_commit = wal.commit

        def commit() -> bool:
            self.synced = real_commit()
            return self.synced

        wal.commit = commit
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
          fraction=st.floats(0.0, 1.0))
    def transaction(self, ops, outcome, fraction) -> None:
        live, touched, freed = set(self.live), {}, []
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
        self.live = live
        size = self.store.wal.size()
        assert size == os.path.getsize(self.log)
        self.marks.append((size, dict(self.model), set(self.live)))
        if self.synced:
            self.durable = size

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
    @rule(fraction=st.one_of(st.just(1.0), st.floats(0.0, 1.0)))
    def kill(self, fraction) -> None:
        """Die; lose an arbitrary part of the log past its durable prefix."""
        self.store.wal.close()  # hands buffered appends to the OS
        self.store.pagefile.close()
        size = os.path.getsize(self.log)
        cut = self.durable + int(fraction * (size - self.durable))
        with open(self.log, "r+b") as handle:
            handle.truncate(cut)
        _, self.model, self.live = max(
            (mark for mark in self.marks if mark[0] <= cut),
            key=lambda mark: mark[0],
        )
        # Recovering twice changes nothing ...
        pagefile = open_pagefile(self.path, page_size=PAGE, checksums=True,
                                 create=False)
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


@given(data=st.data(), size=st.integers(1, 90))
@settings(max_examples=200, deadline=None)
def test_delta_round_trip_at_any_page_size(data, size):
    """Sizes that are no multiple of the compare width included."""
    base = data.draw(st.binary(min_size=size, max_size=size))
    edits = data.draw(st.lists(st.tuples(st.integers(0, size - 1),
                                         st.integers(0, 255)), max_size=6))
    image = bytearray(base)
    for at, byte in edits:
        image[at] = byte
    image = bytes(image)
    payload = _encode_delta(9, zlib.crc32(base), base, image)
    assert _apply_delta(base, payload) == image
    # Replay holds a first image without its trailing zeros.
    assert _apply_delta(base.rstrip(b"\x00"), payload) == image
    assert _apply_delta(None, payload) is None
    assert _apply_delta(image, payload) in (None, image)  # wrong base, or no-op


# ----------------------------------------------------------------------
# named regressions
# ----------------------------------------------------------------------


@pytest.fixture
def store(tmp_path):
    """A store with one committed, checkpointed leaf (``store.leaf_id``)."""
    pagefile, wal, _ = open_storage(tmp_path / "r.db", page_size=PAGE,
                                    checksums=True, durability="wal")
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
    before = store.wal.size()
    node = rewrite(store, store.leaf_id, seed=3)
    assert store.wal.size() - before < PAGE // 2  # a whole record is > PAGE
    assert counts(store) == [(1, 0), (0, 1)]
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
    store.free(node)  # ... then dropped from the shadow table
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


def test_page_written_outside_a_transaction_is_no_base(store):
    rewrite(store, store.leaf_id, seed=2)
    node = store.read(store.leaf_id)
    fill(node, np.random.default_rng(5), 1)
    store.write(node)
    store.flush()  # straight to the data file, past the log
    node = rewrite(store, store.leaf_id, seed=3)
    assert counts(store) == [(1, 0), (1, 0)]
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


def test_page_only_log_in_the_parent_format_replays_unchanged(tmp_path):
    """Padded whole images, written here byte by byte as the parent did."""
    log = str(tmp_path / "old.wal")
    record = struct.Struct("<IBQII")

    def rec(kind: int, txn: int, payload: bytes = b"") -> bytes:
        crc = zlib.crc32(payload, zlib.crc32(
            txn.to_bytes(8, "little"), zlib.crc32(bytes((kind,)))))
        return record.pack(0x57414C31, kind, txn, len(payload), crc) + payload

    one, two, meta = padded(b"one"), padded(b"two, rewritten"), padded(b"meta")
    with open(log, "wb") as handle:
        handle.write(rec(1, 1) + rec(REC_PAGE, 1, struct.pack("<I", 5) + one)
                     + rec(3, 1, meta) + rec(4, 1))
        handle.write(rec(1, 2) + rec(REC_PAGE, 2, struct.pack("<I", 5) + two)
                     + rec(REC_PAGE, 2, struct.pack("<I", 6) + one) + rec(4, 2))
    fresh = InMemoryPageFile(PAGE)
    report = recover(fresh, log)
    assert (report.committed_txns, report.replayed_pages,
            report.replayed_deltas, report.replayed_meta) == (2, 3, 0, True)
    assert (fresh.read(5), fresh.read(6), fresh.read(0)) == (two, one, meta)


# ----------------------------------------------------------------------
# the size counter, recovery's memory, and the gain itself
# ----------------------------------------------------------------------


def test_size_counter_equals_the_file_size(tmp_path):
    log = str(tmp_path / "s.wal")
    plan = FaultPlan(fail_after_write_bytes=1500)  # two transactions and a bit
    wal = WriteAheadLog(log, fault_plan=plan)
    assert wal.size() == 0
    for n in range(2):
        wal.begin()
        wal.log_page(n, padded(bytes([n + 1]) * PAGE))
        wal.log_meta(b"meta")
        assert wal.commit()
        assert wal.size() == os.path.getsize(log) > 0
    wal.begin()
    with pytest.raises(CrashError):  # the budget runs out mid-record
        wal.log_page(2, padded(b"\x07" * PAGE))
    assert wal.size() == os.path.getsize(log)
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

    base = padded(b"base image " * 20)
    before = appended()
    wal = WriteAheadLog(str(tmp_path / "o.wal"))
    wal.begin()
    wal.log_page(3, base)
    wal.log_page(3, b"BASE" + base[4:], base)
    wal.log_meta(b"meta")
    wal.commit()
    grew = {kind: value - before[kind] for kind, value in appended().items()}
    assert grew == {"page": 21 + 4 + len(base.rstrip(b"\x00")),
                    "delta": 21 + _DELTA.size + _RANGE.size + 4,
                    "meta": 21 + 4, "marker": 2 * 21}
    assert sum(grew.values()) == wal.size()
    wal.close()
    events.EVENTS.clear()
    try:
        recover(InMemoryPageFile(PAGE), wal.path)
        (event,) = [e for e in events.EVENTS.tail()
                    if e["event"] == "wal_recovery"]
        assert (event["replayed_txns"], event["replayed_deltas"]) == (1, 1)
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
    """The gain, pinned: 0.35 pages of log per insert; whole images, 3.3."""
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
    assert growth / len(extra) <= 1.5 * page_size
