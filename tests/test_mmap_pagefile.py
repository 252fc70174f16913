"""MmapPageFile: zero-copy read-only mapping of a saved index file.

The mapping is the storage layer the multiprocess serving pool stands
on: reads are ``memoryview`` slices of one OS-page-cache-backed copy of
the file, nodes decoded from them own copies of their rows (no node
pins the map), every mutation is rejected, and any write-ahead log left
by a crashed writer is recovered *before* the file is mapped (a map
taken over unapplied commits would serve stale pages forever).
"""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest

from repro.api import Database
from repro.exceptions import CrashError, StorageError
from repro.indexes.factory import _open_index
from repro.storage import CHECKSUM_TRAILER_SIZE, FaultPlan, FilePageFile
from repro.storage.pagefile import MmapPageFile, PageNotFoundError
from repro.storage.stack import open_existing, open_pagefile, wal_path

PAGE = 512


@pytest.fixture
def data_file(tmp_path, rng):
    """A FilePageFile-written data file with three recognizable pages."""
    path = str(tmp_path / "pages.dat")
    with FilePageFile(path, page_size=PAGE) as pf:
        for fill in (b"\x11", b"\x22", b"\x33"):
            pid = pf.allocate()
            pf.write(pid, fill * PAGE)
        pf.sync()
    return path


def test_read_returns_zero_copy_memoryview(data_file):
    with MmapPageFile(data_file, page_size=PAGE) as pf:
        assert pf.readonly is True
        for pid, fill in ((1, 0x11), (2, 0x22), (3, 0x33)):
            view = pf.read(pid)
            assert isinstance(view, memoryview)
            assert len(view) == PAGE
            assert bytes(view) == bytes([fill]) * PAGE
            # A view of the map, not a copy of the page.
            arr = np.frombuffer(view, dtype=np.uint8)
            assert arr[0] == fill and arr.base is not None


def test_every_mutation_is_rejected(data_file):
    with MmapPageFile(data_file, page_size=PAGE) as pf:
        with pytest.raises(StorageError, match="read-only"):
            pf.allocate()
        with pytest.raises(StorageError, match="read-only"):
            pf.write(1, b"\0" * PAGE)
        with pytest.raises(StorageError, match="read-only"):
            pf.free(1)
        with pytest.raises(StorageError, match="read-only"):
            pf.ensure_allocated(2)
        # sync is a no-op, not an error: closing paths call it blindly.
        pf.sync()
    # FilePageFile, by contrast, is writable.
    assert FilePageFile.readonly is False


def test_out_of_range_and_closed_reads_fail_cleanly(data_file):
    pf = MmapPageFile(data_file, page_size=PAGE)
    with pytest.raises(PageNotFoundError):
        pf.read(99)
    pf.close()
    with pytest.raises(StorageError, match="closed"):
        pf.read(1)
    pf.close()  # idempotent


def test_file_shorter_than_one_page_is_rejected(tmp_path):
    runt = tmp_path / "runt.dat"
    runt.write_bytes(b"x" * (PAGE - 1))
    with pytest.raises(StorageError, match="no complete page"):
        MmapPageFile(str(runt), page_size=PAGE)


def test_close_tolerates_outstanding_numpy_views(data_file):
    pf = MmapPageFile(data_file, page_size=PAGE)
    arr = np.frombuffer(pf.read(2), dtype=np.uint8)
    # The live view pins the mapping; close() must neither raise nor
    # invalidate the array (the OS unmaps when the last view dies).
    pf.close()
    assert int(arr[0]) == 0x22


def test_checksummed_stack_verifies_over_the_mapping(tmp_path):
    path = str(tmp_path / "sealed.dat")
    writer = open_pagefile(path, page_size=PAGE)
    pid = writer.allocate()
    writer.write(pid, b"\xab" * PAGE)
    writer.sync()
    writer.close()

    reader = open_pagefile(path, page_size=PAGE, mmap=True)
    try:
        assert reader.readonly is True
        assert bytes(reader.read(pid)) == b"\xab" * PAGE
        with pytest.raises(StorageError, match="read-only"):
            reader.write(pid, b"\0" * PAGE)
    finally:
        reader.close()

    # A flipped bit in the mapped image is still caught by the CRC.
    physical = PAGE + CHECKSUM_TRAILER_SIZE
    with open(path, "r+b") as fh:
        fh.seek(pid * physical + 7)
        byte = fh.read(1)
        fh.seek(-1, 1)
        fh.write(bytes([byte[0] ^ 0xFF]))
    reader = open_pagefile(path, page_size=PAGE, mmap=True)
    try:
        from repro.exceptions import ChecksumError
        with pytest.raises(ChecksumError):
            reader.read(pid)
    finally:
        reader.close()


def test_mmap_requires_a_real_file(tmp_path):
    with pytest.raises(ValueError, match="path"):
        open_pagefile(None, page_size=PAGE, mmap=True)


def test_pending_wal_is_recovered_before_mapping(tmp_path, rng):
    """A crashed writer's committed-but-unapplied WAL must reach the
    data file before it is mapped; the mapping then serves the
    recovered state, byte-identical to a writable re-open."""
    out = str(tmp_path / "crashed.db")
    points = rng.random((150, 4))
    with Database.create(out, kind="sr", dims=4, durability="wal",
                         page_size=2048):
        pass
    plan = FaultPlan(fail_after_write_bytes=40_000)
    db = Database.open(out, fault_plan=plan, sync_every=50)
    with pytest.raises(CrashError):
        for i, point in enumerate(points):
            db.insert(point, value=i)
    pagefile = db.index.store.pagefile
    while hasattr(pagefile, "inner"):
        pagefile = pagefile.inner
    pagefile.close()  # positional I/O is unbuffered; closing the fd is enough
    db.index.store.wal.close()

    pf, wal, report, _meta = open_existing(out, readonly=True)
    try:
        assert wal is None
        assert pf.readonly is True
        assert report.committed_txns > 0  # recovery really ran first
    finally:
        pf.close()

    ro = _open_index(out, readonly=True)
    try:
        assert ro.store.readonly
        got = [(n.value, n.distance) for n in ro.nearest(points[0], k=5)]
        ro_size = ro.size
    finally:
        ro.close()
    rw = _open_index(out)
    try:
        want = [(n.value, n.distance) for n in rw.nearest(points[0], k=5)]
        assert got == want
        assert ro_size == rw.size
    finally:
        rw.close()


def test_readonly_open_serves_without_ever_writing(tmp_path, small_cloud):
    """Open → query → close over a cleanly saved file must leave the
    bytes on disk untouched (close skips save) and leave no WAL."""
    out = tmp_path / "frozen.db"
    with Database.create(str(out), kind="sr", dims=small_cloud.shape[1],
                         page_size=2048) as db:
        db.insert_many(small_cloud)
    before = out.read_bytes()

    index = _open_index(str(out), readonly=True)
    try:
        hits = index.nearest(small_cloud[0], k=3)
        assert hits and hits[0].distance == 0.0
        with pytest.raises(StorageError):
            index.insert(small_cloud[0], value="nope")
    finally:
        index.close()

    assert out.read_bytes() == before
    assert not os.path.exists(wal_path(str(out)))


def test_nodes_decoded_over_a_mapping_share_no_memory_with_it(
        tmp_path, small_cloud):
    """Every entry array of a node read through a read-only handle is a
    copy of its rows: none shares memory with the map, and nodes held
    past ``close()`` do not keep the file mapped."""
    out = tmp_path / "mapped.db"
    with Database.create(str(out), kind="sr", dims=small_cloud.shape[1],
                         page_size=2048) as db:
        db.insert_many(small_cloud)

    index = _open_index(str(out), readonly=True)
    mapping = index.store.pagefile.inner
    assert isinstance(mapping, MmapPageFile)
    try:
        nodes = list(index.iter_nodes())
        assert any(node.is_leaf for node in nodes)
        assert any(not node.is_leaf for node in nodes)
        whole = np.frombuffer(mapping._mmap, dtype=np.uint8)
        for node in nodes:
            arrays = ([node.points] if node.is_leaf else
                      [node.child_ids, node.weights, node.lows, node.highs,
                       node.centers, node.radii])
            for arr in arrays:
                assert not arr.flags.writeable
                assert not np.shares_memory(arr, whole)
        del whole
    finally:
        index.close()
    assert mapping._mmap.closed  # the held nodes did not pin it
    assert nodes[0].count > 0


def test_snapshot_view_over_a_mapping_reads_supernodes(tmp_path):
    """A supernode's page images are memoryviews over the mapping; the
    snapshot view joins them on the same miss path as the live handle."""
    from repro.workloads import uniform_dataset

    data = uniform_dataset(3000, 16, seed=0)
    out = tmp_path / "srx.db"
    with Database.create(str(out), kind="srx", dims=16, page_size=2048) as db:
        db.insert_many(data)
        assert db.index.supernode_count() > 0

    live = _open_index(str(out), readonly=True)
    try:
        view = live.snapshot_view()
        try:
            for point in data[:5]:
                got = view.nearest(point, k=5)
                want = live.nearest(point, k=5)
                assert ([(n.value, n.distance) for n in got]
                        == [(n.value, n.distance) for n in want])
            assert view.stats.page_reads > 0
        finally:
            view.close()
    finally:
        live.close()


def test_filepagefile_positional_reads_are_thread_safe(tmp_path):
    """pread carries its own offset: concurrent readers sharing one fd
    never race on a seek position."""
    path = str(tmp_path / "shared.dat")
    n_pages = 32
    with FilePageFile(path, page_size=PAGE) as pf:
        for i in range(n_pages):
            pid = pf.allocate()
            pf.write(pid, bytes([i % 251]) * PAGE)
        pf.sync()

    pf = FilePageFile(path, page_size=PAGE, create=False)
    errors: list[str] = []

    def hammer(seed: int) -> None:
        rng = np.random.default_rng(seed)
        for _ in range(200):
            pid = int(rng.integers(1, n_pages + 1))
            data = pf.read(pid)
            if data != bytes([(pid - 1) % 251]) * PAGE:
                errors.append(f"page {pid} corrupted")
                return

    threads = [threading.Thread(target=hammer, args=(s,)) for s in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    pf.close()
    assert errors == []
