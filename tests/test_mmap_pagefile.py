"""Read-only page files: the handles a serving pool's workers read through.

A read-only open (``open_existing(readonly=True)``, reached from every
``ServingPool`` worker) builds its stack on an ``O_RDONLY``
:class:`FilePageFile`: every page reaches the process through its buffer
pool by ``pread``, nodes decoded from those pages own their rows, every
mutation is rejected before a buffer is dirtied, and any write-ahead log
left by a crashed writer is recovered *before* the read-only open (a
reader over unapplied commits would serve stale pages forever).

:class:`MmapPageFile` is no longer opened by the library; its own unit
tests stay here while the class does.
"""

from __future__ import annotations

import fcntl
import gc
import os
import sys
import threading

import numpy as np
import pytest

from repro.api import Database
from repro.exceptions import ChecksumError, CrashError, StorageError
from repro.indexes.factory import _open_index
from repro.storage import (
    CHECKSUM_TRAILER_SIZE, ChecksumPageFile, FaultPlan, FilePageFile,
)
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


def _sealed_page(path):
    """Write one CRC-sealed page through a writable stack; its id."""
    writer = open_pagefile(path, page_size=PAGE)
    pid = writer.allocate()
    writer.write(pid, b"\xab" * PAGE)
    writer.sync()
    writer.close()
    return pid


def _flip_a_bit(path, pid):
    physical = PAGE + CHECKSUM_TRAILER_SIZE
    with open(path, "r+b") as fh:
        fh.seek(pid * physical + 7)
        byte = fh.read(1)
        fh.seek(-1, 1)
        fh.write(bytes([byte[0] ^ 0xFF]))


def test_checksummed_stack_verifies_over_the_mapping(tmp_path):
    path = str(tmp_path / "sealed.dat")
    pid = _sealed_page(path)

    def mapped():
        return ChecksumPageFile(
            MmapPageFile(path, page_size=PAGE + CHECKSUM_TRAILER_SIZE), PAGE)

    with mapped() as reader:
        assert reader.readonly is True
        assert bytes(reader.read(pid)) == b"\xab" * PAGE
        with pytest.raises(StorageError, match="read-only"):
            reader.write(pid, b"\0" * PAGE)

    # A flipped bit in the mapped image is still caught by the CRC.
    _flip_a_bit(path, pid)
    with mapped() as reader, pytest.raises(ChecksumError):
        reader.read(pid)


def test_read_only_stack_rejects_mutation_and_verifies_pages(tmp_path):
    path = str(tmp_path / "sealed.dat")
    pid = _sealed_page(path)

    with open_pagefile(path, page_size=PAGE, readonly=True) as reader:
        assert reader.readonly is True
        assert reader.read(pid) == b"\xab" * PAGE
        with pytest.raises(StorageError, match="read-only"):
            reader.write(pid, b"\0" * PAGE)

    _flip_a_bit(path, pid)
    with open_pagefile(path, page_size=PAGE, readonly=True) as reader:
        with pytest.raises(ChecksumError):
            reader.read(pid)


def test_read_only_file_rejects_every_mutation(data_file):
    with FilePageFile(data_file, page_size=PAGE, readonly=True) as pf:
        assert pf.readonly is True
        assert pf.read(2) == b"\x22" * PAGE
        with pytest.raises(StorageError, match="read-only"):
            pf.allocate()
        with pytest.raises(StorageError, match="read-only"):
            pf.write(1, b"\0" * PAGE)
        with pytest.raises(StorageError, match="read-only"):
            pf.free(1)
        with pytest.raises(StorageError, match="read-only"):
            pf.ensure_allocated(2)
        pf.sync()  # a no-op, as on every read-only handle
    with open(data_file, "rb") as fh:
        assert fh.read()[PAGE:2 * PAGE] == b"\x11" * PAGE
    with pytest.raises(FileNotFoundError):
        FilePageFile(data_file + ".absent", page_size=PAGE, readonly=True)


def test_read_only_fd_is_opened_o_rdonly(tmp_path, small_cloud):
    # Root writes through a mode-0444 file, so only the descriptor's
    # access mode shows that this handle cannot write.
    out = str(tmp_path / "ro.db")
    with Database.create(out, kind="sr", dims=small_cloud.shape[1],
                         page_size=2048) as db:
        db.insert_many(small_cloud)
    index = _open_index(out, readonly=True)
    try:
        fd = index.store.pagefile.inner._fd
        assert fcntl.fcntl(fd, fcntl.F_GETFL) & os.O_ACCMODE == os.O_RDONLY
    finally:
        index.close()
    writable = _open_index(out)
    try:
        fd = writable.store.pagefile.inner._fd
        assert fcntl.fcntl(fd, fcntl.F_GETFL) & os.O_ACCMODE == os.O_RDWR
    finally:
        writable.close()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd")
@pytest.mark.parametrize("readonly", [False, True])
def test_an_abandoned_file_page_file_closes_its_fd(data_file, readonly):
    def open_fds():
        return {fd for fd in os.listdir("/proc/self/fd")
                if os.path.realpath(f"/proc/self/fd/{fd}") == data_file}

    pf = FilePageFile(data_file, page_size=PAGE, create=False,
                      readonly=readonly)
    assert len(open_fds()) == 1
    del pf
    gc.collect()
    assert open_fds() == set()
    pf = FilePageFile(data_file, page_size=PAGE, create=False,
                      readonly=readonly)
    pf.close()
    assert open_fds() == set()
    other = os.open(data_file, os.O_RDONLY)  # may reuse the freed number
    try:
        del pf
        gc.collect()
        os.fstat(other)  # close() detached the finalizer: still open
    finally:
        os.close(other)


def test_read_only_stack_requires_a_real_file(tmp_path):
    with pytest.raises(ValueError, match="path"):
        open_pagefile(None, page_size=PAGE, readonly=True)


def test_pending_wal_is_recovered_before_the_read_only_open(tmp_path, rng):
    """A crashed writer's committed-but-unapplied WAL must reach the
    data file before it is opened read-only; the reader then serves the
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
        assert isinstance(pf.inner, FilePageFile)
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
        with pytest.raises(StorageError, match="read-only"):
            index.insert(small_cloud[0], value="nope")
        assert index.store.buffer.flush() == 0  # refused before any dirt
    finally:
        index.close()

    assert out.read_bytes() == before
    assert not os.path.exists(wal_path(str(out)))


def test_nodes_read_through_a_read_only_handle_own_their_rows(
        tmp_path, small_cloud):
    """Every entry array of a node read through a read-only handle is a
    frozen copy of its rows: no array stands on a buffer larger than its
    rows, so the buffer pool holds rows, not pages."""
    out = tmp_path / "ro.db"
    with Database.create(str(out), kind="sr", dims=small_cloud.shape[1],
                         page_size=2048) as db:
        db.insert_many(small_cloud)

    index = _open_index(str(out), readonly=True)
    try:
        assert isinstance(index.store.pagefile.inner, FilePageFile)
        assert index.store.pagefile.inner.readonly
        nodes = list(index.iter_nodes())
        assert any(node.is_leaf for node in nodes)
        assert any(not node.is_leaf for node in nodes)
        for node in nodes:
            arrays = ([node.points] if node.is_leaf else
                      [node.child_ids, node.weights, node.lows, node.highs,
                       node.centers, node.radii])
            for arr in arrays:
                assert not arr.flags.writeable
                owner = arr
                while isinstance(owner.base, np.ndarray):
                    owner = owner.base
                if owner.base is not None:  # a buffer of its rows alone
                    assert len(owner.base) == arr.nbytes < 2048
    finally:
        index.close()


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads /proc/<pid>/maps")
def test_no_pool_process_maps_the_index_file(tmp_path, small_cloud,
                                             serving_pool):
    out = str(tmp_path / "served.db")
    with Database.create(out, kind="sr", dims=small_cloud.shape[1],
                         page_size=2048) as db:
        db.insert_many(small_cloud)
    real = os.path.realpath(out)
    with serving_pool(out, workers=2) as pool:
        assert len(pool.knn(small_cloud[:8], k=3)) == 8
        pids = [os.getpid()] + [w["pid"] for w in pool.worker_stats()]
        assert len(set(pids)) == 3
        for pid in pids:
            with open(f"/proc/{pid}/maps") as fh:
                assert [line for line in fh if real in line] == []


def test_snapshot_view_over_a_read_only_handle_reads_supernodes(tmp_path):
    """A supernode spans several pages; the snapshot view over a
    read-only handle joins them on the same miss path as the handle."""
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
