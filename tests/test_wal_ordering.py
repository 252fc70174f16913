"""The write-ahead rule under fsync batching, and post-commit poisoning.

Regression suite for two subtle durability holes:

* with ``sync_every > 1`` a batched commit must stay **WAL-only** until
  the covering log records are fsynced — applying its images to the
  data file earlier would let the kernel persist data pages before the
  COMMIT record, and recovery (which discards the torn log tail) would
  leave a partially applied transaction in the data file;
* a failure *after* the COMMIT record is durable must never be rolled
  back in memory — the store poisons itself and the next open repairs
  the data file from the WAL.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Database
from repro.exceptions import CrashError, PageNotFoundError, StorageError, WALError
from repro.storage import InMemoryPageFile, WriteAheadLog, recover, scan_wal
from repro.storage.layout import NodeLayout
from repro.storage.store import NodeStore


@pytest.fixture
def layout() -> NodeLayout:
    return NodeLayout(dims=4, has_rects=True, has_spheres=True,
                      has_weights=True)


def make_store(tmp_path, layout, sync_every: int) -> NodeStore:
    wal = WriteAheadLog(str(tmp_path / "t.wal"), sync_every=sync_every)
    return NodeStore(layout, pagefile=InMemoryPageFile(layout.page_size),
                     wal=wal)


def committed_leaf(store, seed: int):
    """One whole transaction: new leaf with a few points, committed."""
    store.begin_txn()
    rng = np.random.default_rng(seed)
    leaf = store.new_leaf()
    for i in range(3):
        leaf.add(rng.random(4), i)
    store.write(leaf)
    store.write_meta({"seed": seed})
    store.commit_txn()
    return leaf


class TestBatchedCommitsStayWALOnly:
    def test_data_file_untouched_before_fsync_boundary(self, tmp_path, layout):
        store = make_store(tmp_path, layout, sync_every=3)
        leaves = [committed_leaf(store, seed) for seed in (0, 1)]
        # Two unsynced commits: the log has them, the data file must not.
        committed, _ = scan_wal(store.wal.path)
        assert len(committed) == 2
        for leaf in leaves:
            with pytest.raises(PageNotFoundError):
                store.pagefile.read(leaf.page_id)
        # The third commit crosses the sync_every boundary: everything
        # pending is applied in one go.
        third = committed_leaf(store, seed=2)
        for leaf in [*leaves, third]:
            assert store.pagefile.read(leaf.page_id)  # no raise
        store.close()

    def test_reads_are_served_from_the_pending_table(self, tmp_path, layout):
        store = make_store(tmp_path, layout, sync_every=5)
        leaf = committed_leaf(store, seed=3)
        store.drop_cache()  # force the next read past the buffer pool
        reread = store.read(leaf.page_id)
        assert reread is not leaf
        assert reread.count == 3
        assert store.read_meta() == {"seed": 3}
        # ... and it still counts as a physical read (EXPLAIN invariant).
        assert store.stats.page_reads == 1
        store.close()

    def test_flush_drains_pending_after_syncing_the_log(self, tmp_path, layout):
        store = make_store(tmp_path, layout, sync_every=5)
        leaf = committed_leaf(store, seed=4)
        with pytest.raises(PageNotFoundError):
            store.pagefile.read(leaf.page_id)
        store.flush()
        assert store.pagefile.read(leaf.page_id)
        store.close()

    def test_batched_frees_join_the_free_list_in_the_order_made(
        self, tmp_path, layout
    ):
        # The free list hands pages out newest first, so the order in
        # which applied frees join it decides where later nodes land.
        store = make_store(tmp_path, layout, sync_every=5)
        first, second = committed_leaf(store, 0), committed_leaf(store, 1)
        store.begin_txn()
        store.free(second.page_id)
        store.free(first.page_id)
        store.write_meta({"seed": 2})
        store.commit_txn()
        store.flush()
        assert [store.pagefile.allocate() for _ in range(2)] == [
            first.page_id, second.page_id]
        store.close()

    def test_abort_preserves_earlier_pending_commits(self, tmp_path, layout):
        store = make_store(tmp_path, layout, sync_every=5)
        leaf = committed_leaf(store, seed=5)
        store.begin_txn()
        doomed = store.new_leaf()
        store.write(doomed)
        store.abort_txn()
        # The committed-but-unsynced leaf must survive the abort ...
        assert store.read(leaf.page_id).count == 3
        store.flush()
        # ... and still reach the data file at the next boundary.
        assert store.pagefile.read(leaf.page_id)
        store.close()

    def test_images_logged_as_deltas_wait_for_the_boundary_too(
        self, tmp_path, layout
    ):
        """The data file never runs ahead of the durable log — also when
        the pending image reached the log as byte ranges, not whole."""
        store = make_store(tmp_path, layout, sync_every=2)
        leaf = committed_leaf(store, seed=7)  # batched: IMAGEs, pending only

        def grow(value: int) -> bytes:
            store.begin_txn()
            node = store.read(leaf.page_id)
            node.add(np.full(4, value / 10.0), value)
            store.write(node)
            store.commit_txn()
            image = store.codec.encode(node)
            return image + b"\x00" * (layout.page_size - len(image))

        second = grow(1)  # DELTA against the pending image; fsync boundary
        assert store.pagefile.read(leaf.page_id) == second
        third = grow(2)  # DELTA against the data file; batched again
        committed, _ = scan_wal(store.wal.path)
        assert [(t.whole_images, t.deltas) for t in committed] == [
            (2, 0), (0, 1), (0, 1)]  # the leaf's and the meta page's images
        assert store.pagefile.read(leaf.page_id) == second  # not ahead
        # What a crash here would recover is the log's state, third write
        # included, rebuilt without reading the data file.
        replayed = InMemoryPageFile(layout.page_size)
        recover(replayed, store.wal.path, truncate=False)
        assert replayed.read(leaf.page_id) == third
        fourth = grow(3)  # boundary: everything pending is applied
        assert store.pagefile.read(leaf.page_id) == fourth
        store.close()

    def test_close_applies_pending_then_truncates(self, tmp_path, layout):
        store = make_store(tmp_path, layout, sync_every=10)
        leaf = committed_leaf(store, seed=6)
        pagefile = store.pagefile
        wal_path = store.wal.path
        store.close()
        assert pagefile.read(leaf.page_id)  # applied on close
        import os

        assert os.path.getsize(wal_path) == 0  # checkpointed

    def test_save_writes_meta_only_behind_the_durable_log(self, tmp_path):
        """An OS crash inside ``flush()`` loses whole batched commits.

        Every batched commit journaled a meta page; none may reach the
        data file before ``flush()`` fsyncs the log, or a crash at that
        fsync leaves a root and size that point at pages the durable log
        never held.
        """
        path = str(tmp_path / "s.db")
        points = np.random.default_rng(9).random((60, 4))
        db = Database.create(path, kind="sr", dims=4, durability="wal",
                             page_size=2048, sync_every=1000)
        wal = db.index.store.wal
        durable = {"size": wal.size()}
        real_commit = wal.commit

        def commit() -> bool:
            synced = real_commit()
            if synced:
                durable["size"] = wal.size()
            return synced

        wal.commit = commit
        for i, point in enumerate(points):
            db.insert(point, value=i)

        def os_crash() -> None:
            raise CrashError("the OS died before the log reached the disk")

        wal.sync = os_crash
        with pytest.raises(CrashError):
            db.flush()
        # The OS keeps what was fsynced: the data file (whatever reached
        # it) and the log's durable prefix.
        wal.close()
        db.index.store.pagefile.close()
        with open(wal.path, "r+b") as handle:
            handle.truncate(durable["size"])
        with Database.open(path) as db:
            db.verify()
            assert db.size == 0  # no commit was ever fsynced
            db.insert(points[0], value=0)
            assert db.knn(points[0], k=1)[0].distance == 0.0


class TestPostCommitPoisoning:
    def test_apply_failure_poisons_instead_of_rolling_back(
        self, tmp_path, layout
    ):
        store = make_store(tmp_path, layout, sync_every=1)
        original_write = store.pagefile.write

        def failing_write(page_id, data):
            raise OSError("disk full")

        store.begin_txn()
        leaf = store.new_leaf()
        leaf.add(np.zeros(4), 0)
        store.write(leaf)
        store.pagefile.write = failing_write
        with pytest.raises(OSError):
            store.commit_txn()
        store.pagefile.write = original_write
        assert store.poisoned
        # The transaction *is* durable: the log carries its COMMIT.
        committed, _ = scan_wal(store.wal.path)
        assert len(committed) == 1
        # Further mutations are refused ...
        with pytest.raises(StorageError, match="poisoned"):
            store.begin_txn()
        with pytest.raises(StorageError, match="poisoned"):
            store.flush()
        # ... but reads still serve the committed in-memory state.
        assert store.read(leaf.page_id).count == 1
        # Close neither flushes nor truncates the log recovery needs.
        store.close()
        committed, _ = scan_wal(store.wal.path)
        assert len(committed) == 1

    def test_commit_protocol_still_guarded(self, tmp_path, layout):
        store = make_store(tmp_path, layout, sync_every=1)
        with pytest.raises(WALError):
            store.commit_txn()
        store.close()


class TestDatabaseLevelPoisoning:
    def _fail_next_data_write(self, db):
        """Arrange for the next *data-file* write to raise EIO."""
        store = db.index.store
        original = store.pagefile.write
        state = {"armed": True}

        def write(page_id, data):
            if state["armed"]:
                state["armed"] = False
                raise OSError("injected EIO")
            return original(page_id, data)

        store.pagefile.write = write
        return lambda: setattr(store.pagefile, "write", original)

    def test_poisoned_db_keeps_committed_state_and_recovers(self, tmp_path):
        path = str(tmp_path / "p.db")
        rng = np.random.default_rng(8)
        points = rng.random((6, 4))
        with Database.create(path, kind="sr", dims=4, durability="wal",
                             page_size=2048) as db:
            for i, point in enumerate(points[:-1]):
                db.insert(point, value=i)
        db = Database.open(path)
        restore = self._fail_next_data_write(db)
        with pytest.raises(OSError):
            db.insert(points[-1], value=5)
        restore()
        # The insert reached COMMIT before the apply failed: it must NOT
        # have been rolled back in memory.
        assert db.index.store.poisoned
        assert db.size == 6
        with pytest.raises(StorageError, match="poisoned"):
            db.insert(points[0], value=99)
        db.close()
        # Reopening replays the WAL: the data file is repaired and the
        # committed insert is there.
        with Database.open(path) as db:
            db.verify()
            assert db.size == 6
            got = db.knn(points[-1], k=1)
            assert np.isclose(got[0].distance, 0.0)
