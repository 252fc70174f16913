"""Snapshot isolation: epoch pinning, copy-on-write retention, refresh.

Single-threaded tests of the versioned read layer — the committed-prefix
visibility contract, retention garbage collection, refresh precision,
and the facade/metrics surface.  The multi-threaded stress harness lives
in ``tests/test_concurrency.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import REGISTRY, Database, Snapshot
from repro.exceptions import StorageError

from .helpers import retained_images

DIMS = 5


def _points(n, seed=7):
    return np.random.default_rng(seed).normal(size=(n, DIMS))


def _knn_oracle(points, query, k):
    return np.sort(np.linalg.norm(points - query, axis=1))[:k]


def _assert_knn_matches(neighbors, points, query, k):
    got = [n.distance for n in neighbors]
    assert np.allclose(got, _knn_oracle(points, query, k))


@pytest.fixture
def wal_db(tmp_path):
    db = Database.create(str(tmp_path / "snap.db"), kind="srtree",
                         dims=DIMS, durability="wal")
    yield db
    if not db.closed:
        db.close()


# ----------------------------------------------------------------------
# committed-prefix visibility
# ----------------------------------------------------------------------

class TestVisibility:
    def test_snapshot_sees_exactly_the_committed_prefix(self, wal_db):
        pts = _points(60)
        for p in pts[:30]:
            wal_db.insert(p)
        snap = wal_db.snapshot()
        assert isinstance(snap, Snapshot)
        assert snap.size == 30
        for p in pts[30:]:
            wal_db.insert(p)
        # The snapshot is frozen at its epoch: same size, same answers.
        assert snap.size == 30
        q = pts[3]
        _assert_knn_matches(snap.knn(q, k=4), pts[:30], q, 4)
        # The live handle sees everything.
        _assert_knn_matches(wal_db.knn(q, k=4), pts, q, 4)
        snap.close()

    def test_refresh_advances_to_newest_commit(self, wal_db):
        pts = _points(50)
        for p in pts[:25]:
            wal_db.insert(p)
        with wal_db.snapshot() as snap:
            old_epoch = snap.epoch
            for p in pts[25:]:
                wal_db.insert(p)
            assert snap.age == 25
            new_epoch = snap.refresh()
            assert new_epoch > old_epoch
            assert snap.age == 0
            assert snap.size == 50
            q = pts[40]
            _assert_knn_matches(snap.knn(q, k=6), pts, q, 6)

    def test_snapshot_never_sees_an_open_transaction(self, wal_db):
        pts = _points(20)
        for p in pts:
            wal_db.insert(p)
        snap = wal_db.snapshot()
        store = wal_db.index.store
        # Open a WAL transaction by hand and mutate the metadata page;
        # its uncommitted entries must stay invisible to the pinned epoch.
        before = snap.index.store.read_meta()
        store.begin_txn()
        try:
            doctored = dict(before)
            doctored["size"] = 999_999
            store.write_meta(doctored)
            assert snap.index.store.read_meta()["size"] == before["size"]
        finally:
            store.abort_txn()
        assert snap.size == 20
        snap.close()

    def test_deletes_are_isolated_too(self, wal_db):
        pts = _points(40)
        for p in pts:
            wal_db.insert(p)
        with wal_db.snapshot() as snap:
            for p in pts[:10]:
                wal_db.delete(p)
            assert wal_db.size == 30
            assert snap.size == 40
            q = pts[2]  # deleted from the live tree, alive in the snap
            _assert_knn_matches(snap.knn(q, k=3), pts, q, 3)
            snap.refresh()
            assert snap.size == 30
            _assert_knn_matches(snap.knn(q, k=3), pts[10:], q, 3)

    def test_a_static_build_leaves_the_pinned_epoch(self, tmp_path):
        # The static tree's build is one transaction, its frees deferred
        # to COMMIT; a snapshot pinned before it keeps the empty tree.
        db = Database.create(str(tmp_path / "vam.db"), kind="vamsplit",
                             dims=DIMS, durability="wal")
        store = db.index.store
        pts = _points(300)
        with db.snapshot() as snap:
            empty = store.read_meta_at(snap.epoch)
            epoch = store.epoch
            db.insert_many(pts)
            assert store.epoch == epoch + 1
            db.flush()
            assert store.read_meta_at(snap.epoch) == empty
            with db.index.snapshot_view(snap.epoch) as again:
                assert again.size == 0
                assert again.within(pts[0], 100.0) == []
            assert snap.refresh() == store.epoch
            assert snap.size == len(pts)
            _assert_knn_matches(snap.knn(pts[3], k=4), pts, pts[3], 4)
        db.close()

    def test_two_snapshots_pin_independent_epochs(self, wal_db):
        pts = _points(45)
        for p in pts[:15]:
            wal_db.insert(p)
        snap_a = wal_db.snapshot()
        for p in pts[15:30]:
            wal_db.insert(p)
        snap_b = wal_db.snapshot()
        for p in pts[30:]:
            wal_db.insert(p)
        assert (snap_a.size, snap_b.size, wal_db.size) == (15, 30, 45)
        q = pts[0]
        _assert_knn_matches(snap_a.knn(q, k=5), pts[:15], q, 5)
        _assert_knn_matches(snap_b.knn(q, k=5), pts[:30], q, 5)
        snap_a.close()
        snap_b.close()


# ----------------------------------------------------------------------
# retention lifecycle
# ----------------------------------------------------------------------

class TestRetention:
    def test_versions_and_pins_collected_after_close(self, wal_db):
        pts = _points(40)
        for p in pts[:20]:
            wal_db.insert(p)
        store = wal_db.index.store
        snap = wal_db.snapshot()
        for p in pts[20:]:
            wal_db.insert(p)
        assert store.snapshot_pins == 1
        assert retained_images(store), "writes under a pin must retain images"
        snap.close()
        assert store.snapshot_pins == 0
        assert not retained_images(store), "releasing the last pin frees retention"

    def test_no_retention_without_pins(self, wal_db):
        for p in _points(30):
            wal_db.insert(p)
        assert not retained_images(wal_db.index.store)

    def test_refresh_survives_change_log_eviction(self, wal_db):
        # Commit far more epochs than the change log keeps; refresh must
        # fall back to a full cache drop and still answer correctly.
        from repro.storage.store import CHANGE_LOG_EPOCHS

        pts = _points(CHANGE_LOG_EPOCHS + 40)
        wal_db.insert(pts[0])
        with wal_db.snapshot() as snap:
            old = snap.epoch
            for p in pts[1:]:
                wal_db.insert(p)
            store = wal_db.index.store
            assert store.changed_pages_between(old, store.epoch) is None
            snap.refresh()
            assert snap.size == len(pts)
            q = pts[-1]
            _assert_knn_matches(snap.knn(q, k=5), pts, q, 5)

    def test_cannot_pin_a_lapsed_epoch(self, wal_db):
        for p in _points(10):
            wal_db.insert(p)
        store = wal_db.index.store
        stale = store.epoch - 5
        with pytest.raises(StorageError):
            store.pin_snapshot(stale)


# ----------------------------------------------------------------------
# read-only enforcement
# ----------------------------------------------------------------------

class TestReadOnly:
    def test_every_mutation_raises(self, wal_db):
        for p in _points(12):
            wal_db.insert(p)
        with wal_db.snapshot() as snap:
            store = snap.index.store
            for call in (
                lambda: store.new_leaf(),
                lambda: store.new_internal(1),
                lambda: store.free(3),
                lambda: store.write_meta({}),
                lambda: store.begin_txn(),
                lambda: store.commit_txn(),
                lambda: store.flush(),
                lambda: store.checkpoint(),
            ):
                with pytest.raises(StorageError, match="read-only"):
                    call()

    def test_snapshot_of_a_snapshot_is_rejected(self, wal_db):
        for p in _points(12):
            wal_db.insert(p)
        with wal_db.snapshot() as snap:
            with pytest.raises(StorageError):
                snap.index.snapshot_view()

    def test_queries_after_close_raise(self, wal_db):
        pts = _points(12)
        for p in pts:
            wal_db.insert(p)
        snap = wal_db.snapshot()
        snap.close()
        assert snap.closed
        snap.close()  # idempotent
        with pytest.raises(StorageError):
            snap.knn(pts[0], k=1)


# ----------------------------------------------------------------------
# non-WAL stores publish at pin time
# ----------------------------------------------------------------------

class TestNonWal:
    def test_snapshot_reflects_unflushed_state(self, tmp_path):
        pts = _points(30)
        with Database.create(str(tmp_path / "plain.db"), kind="srtree",
                             dims=DIMS) as db:
            for p in pts[:18]:
                db.insert(p)
            with db.snapshot() as snap:  # flush + publish happen here
                assert snap.size == 18
                for p in pts[18:]:
                    db.insert(p)
                assert snap.size == 18
                q = pts[1]
                _assert_knn_matches(snap.knn(q, k=4), pts[:18], q, 4)
                snap.refresh()
                assert snap.size == 30

    def test_in_memory_database_snapshots(self):
        pts = _points(25)
        with Database.create(None, kind="sstree", dims=DIMS) as db:
            for p in pts:
                db.insert(p)
            with db.snapshot() as snap:
                q = pts[4]
                _assert_knn_matches(snap.knn(q, k=3), pts, q, 3)

    def test_publish_epoch_is_wal_only_manual(self, wal_db):
        with pytest.raises(StorageError):
            wal_db.index.store.publish_epoch()


# ----------------------------------------------------------------------
# facade, metrics, EXPLAIN
# ----------------------------------------------------------------------

class TestSurface:
    def test_stats_report_epoch_and_pins(self, wal_db):
        for p in _points(10):
            wal_db.insert(p)
        assert wal_db.stats()["epoch"] == 11  # create's commit, then ten
        with wal_db.snapshot():
            assert wal_db.stats()["snapshot_pins"] == 1
        assert wal_db.stats()["snapshot_pins"] == 0

    def test_snapshot_constructor_is_private(self, wal_db):
        with pytest.raises(TypeError, match="Database.snapshot"):
            Snapshot(wal_db.index)

    def test_explain_names_the_epoch(self, wal_db):
        pts = _points(40)
        for p in pts:
            wal_db.insert(p)
        with wal_db.snapshot() as snap:
            report = snap.explain(pts[0], k=3)
            assert report.startswith(f"EXPLAIN knn{{k=3, epoch={snap.epoch}}}")

    def test_epoch_and_refresh_metrics(self, wal_db):
        from repro.obs import hooks

        hooks.set_metrics_enabled(True)
        pts = _points(20)
        for p in pts[:10]:
            wal_db.insert(p)
        flat = REGISTRY.flatten()
        assert flat['repro_snapshot_epoch{index_kind="srtree"}'] == 11
        with wal_db.snapshot() as snap:
            for p in pts[10:]:
                wal_db.insert(p)
            before = REGISTRY.flatten()
            snap.refresh()
            after = REGISTRY.flatten()
        refreshes = 'repro_snapshot_refreshes_total{index_kind="srtree"}'
        assert after[refreshes] - before.get(refreshes, 0.0) == 1
        assert after['repro_snapshot_age_epochs{index_kind="srtree"}'] == 10
