"""Randomized crash-recovery harness: kill inserts, recover, verify.

The durability claim of the storage engine is tested the only way such
claims can be: by murdering the process at hundreds of random points
during WAL-journaled inserts and asserting that *every* recovered tree

* passes its family's structural invariant checks, and
* answers k-NN queries identically to a brute-force reference over
  exactly the committed prefix of the workload.

The kill mechanism is :class:`repro.storage.FaultPlan`'s byte-based
write budget, shared by the data file and the WAL, so crashes land in
every phase of a transaction: mid-log-append (transaction discarded),
between COMMIT and the data-file application (transaction replayed from
the log), and mid-data-page write (torn page, rewritten by replay).

Across the three paper workloads (uniform, clustered, histogram) the
suite executes ``3 * TRIALS_PER_FAMILY >= 200`` randomized crash points.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pytest

from repro import Database
from repro.exceptions import CrashError
from repro.storage import FaultPlan
from repro.workloads import cluster_dataset, histogram_dataset, uniform_dataset

DIMS = 4
POINTS = 48
PAGE_SIZE = 2048
TRIALS_PER_FAMILY = 70  # 3 families x 70 = 210 crash points
K = 5
SEED = 20250806


def _workload(family: str) -> np.ndarray:
    if family == "uniform":
        return uniform_dataset(POINTS, DIMS, seed=SEED)
    if family == "cluster":
        return cluster_dataset(8, POINTS // 8, DIMS, seed=SEED)[:POINTS]
    data = histogram_dataset(POINTS, bins=DIMS, seed=SEED)
    return np.ascontiguousarray(data[:POINTS], dtype=np.float64)


def _make_template(tmp_path, family: str) -> str:
    """An empty WAL-durable SR-tree file to copy per trial."""
    path = str(tmp_path / f"{family}_template.db")
    with Database.create(path, kind="sr", dims=DIMS, durability="wal",
                         page_size=PAGE_SIZE):
        pass
    return path


def _flush_crashed_handles(db: Database) -> None:
    """Make the crashed process's buffered bytes visible to a re-open.

    Python's buffered file objects hold written bytes in userspace; a
    fresh ``open()`` of the same path cannot see them.  The crash model
    here is *process* death — the OS keeps what was handed to it — so
    walk to the innermost real file and flush it.  (The WAL already
    flushes every commit and every torn append before dying.)
    """
    pagefile = db.index.store.pagefile
    while hasattr(pagefile, "inner"):
        pagefile = pagefile.inner
    handle = getattr(pagefile, "_file", None)
    if handle is not None and not handle.closed:
        handle.flush()
        handle.close()
    wal = db.index.store.wal
    if wal is not None:
        wal.close()


def _run_until_crash(path: str, points: np.ndarray,
                     budget: int | None, seed: int,
                     sync_every: int = 100) -> tuple[int, bool]:
    """Insert ``points`` under a write budget; returns (ok, crashed)."""
    plan = FaultPlan(fail_after_write_bytes=budget, seed=seed)
    db = Database.open(path, fault_plan=plan, sync_every=sync_every)
    ok = 0
    crashed = False
    try:
        for i, point in enumerate(points):
            try:
                db.insert(point, value=i)
            except CrashError:
                crashed = True
                break
            ok += 1
    finally:
        if crashed:
            _flush_crashed_handles(db)
        else:
            try:
                db.close()
            except CrashError:
                # Batched (sync_every > 1) commits are applied to the
                # data file at the close-time fsync boundary, so the
                # budget can run out there too — a legitimate crash
                # point: the WAL has every commit, recovery replays.
                crashed = True
                _flush_crashed_handles(db)
    return ok, crashed


def _uncrashed_bytes(tmp_path, template: str, points: np.ndarray,
                     sync_every: int) -> int:
    """Bytes a fault-free run of the workload writes, log and data file.

    Every byte budget below is cut from this measurement, not from a
    literal: how much an insert logs is the log format's business.
    """
    probe = str(tmp_path / "probe.db")
    shutil.copy(template, probe)
    plan = FaultPlan(fail_after_write_bytes=None)
    db = Database.open(probe, fault_plan=plan, sync_every=sync_every)
    for i, point in enumerate(points):
        db.insert(point, value=i)
    db.close()
    assert plan.bytes_written > 0
    return plan.bytes_written


def _verify_recovered(path: str, points: np.ndarray, n_ok: int) -> int:
    """Reopen after a crash; assert integrity and k-NN parity."""
    with Database.open(path) as db:
        assert db.durability == "wal"  # the mode survives the crash too
        size = db.size
        # The insert that crashed may or may not have reached COMMIT.
        assert size in (n_ok, n_ok + 1), (
            f"recovered {size} points, committed prefix was {n_ok}"
        )
        db.verify()
        if size == 0:
            return size
        prefix = points[:size]
        k = min(K, size)
        queries = [prefix[0], prefix[size // 2],
                   (prefix[0] + prefix[-1]) / 2.0]
        for query in queries:
            dists = np.linalg.norm(prefix - query, axis=1)
            want = np.sort(dists)[:k]
            got = db.knn(query, k=k)
            # Distance parity with the brute-force reference; value-level
            # order can legitimately differ between equidistant neighbors.
            assert np.allclose([n.distance for n in got], want)
            for n in got:
                assert 0 <= n.value < size
                assert np.isclose(n.distance, dists[n.value])
        return size


@pytest.mark.parametrize("family", ["uniform", "cluster", "histogram"])
def test_randomized_crash_points_recover_cleanly(tmp_path, family):
    points = _workload(family)
    template = _make_template(tmp_path, family)

    total_bytes = _uncrashed_bytes(tmp_path, template, points, sync_every=100)

    rng = np.random.default_rng(SEED)
    budgets = sorted(
        int(b) for b in rng.integers(64, total_bytes, TRIALS_PER_FAMILY)
    )
    crashes = 0
    trial_path = str(tmp_path / "trial.db")
    for trial, budget in enumerate(budgets):
        shutil.copy(template, trial_path)
        wal_file = trial_path + ".wal"
        shutil.copy(template + ".wal", wal_file)
        n_ok, crashed = _run_until_crash(trial_path, points, budget,
                                         seed=SEED + trial)
        if not crashed:
            continue  # budget happened to cover the whole run
        crashes += 1
        _verify_recovered(trial_path, points, n_ok)
    # Budgets are sampled strictly below the calibrated total, so every
    # trial must die somewhere inside the workload.
    assert crashes == TRIALS_PER_FAMILY


def test_crash_between_commit_and_apply_is_replayed(tmp_path):
    """A transaction that reached COMMIT survives even if the data file
    never saw a single byte of it.

    Runs with ``sync_every=1`` so every commit fsyncs and is applied
    inline — the commit→apply gap the test aims at.  (With batching the
    gap moves to the fsync boundary, covered by the randomized suite.)
    """
    points = _workload("uniform")
    template = _make_template(tmp_path, "commitgap")
    # Find a budget that dies *after* a COMMIT record: binary-search is
    # overkill — just sweep a few budgets below what the whole run
    # writes and require at least one n_ok < size case.
    total_bytes = _uncrashed_bytes(tmp_path, template, points, sync_every=1)
    rng = np.random.default_rng(SEED + 99)
    seen_replayed_tail = False
    trial_path = str(tmp_path / "gap.db")
    for trial in range(40):
        budget = int(rng.integers(512, total_bytes))
        shutil.copy(template, trial_path)
        shutil.copy(template + ".wal", trial_path + ".wal")
        n_ok, crashed = _run_until_crash(trial_path, points, budget,
                                         seed=trial, sync_every=1)
        assert crashed  # the budget is below the run's bytes
        with Database.open(trial_path) as db:
            if db.size == n_ok + 1:
                seen_replayed_tail = True
            db.verify()
    assert seen_replayed_tail, (
        "no sampled crash landed between COMMIT and data-file application"
    )


def test_recovery_is_idempotent_at_the_database_level(tmp_path):
    points = _workload("uniform")
    template = _make_template(tmp_path, "idem")
    trial_path = str(tmp_path / "idem.db")
    shutil.copy(template, trial_path)
    shutil.copy(template + ".wal", trial_path + ".wal")
    budget = _uncrashed_bytes(tmp_path, template, points, sync_every=100) // 3
    n_ok, crashed = _run_until_crash(trial_path, points, budget, seed=7)
    assert crashed and n_ok > 0  # mid-run: commits to replay, and a torn tail
    first = _verify_recovered(trial_path, points, n_ok)
    # Opening (and thus recovering) again converges to the same state.
    second = _verify_recovered(trial_path, points, n_ok)
    assert first == second


def test_torn_meta_page_keeps_the_durability_mode(tmp_path):
    """The tear the superblock exists to survive: the meta page's pickled
    tail is mangled in the data file while the log still holds every
    commit.  The mode is read from the meta page *after* recovery has
    rewritten it, so the reopened database is still transactional."""
    points = uniform_dataset(300, DIMS, seed=SEED)
    live, torn = str(tmp_path / "live.db"), str(tmp_path / "torn.db")
    with Database.create(live, kind="sr", dims=DIMS, durability="wal",
                         page_size=PAGE_SIZE) as db:
        for i, point in enumerate(points):
            db.insert(point, value=i)
        # Process death, not a clean close: the log is un-checkpointed.
        shutil.copy(live, torn)
        shutil.copy(live + ".wal", torn + ".wal")
    with open(torn, "r+b") as handle:
        handle.seek(40)  # past the 24-byte superblock, inside the pickle
        handle.write(b"\xa5" * 64)
    with Database.open(torn) as db:
        assert db.durability == "wal"
        assert db.size == 300
        db.verify()
        logged = os.path.getsize(torn + ".wal")
        db.insert(points[0] / 2, value=300)
        assert os.path.getsize(torn + ".wal") > logged
