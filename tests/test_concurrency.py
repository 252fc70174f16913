"""Randomized writer/reader interleaving stress for snapshot isolation.

One writer thread replays a precomputed insert/delete schedule through a
``durability="wal"`` database while reader threads query concurrently —
through :meth:`Database.snapshot` handles, held or refreshed before
every batched call.  Every
answer must equal brute force over *some committed prefix* of the
schedule (the crash-harness oracle, applied to time instead of to
kill points): a result matching no prefix is a torn or dirty read.

The schedule is precomputed so each committed prefix's exact point set
is known up front; the writer publishes a monotone "commits so far"
counter after each commit.  A reader brackets its query between two
reads of that counter — ``before`` (just before pinning) and ``after``
(just after answering) — and the answer must match one prefix ``n``
with ``before <= n <= after + 1`` (the ``+ 1`` covers a commit whose
epoch published before the writer bumped the counter).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import Database

from .helpers import retained_images

DIMS = 4
PREFILL = 16
MIN_POINTS = 8
K = 3


def _build_schedule(rng, ops):
    """Precompute the op sequence and the point set after every commit.

    Returns ``states``: ``states[n]`` is the ``(m, DIMS)`` array of live
    points after ``n`` committed operations (``states[0]`` is the
    prefill), plus the flat op list the writer replays.
    """
    current = [rng.normal(size=DIMS) for _ in range(PREFILL)]
    states = [np.array(current)]
    schedule = []
    for _ in range(ops):
        if len(current) > MIN_POINTS and rng.random() < 0.35:
            victim = int(rng.integers(len(current)))
            schedule.append(("delete", current.pop(victim)))
        else:
            point = rng.normal(size=DIMS)
            current.append(point)
            schedule.append(("insert", point))
        states.append(np.array(current))
    return states, schedule


def _matches_some_prefix(distances, states, query, lo, hi):
    """Whether ``distances`` equals brute-force k-NN over states[lo..hi]."""
    for n in range(lo, min(hi, len(states) - 1) + 1):
        want = np.sort(np.linalg.norm(states[n] - query, axis=1))[:K]
        if len(distances) == len(want) and np.allclose(distances, want):
            return n
    return None


class _Writer(threading.Thread):
    """Replays the schedule, publishing the commit count after each op."""

    def __init__(self, db, schedule, pace_every=8):
        super().__init__(name="stress-writer")
        self.db = db
        self.schedule = schedule
        self.pace_every = pace_every
        self.committed = 0  # monotone; torn int reads are impossible
        self.error = None

    def run(self):
        try:
            for i, (op, point) in enumerate(self.schedule):
                if op == "insert":
                    self.db.insert(point)
                else:
                    self.db.delete(point)
                self.committed = i + 1
                if self.pace_every and (i + 1) % self.pace_every == 0:
                    # A short breather keeps readers overlapping the
                    # whole schedule instead of racing a burst.
                    threading.Event().wait(0.001)
        except BaseException as exc:  # surfaced by the main thread
            self.error = exc


@pytest.fixture
def wal_db(tmp_path):
    db = Database.create(str(tmp_path / "stress.db"), kind="srtree",
                         dims=DIMS, durability="wal")
    yield db
    if not db.closed:
        db.close()


def test_randomized_writer_vs_snapshot_readers(wal_db):
    """Direct Database.snapshot() readers against a live WAL writer."""
    rng = np.random.default_rng(0xC0FFEE)
    states, schedule = _build_schedule(rng, ops=120)
    for point in states[0]:
        wal_db.insert(point)
    writer = _Writer(wal_db, schedule)

    checks = []       # (reader, iteration, matched prefix) — must be full
    failures = []     # torn/dirty reads with their evidence
    iterations = 35

    def read_loop(reader_id):
        local = np.random.default_rng(1000 + reader_id)
        for it in range(iterations):
            query = local.normal(size=DIMS)
            before = writer.committed
            with wal_db.snapshot() as snap:
                got = [n.distance for n in snap.knn(query, k=K)]
                # A second query on the same pin must agree with the
                # same prefix — the pin holds while the writer moves on.
                # Put the radius halfway between the 2nd and 3rd
                # neighbor so no point sits on the float boundary.
                radius = (got[1] + got[2]) / 2.0 if len(got) == 3 else 1.0
                in_range = snap.range(query, radius)
            after = writer.committed
            n = _matches_some_prefix(got, states, query, before, after + 1)
            if n is None:
                failures.append((reader_id, it, before, after, got))
                continue
            if got[2] - got[1] > 1e-9:  # boundary is unambiguous
                want_in_range = int(np.sum(
                    np.linalg.norm(states[n] - query, axis=1) <= radius))
                if len(in_range) != want_in_range:
                    failures.append((reader_id, it, "range", n,
                                     len(in_range), want_in_range))
                    continue
            checks.append((reader_id, it, n))

    readers = [threading.Thread(target=read_loop, args=(i,),
                                name=f"stress-reader-{i}")
               for i in range(3)]
    writer.start()
    for thread in readers:
        thread.start()
    for thread in readers:
        thread.join(timeout=120)
    writer.join(timeout=120)
    assert writer.error is None, f"writer crashed: {writer.error!r}"
    assert not any(t.is_alive() for t in readers + [writer]), "stress hung"
    assert not failures, f"torn/dirty reads: {failures[:5]}"
    # 3 readers x 35 iterations x (knn + range) = 210 verified overlaps.
    assert 2 * len(checks) >= 200
    # Every reader pin was released.
    assert wal_db.index.store.snapshot_pins == 0
    assert not retained_images(wal_db.index.store)


def test_refreshed_snapshot_blocks_are_single_epoch(wal_db):
    """A snapshot refreshed before each batched call must answer the
    whole block from ONE prefix."""
    rng = np.random.default_rng(0xBEEF)
    states, schedule = _build_schedule(rng, ops=100)
    for point in states[0]:
        wal_db.insert(point)
    writer = _Writer(wal_db, schedule, pace_every=4)

    block = 8
    blocks = 16
    failures = []
    consistent = 0

    with wal_db.snapshot() as snap:
        writer.start()
        try:
            for b in range(blocks):
                queries = rng.normal(size=(block, DIMS))
                before = writer.committed
                snap.refresh()
                results = snap.knn_batch(queries, k=K)
                after = writer.committed
                # One prefix must explain EVERY query in the block: the
                # snapshot reads one committed epoch until refreshed.
                candidates = None
                for qi in range(block):
                    got = [n.distance for n in results[qi]]
                    ns = {
                        n for n in range(before, min(after + 1,
                                                     len(states) - 1) + 1)
                        if _matches_some_prefix(got, states, queries[qi],
                                                n, n) is not None
                    }
                    candidates = ns if candidates is None else candidates & ns
                    if not candidates:
                        failures.append((b, qi, before, after))
                        break
                else:
                    consistent += 1
        finally:
            writer.join(timeout=120)
    assert writer.error is None, f"writer crashed: {writer.error!r}"
    assert not failures, f"cross-epoch (torn) blocks: {failures[:5]}"
    assert consistent == blocks
    # Snapshot closed: its pin is gone, the database still works.
    assert wal_db.index.store.snapshot_pins == 0
    final = states[-1]
    q = final[0]
    got = [n.distance for n in wal_db.knn(q, k=K)]
    assert np.allclose(got, np.sort(np.linalg.norm(final - q, axis=1))[:K])


def test_refresh_loop_under_write_pressure(wal_db):
    """A long-lived snapshot refreshed mid-stream always lands on a prefix."""
    rng = np.random.default_rng(0xABBA)
    states, schedule = _build_schedule(rng, ops=80)
    for point in states[0]:
        wal_db.insert(point)
    writer = _Writer(wal_db, schedule)
    failures = []
    snap = wal_db.snapshot()
    try:
        writer.start()
        for it in range(30):
            query = rng.normal(size=DIMS)
            before = writer.committed
            snap.refresh()
            got = [n.distance for n in snap.knn(query, k=K)]
            after = writer.committed
            if _matches_some_prefix(got, states, query,
                                    before, after + 1) is None:
                failures.append((it, before, after, got))
        writer.join(timeout=120)
    finally:
        snap.close()
    assert writer.error is None, f"writer crashed: {writer.error!r}"
    assert not failures, f"refresh landed off-prefix: {failures[:5]}"
    assert wal_db.index.store.snapshot_pins == 0
