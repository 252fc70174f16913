"""Dynamic micro-batching: coalescing correctness under concurrency.

The contract under test (``repro.net.coalesce`` + its ``QueryServer``
integration): concurrent ``knn``/``range`` requests coalesce into
shared batched traversals whose per-query results are **bit-equal** to
individual dispatch; deadlines shed only the member that expired;
drain flushes half-full batches instead of dropping them; and the
flag-off path (``batch_delay_ms=0``) constructs no scheduler at all.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.api import Database
from repro.exceptions import DeadlineExceededError
from repro.net import QueryServer, RemoteDatabase
from repro.net.coalesce import CoalescedDeadlineError, CoalescingScheduler
from repro.workloads import cluster_dataset, histogram_dataset, uniform_dataset

WORKLOADS = {
    "uniform": lambda: uniform_dataset(150, 6, seed=21),
    "clusters": lambda: cluster_dataset(6, 25, 6, seed=22),
    "histograms": lambda: histogram_dataset(120, bins=8, seed=23),
}


def _addr(server):
    return "%s:%d" % server.address


def assert_neighbors_equal(got, want):
    assert [n.value for n in got] == [n.value for n in want]
    for g, w in zip(got, want):
        assert g.distance == w.distance
        assert np.array_equal(np.asarray(g.point), np.asarray(w.point))


class _SlowSource:
    """A Database proxy whose batch execution takes a controlled time.

    Lets tests pin the scheduler in its "busy" state long enough to
    race deadlines and stragglers against a running batch.
    """

    def __init__(self, db, batch_sleep_s=0.0, knn_sleep_s=0.0):
        self._db = db
        self.batch_sleep_s = batch_sleep_s
        self.knn_sleep_s = knn_sleep_s

    def __getattr__(self, name):
        return getattr(self._db, name)

    def knn(self, *args, **kwargs):
        if self.knn_sleep_s:
            time.sleep(self.knn_sleep_s)
        return self._db.knn(*args, **kwargs)

    def knn_batch(self, *args, **kwargs):
        if self.batch_sleep_s:
            time.sleep(self.batch_sleep_s)
        return self._db.knn_batch(*args, **kwargs)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    data = uniform_dataset(200, 6, seed=5)
    path = str(tmp_path_factory.mktemp("batching") / "c.srtree")
    with Database.create(path, kind="sr", dims=6) as db:
        db.insert_many(data)
    db = Database.open(path)
    yield db, data
    db.close()


# ---------------------------------------------------------------------------
# CoalescingScheduler unit behavior
# ---------------------------------------------------------------------------


def test_scheduler_validates_knobs(corpus):
    db, _ = corpus
    with pytest.raises(ValueError, match="batch_delay_s"):
        CoalescingScheduler(db, batch_delay_s=0.0, max_batch=8)
    with pytest.raises(ValueError, match="max_batch"):
        CoalescingScheduler(db, batch_delay_s=0.01, max_batch=1)


def test_full_batch_executes_without_waiting_for_timer(corpus):
    db, data = corpus
    sched = CoalescingScheduler(db, batch_delay_s=30.0, max_batch=4)
    try:
        results = [None] * 4

        def call(i):
            results[i] = sched.submit("knn", np.asarray(data[i]), 3, None)

        threads = [threading.Thread(target=call, args=(i,)) for i in range(4)]
        started = time.monotonic()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        wall = time.monotonic() - started
        # A 30 s timer can't have fired; the 4th submit flushed "full".
        assert wall < 10.0
        for i in range(4):
            assert_neighbors_equal(results[i], db.knn(data[i], k=3))
        stats = sched.describe()
        assert stats["flushes"] >= 1
        assert stats["triggers"]["full"] >= 1
        assert stats["largest_batch"] == 4
        assert stats["coalesced"] >= 4
    finally:
        sched.drain()


def test_timer_flush_fires_for_lone_request(corpus):
    db, data = corpus
    sched = CoalescingScheduler(db, batch_delay_s=0.02, max_batch=64)
    try:
        got = sched.submit("knn", np.asarray(data[0]), 5, None)
        assert_neighbors_equal(got, db.knn(data[0], k=5))
        assert sched.describe()["triggers"]["timer"] >= 1
    finally:
        sched.drain()


def test_mixed_k_burst_bit_equal(corpus):
    db, data = corpus
    sched = CoalescingScheduler(db, batch_delay_s=0.05, max_batch=16)
    try:
        n = 12
        ks = [1 + (i % 7) for i in range(n)]
        results = [None] * n

        def call(i):
            results[i] = sched.submit("knn", np.asarray(data[i]), ks[i], None)

        threads = [threading.Thread(target=call, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        for i in range(n):
            want = db.knn(data[i], k=ks[i])
            assert len(results[i]) == ks[i]
            assert_neighbors_equal(results[i], want)
    finally:
        sched.drain()


def test_mixed_radius_range_burst_bit_equal(corpus):
    db, data = corpus
    sched = CoalescingScheduler(db, batch_delay_s=0.05, max_batch=16)
    try:
        n = 8
        radii = [0.1 + 0.07 * i for i in range(n)]
        results = [None] * n

        def call(i):
            results[i] = sched.submit("range", np.asarray(data[i]),
                                      radii[i], None)

        threads = [threading.Thread(target=call, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        for i in range(n):
            assert_neighbors_equal(results[i], db.range(data[i], radii[i]))
    finally:
        sched.drain()


def test_deadline_expired_in_batch_sheds_member_only(corpus):
    db, data = corpus
    slow = _SlowSource(db, batch_sleep_s=0.3)
    sched = CoalescingScheduler(slow, batch_delay_s=0.02, max_batch=2)
    try:
        outcome = {}

        def first(i):
            outcome[i] = sched.submit("knn", np.asarray(data[i]), 2, None)

        # Fill a batch of two: it executes ~0.3 s, pinning "knn" busy.
        pair = [threading.Thread(target=first, args=(i,)) for i in (0, 1)]
        for t in pair:
            t.start()
        time.sleep(0.1)  # the slow batch is now mid-flight

        def doomed():
            try:
                outcome["doomed"] = sched.submit(
                    "knn", np.asarray(data[2]), 2,
                    time.monotonic() + 0.05)  # expires before busy clears
            except CoalescedDeadlineError as exc:
                outcome["doomed"] = exc

        def survivor():
            outcome["ok"] = sched.submit("knn", np.asarray(data[3]), 2, None)

        others = [threading.Thread(target=doomed),
                  threading.Thread(target=survivor)]
        for t in others:
            t.start()
        for t in pair + others:
            t.join(timeout=10.0)

        assert isinstance(outcome["doomed"], CoalescedDeadlineError)
        assert_neighbors_equal(outcome["ok"], db.knn(data[3], k=2))
        for i in (0, 1):
            assert_neighbors_equal(outcome[i], db.knn(data[i], k=2))
        assert sched.describe()["shed_deadline"] == 1
    finally:
        sched.drain()


def test_batch_is_called_with_its_largest_member_deadline(corpus):
    # The server hands the scheduler its one deadline -> pool timeout=
    # function; a batch calls it with the *largest* member deadline, so
    # one short budget cannot degrade its batchmates.
    db, data = corpus
    seen = []

    class _Recording(_SlowSource):
        def knn_batch(self, points, k=1, **kwargs):
            seen.append(kwargs)
            return self._db.knn_batch(points, k=k)

    sched = CoalescingScheduler(
        _Recording(db), batch_delay_s=30.0, max_batch=3,
        call_kwargs=lambda deadline: {"timeout": deadline})
    try:
        far = time.monotonic() + 60.0
        deadlines = [far - 30.0, far, None]
        threads = [
            threading.Thread(target=sched.submit, args=(
                "knn", np.asarray(data[i]), 2, deadline))
            for i, deadline in enumerate(deadlines)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert seen == [{"timeout": far}]
    finally:
        sched.drain()


def test_drain_flushes_half_full_batch(corpus):
    db, data = corpus
    # A 60 s delay: without drain() the lone member would wait forever.
    sched = CoalescingScheduler(db, batch_delay_s=60.0, max_batch=32)
    result = {}

    def call():
        result["got"] = sched.submit("knn", np.asarray(data[0]), 4, None)

    thread = threading.Thread(target=call)
    thread.start()
    time.sleep(0.1)
    started = time.monotonic()
    sched.drain()
    thread.join(timeout=10.0)
    assert time.monotonic() - started < 10.0
    assert_neighbors_equal(result["got"], db.knn(data[0], k=4))
    stats = sched.describe()
    assert stats["triggers"]["drain"] >= 1
    assert stats["draining"] is True


def test_submit_after_drain_runs_solo(corpus):
    db, data = corpus
    sched = CoalescingScheduler(db, batch_delay_s=0.02, max_batch=8)
    sched.drain()
    got = sched.submit("knn", np.asarray(data[5]), 3, None)
    assert_neighbors_equal(got, db.knn(data[5], k=3))


# ---------------------------------------------------------------------------
# QueryServer integration
# ---------------------------------------------------------------------------


def test_flag_off_constructs_no_scheduler(corpus):
    db, _ = corpus
    with QueryServer(db) as server:
        assert server._coalescer is None
        assert "batching" not in server.describe()
        with RemoteDatabase.connect(_addr(server)) as rdb:
            assert "batching" not in rdb.server_info()


def test_describe_exposes_batching_stats(corpus):
    db, data = corpus
    with QueryServer(db, batch_delay_ms=5.0, max_batch=8) as server:
        with RemoteDatabase.connect(_addr(server)) as rdb:
            rdb.knn(data[0], k=3)
            doc = rdb.server_info()["batching"]
            assert doc["batch_delay_ms"] == 5.0
            assert doc["max_batch"] == 8
            assert doc["flushes"] >= 1
            assert server.describe()["batching"]["flushes"] >= 1


@pytest.mark.parametrize("family", sorted(WORKLOADS))
def test_coalesced_bit_equal_to_serial_on_paper_workloads(family, tmp_path):
    data = WORKLOADS[family]()
    path = str(tmp_path / f"{family}.srtree")
    with Database.create(path, kind="sr", dims=data.shape[1]) as db:
        db.insert_many(data)
    with Database.open(path) as db:
        rng = np.random.default_rng(11)
        picks = rng.choice(data.shape[0], size=12, replace=False)
        queries = data[picks]
        ks = [1 + (i % 5) for i in range(len(queries))]
        radii = [0.1 + 0.05 * (i % 6) for i in range(len(queries))]
        with QueryServer(db, max_inflight=16, max_queue=32,
                         batch_delay_ms=5.0, max_batch=8) as server:
            with RemoteDatabase.connect(_addr(server),
                                        pool_size=12) as rdb:
                knn_got = [None] * len(queries)
                rng_got = [None] * len(queries)

                def call(i):
                    knn_got[i] = rdb.knn(queries[i], k=ks[i])
                    rng_got[i] = rdb.range(queries[i], radii[i])

                threads = [threading.Thread(target=call, args=(i,))
                           for i in range(len(queries))]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30.0)
        # Reference = serial dispatch on the local handle.
        for i in range(len(queries)):
            assert_neighbors_equal(knn_got[i], db.knn(queries[i], k=ks[i]))
            assert_neighbors_equal(rng_got[i],
                                   db.range(queries[i], radii[i]))


def test_deadline_504_in_batch_leaves_batchmates_unharmed(corpus):
    db, data = corpus
    slow = _SlowSource(db, batch_sleep_s=0.3)
    with QueryServer(slow, max_inflight=8, max_queue=16,
                     batch_delay_ms=20.0, max_batch=2) as server:
        with RemoteDatabase.connect(_addr(server), pool_size=8) as rdb:
            outcome = {}

            def first(i):
                outcome[i] = rdb.knn(data[i], k=2)

            pair = [threading.Thread(target=first, args=(i,)) for i in (0, 1)]
            for t in pair:
                t.start()
            time.sleep(0.12)  # the 2-member batch is mid-execution

            def doomed():
                try:
                    outcome["doomed"] = rdb.knn(data[2], k=2, deadline_ms=50)
                except DeadlineExceededError as exc:
                    outcome["doomed"] = exc

            def survivor():
                outcome["ok"] = rdb.knn(data[3], k=2)

            others = [threading.Thread(target=doomed),
                      threading.Thread(target=survivor)]
            for t in others:
                t.start()
            for t in pair + others:
                t.join(timeout=30.0)

            assert isinstance(outcome["doomed"], DeadlineExceededError)
            assert_neighbors_equal(outcome["ok"], db.knn(data[3], k=2))
            for i in (0, 1):
                assert_neighbors_equal(outcome[i], db.knn(data[i], k=2))
        assert server.describe()["shed"]["deadline"] >= 1
        assert server.describe()["batching"]["shed_deadline"] >= 1


def test_graceful_close_finishes_waiting_batch_members(corpus):
    db, data = corpus
    # A delay far longer than the test: only drain can flush the group.
    with QueryServer(db, batch_delay_ms=60_000.0, max_batch=32) as server:
        with RemoteDatabase.connect(_addr(server)) as rdb:
            result = {}

            def call():
                result["got"] = rdb.knn(data[0], k=3)

            thread = threading.Thread(target=call)
            thread.start()
            time.sleep(0.15)  # the request is enqueued, group half-full
            server.close()  # must flush, not drop
            thread.join(timeout=10.0)
            assert_neighbors_equal(result["got"], db.knn(data[0], k=3))


# ---------------------------------------------------------------------------
# Connection pool
# ---------------------------------------------------------------------------


def test_pool_size_validated(corpus):
    db, _ = corpus
    with QueryServer(db) as server:
        with pytest.raises(ValueError, match="pool_size"):
            RemoteDatabase.connect(_addr(server), pool_size=0)


def test_two_threads_are_not_serialized_by_the_client(corpus):
    """Satellite 2: the pool must let two reads overlap server-side.

    The served handle sleeps 0.2 s per knn (``time.sleep`` releases
    the GIL, so the server's two handler threads overlap even on one
    core).  With the old single locked connection the two client
    threads serialized at ~0.4 s; the pool must finish in well under
    that.
    """
    db, data = corpus
    slow = _SlowSource(db, knn_sleep_s=0.2)
    with QueryServer(slow, max_inflight=4, max_queue=8) as server:
        with RemoteDatabase.connect(_addr(server), pool_size=2) as rdb:
            rdb.server_info()  # warm one connection
            results = [None, None]

            def call(i):
                results[i] = rdb.knn(data[i], k=2)

            threads = [threading.Thread(target=call, args=(i,))
                       for i in (0, 1)]
            started = time.monotonic()
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10.0)
            wall = time.monotonic() - started
            assert wall < 0.35, (
                f"two concurrent reads took {wall:.3f}s — serialized "
                f"client transport (expected overlap well under 0.4s)")
            assert rdb._pool.created == 2
            for i in (0, 1):
                assert_neighbors_equal(results[i], db.knn(data[i], k=2))


def test_pool_blocks_at_capacity_then_recovers(corpus):
    db, data = corpus
    slow = _SlowSource(db, knn_sleep_s=0.1)
    with QueryServer(slow, max_inflight=8, max_queue=16) as server:
        with RemoteDatabase.connect(_addr(server), pool_size=2) as rdb:
            n = 6
            results = [None] * n

            def call(i):
                results[i] = rdb.knn(data[i], k=1)

            threads = [threading.Thread(target=call, args=(i,))
                       for i in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
            # Never more than pool_size sockets, and every call landed.
            assert rdb._pool.created <= 2
            for i in range(n):
                assert_neighbors_equal(results[i], db.knn(data[i], k=1))
