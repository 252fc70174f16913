"""Group commit in the query server: coalescing under concurrency.

The contract under test (``repro.net.coalesce`` + its ``QueryServer``
integration): a ``knn``/``range`` request whose operation is idle runs
at once as the plain call; those that arrive while it runs are answered
together by one batched call when it returns, **bit-equal** to
individual dispatch, at most ``MAX_GROUP`` at a time; deadlines shed
only the member that expired; drain runs waiting groups at once instead
of dropping them; and there is no timer, thread or knob to set.
``tests/test_coalesce_model.py`` drives the same scheduler through
generated interleavings.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

from repro.api import Database
from repro.cli import main
from repro.exceptions import DeadlineExceededError
from repro.net import QueryServer, RemoteDatabase
from repro.net.coalesce import (
    MAX_GROUP,
    CoalescedDeadlineError,
    CoalescingScheduler,
)
from repro.workloads import cluster_dataset, histogram_dataset, uniform_dataset

from .helpers import post

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
    """A Database proxy whose queries take a controlled time.

    Lets tests keep an operation busy long enough to race deadlines and
    late arrivals against a running call.
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

    def range(self, *args, **kwargs):
        if self.knn_sleep_s:
            time.sleep(self.knn_sleep_s)
        return self._db.range(*args, **kwargs)

    def knn_batch(self, *args, **kwargs):
        if self.batch_sleep_s:
            time.sleep(self.batch_sleep_s)
        return self._db.knn_batch(*args, **kwargs)


class _Held:
    """A Database proxy that records its calls and can hold one.

    After ``hold()`` the next call blocks until ``release()``, keeping
    its operation busy; every call's name, row count and keywords land
    in ``calls``.
    """

    def __init__(self, db):
        self._db = db
        self.calls = []
        self._held = 0
        self._open = threading.Event()
        self.entered = threading.Event()

    def __getattr__(self, name):
        return getattr(self._db, name)

    def hold(self):
        self._held, self._open, self.entered = (
            1, threading.Event(), threading.Event())

    def release(self):
        self._open.set()

    def _call(self, name, first, *args, **kwargs):
        rows = len(first) if name.endswith("_batch") else 1
        self.calls.append((name, rows, kwargs))
        if self._held:
            self._held -= 1
            self.entered.set()
            assert self._open.wait(10.0)
        return getattr(self._db, name)(first, *args)

    def knn(self, point, k=1, **kwargs):
        return self._call("knn", point, k, **kwargs)

    def knn_batch(self, points, k=1, **kwargs):
        return self._call("knn_batch", points, k, **kwargs)

    def range(self, point, radius, **kwargs):
        return self._call("range", point, radius, **kwargs)

    def range_batch(self, points, radius, **kwargs):
        return self._call("range_batch", points, radius, **kwargs)


def _behind_a_held_call(sched, source, op, requests):
    """Submit ``requests`` (``(point, param, deadline)``) while a first
    call of ``op`` is held, then release it; returns each outcome."""
    outcomes = [None] * len(requests)

    def submit(i):
        point, param, deadline = requests[i]
        try:
            outcomes[i] = sched.submit(op, np.asarray(point), param, deadline)
        except Exception as exc:
            outcomes[i] = exc

    source.hold()
    threads = [threading.Thread(target=submit, args=(i,))
               for i in range(len(requests))]
    threads[0].start()
    assert source.entered.wait(10.0)
    for t in threads[1:]:
        t.start()
    _wait_for(lambda: sched.describe()["pending"] == len(requests) - 1)
    source.release()
    for t in threads:
        t.join(timeout=10.0)
    return outcomes


def _wait_for(condition, timeout=10.0):
    limit = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < limit, "condition never held"
        time.sleep(0.001)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    data = uniform_dataset(200, 6, seed=5)
    path = str(tmp_path_factory.mktemp("batching") / "c.srtree")
    with Database.create(path, kind="sr", dims=6) as db:
        db.insert_many(data)
    db = Database.open(path)
    yield db, data, path
    db.close()


# ---------------------------------------------------------------------------
# CoalescingScheduler unit behavior
# ---------------------------------------------------------------------------


def test_scheduler_has_no_timer_knobs(corpus):
    db, _, _ = corpus
    for knob in ({"batch_delay_s": 0.01}, {"max_batch": 8}):
        with pytest.raises(TypeError, match=next(iter(knob))):
            CoalescingScheduler(db, **knob)


def test_server_always_coalesces_and_has_no_batching_flags(corpus):
    db, _, path = corpus
    with QueryServer(db) as server:
        assert "batching" in server.describe()
        with RemoteDatabase.connect(_addr(server)) as rdb:
            assert "batching" in rdb.server_info()
    for knob in ({"batch_delay_ms": 2.0}, {"max_batch": 8}):
        with pytest.raises(TypeError, match=next(iter(knob))):
            QueryServer(db, **knob)
    for flag in ("--batch-delay-ms", "--max-batch"):
        with pytest.raises(SystemExit) as exited:
            main(["serve", "--index", path, flag, "2"])
        assert exited.value.code == 2


def test_lone_request_runs_solo(corpus):
    db, data, _ = corpus
    source = _Held(db)
    sched = CoalescingScheduler(source)
    got = sched.submit("knn", np.asarray(data[0]), 5, None)
    assert_neighbors_equal(got, db.knn(data[0], k=5))
    # The plain call, not a one-row batch: the scalar engine answers.
    assert source.calls == [("knn", 1, {})]
    stats = sched.describe()
    assert (stats["solo"], stats["flushes"], stats["busy"]) == (1, 0, [])


def test_full_batch_executes_without_waiting_for_timer(corpus):
    db, data, _ = corpus
    source = _Held(db)
    sched = CoalescingScheduler(source)
    requests = [(data[i], 1 + i % 3, None) for i in range(MAX_GROUP + 3)]
    started = time.monotonic()
    outcomes = _behind_a_held_call(sched, source, "knn", requests)
    assert time.monotonic() - started < 10.0
    # One held solo call, then a full group and the two left over.
    assert [(name, rows) for name, rows, _ in source.calls] == [
        ("knn", 1), ("knn_batch", MAX_GROUP), ("knn_batch", 2)]
    for (point, k, _), got in zip(requests, outcomes):
        assert_neighbors_equal(got, db.knn(point, k=k))
    stats = sched.describe()
    assert stats["largest_batch"] == MAX_GROUP
    assert stats["coalesced"] == MAX_GROUP + 2
    assert (stats["pending"], stats["busy"]) == (0, [])


def test_mixed_k_burst_bit_equal(corpus):
    db, data, _ = corpus
    source = _Held(db)
    sched = CoalescingScheduler(source)
    ks = [1 + (i % 7) for i in range(12)]
    outcomes = _behind_a_held_call(
        sched, source, "knn", [(data[i], ks[i], None) for i in range(12)])
    assert source.calls[1][:2] == ("knn_batch", 11)
    for i in range(12):
        assert len(outcomes[i]) == ks[i]
        assert_neighbors_equal(outcomes[i], db.knn(data[i], k=ks[i]))


def test_mixed_radius_range_burst_bit_equal(corpus):
    db, data, _ = corpus
    source = _Held(db)
    sched = CoalescingScheduler(source)
    radii = [0.1 + 0.07 * i for i in range(8)]
    outcomes = _behind_a_held_call(
        sched, source, "range", [(data[i], radii[i], None) for i in range(8)])
    assert source.calls[1][:2] == ("range_batch", 7)
    for i in range(8):
        assert_neighbors_equal(outcomes[i], db.range(data[i], radii[i]))


def test_deadline_expired_in_batch_sheds_member_only(corpus):
    db, data, _ = corpus
    source = _Held(db)
    sched = CoalescingScheduler(source)
    soon = time.monotonic() + 0.05
    outcomes = [None] * 4

    def submit(i, deadline):
        try:
            outcomes[i] = sched.submit("knn", np.asarray(data[i]), 2,
                                       deadline)
        except CoalescedDeadlineError as exc:
            outcomes[i] = exc

    source.hold()
    threads = [threading.Thread(target=submit, args=(i, deadline))
               for i, deadline in enumerate((None, None, soon, None))]
    threads[0].start()
    assert source.entered.wait(10.0)
    for t in threads[1:]:
        t.start()
    _wait_for(lambda: sched.describe()["pending"] == 3)
    _wait_for(lambda: time.monotonic() > soon)  # expires while it waits
    source.release()
    for t in threads:
        t.join(timeout=10.0)
    assert isinstance(outcomes[2], CoalescedDeadlineError)
    for i in (0, 1, 3):
        assert_neighbors_equal(outcomes[i], db.knn(data[i], k=2))
    assert source.calls[1][:2] == ("knn_batch", 2)
    assert sched.describe()["shed_deadline"] == 1


def test_batch_is_called_with_its_largest_member_deadline(corpus):
    # The server hands the scheduler its one deadline -> pool timeout=
    # function; a group calls it with the *largest* member deadline, so
    # one short budget cannot degrade its groupmates.
    db, data, _ = corpus
    source = _Held(db)
    sched = CoalescingScheduler(
        source, call_kwargs=lambda deadline: {"timeout": deadline})
    far = time.monotonic() + 60.0
    _behind_a_held_call(sched, source, "knn", [
        (data[i], 2, deadline)
        for i, deadline in enumerate((None, far - 30.0, far, None))])
    assert source.calls[1] == ("knn_batch", 3, {"timeout": far})


def test_drain_flushes_half_full_batch(corpus):
    db, data, _ = corpus
    source = _Held(db)
    sched = CoalescingScheduler(source)
    result = {}

    def call(i):
        result[i] = sched.submit("knn", np.asarray(data[i]), 4, None)

    source.hold()
    running = threading.Thread(target=call, args=(0,))
    running.start()
    assert source.entered.wait(10.0)
    waiting = threading.Thread(target=call, args=(1,))
    waiting.start()
    _wait_for(lambda: sched.describe()["pending"] == 1)
    # The waiting group runs now, while the call ahead of it is held.
    sched.drain()
    waiting.join(timeout=10.0)
    assert_neighbors_equal(result[1], db.knn(data[1], k=4))
    assert running.is_alive()
    source.release()
    running.join(timeout=10.0)
    assert_neighbors_equal(result[0], db.knn(data[0], k=4))
    stats = sched.describe()
    assert (stats["flushes"], stats["pending"], stats["busy"]) == (1, 0, [])


def test_submit_after_drain_runs_solo(corpus):
    db, data, _ = corpus
    sched = CoalescingScheduler(db)
    sched.drain()
    got = sched.submit("knn", np.asarray(data[5]), 3, None)
    assert_neighbors_equal(got, db.knn(data[5], k=3))
    assert sched.describe()["solo"] == 1


# ---------------------------------------------------------------------------
# QueryServer integration
# ---------------------------------------------------------------------------


def test_describe_exposes_batching_stats(corpus):
    db, data, _ = corpus
    with QueryServer(db) as server:
        with RemoteDatabase.connect(_addr(server)) as rdb:
            rdb.knn(data[0], k=3)
            doc = rdb.server_info()["batching"]
            assert doc["max_group"] == MAX_GROUP
            assert (doc["solo"], doc["flushes"], doc["pending"]) == (1, 0, 0)
            assert server.describe()["batching"]["solo"] == 1


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
        with QueryServer(_SlowSource(db, knn_sleep_s=0.05), max_inflight=16,
                         max_queue=32) as server:
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
            # The first reads ran alone and held their operation for
            # 50 ms: the rest were answered by group calls.
            assert server.describe()["batching"]["coalesced"] > 0
        # Reference = serial dispatch on the local handle.
        for i in range(len(queries)):
            assert_neighbors_equal(knn_got[i], db.knn(queries[i], k=ks[i]))
            assert_neighbors_equal(rng_got[i],
                                   db.range(queries[i], radii[i]))


def test_deadline_504_in_batch_leaves_batchmates_unharmed(corpus):
    db, data, _ = corpus
    # A lone knn holds the operation for 0.3 s; what queues behind it
    # runs as one group when it returns.
    slow = _SlowSource(db, knn_sleep_s=0.3)
    with QueryServer(slow, max_inflight=8, max_queue=16) as server:
        with RemoteDatabase.connect(_addr(server), pool_size=8) as rdb:
            outcome = {}

            def first(i):
                outcome[i] = rdb.knn(data[i], k=2)

            pair = [threading.Thread(target=first, args=(i,)) for i in (0, 1)]
            for t in pair:
                t.start()
            time.sleep(0.12)  # the first call is mid-execution

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
    db, data, _ = corpus
    # A lone knn holds the operation; a second waits behind it.
    with QueryServer(_SlowSource(db, knn_sleep_s=0.5)) as server:
        with RemoteDatabase.connect(_addr(server)) as rdb:
            result = {}

            def call(i):
                result[i] = rdb.knn(data[i], k=3)

            threads = [threading.Thread(target=call, args=(i,))
                       for i in (0, 1)]
            for t in threads:
                t.start()
            _wait_for(
                lambda: server.describe()["batching"]["pending"] == 1)
            server.close()  # must run the waiting member, not drop it
            for t in threads:
                t.join(timeout=10.0)
            for i in (0, 1):
                assert_neighbors_equal(result[i], db.knn(data[i], k=3))


# ---------------------------------------------------------------------------
# The routing rule: a one-row read is coalesced, any other is one batch
# ---------------------------------------------------------------------------


class _HeldServer:
    """A server over a ``_Held`` source whose first ``knn`` is held open,
    and a client with a connection for each thread."""

    def __init__(self, db):
        self.source = _Held(db)
        self.server = QueryServer(self.source)
        self.rdb = RemoteDatabase.connect(_addr(self.server), pool_size=8)
        self.threads = []
        self.results = {}

    def start(self, name, call):
        def run():
            self.results[name] = call()
        thread = threading.Thread(target=run)
        thread.start()
        self.threads.append(thread)

    def hold_a_knn(self, point):
        self.source.hold()
        self.start("held", lambda: self.rdb.knn(point, k=3))
        assert self.source.entered.wait(10.0)

    def pending(self):
        return self.server.describe()["batching"]["pending"]

    def close(self):
        self.source.release()
        for thread in self.threads:
            thread.join(timeout=10.0)
        self.rdb.close()
        self.server.close()


@pytest.fixture
def held(corpus):
    served = _HeldServer(corpus[0])
    yield served
    served.close()


def test_a_one_row_read_runs_solo_as_the_plain_call(corpus, held):
    db, data, _ = corpus
    assert_neighbors_equal(held.rdb.knn(data[0], k=3), db.knn(data[0], k=3))
    # A one-row batch is the same request on the wire.
    (got,) = held.rdb.knn_batch(data[1:2], k=4)
    assert_neighbors_equal(got, db.knn(data[1], k=4))
    (got,) = held.rdb.range_batch(data[2:3], 0.3)
    assert_neighbors_equal(got, db.range(data[2], 0.3))
    assert held.source.calls == [("knn", 1, {}), ("knn", 1, {}),
                                 ("range", 1, {})]


def test_a_one_row_read_joins_a_group_while_its_operation_is_busy(corpus,
                                                                  held):
    db, data, _ = corpus
    held.hold_a_knn(data[0])
    held.start(1, lambda: held.rdb.knn(data[1], k=2))
    held.start(2, lambda: held.rdb.knn_batch(data[2:3], k=5)[0])
    _wait_for(lambda: held.pending() == 2)
    held.close()
    assert [call[:2] for call in held.source.calls] == [
        ("knn", 1), ("knn_batch", 2)]
    assert_neighbors_equal(held.results[1], db.knn(data[1], k=2))
    assert_neighbors_equal(held.results[2], db.knn(data[2], k=5))


def test_a_many_row_read_is_one_batch_even_while_knn_is_held(corpus, held):
    db, data, _ = corpus
    held.hold_a_knn(data[0])
    got = held.rdb.knn_batch(data[1:4], k=[1, 2, 3])
    assert held.source.calls[1] == ("knn_batch", 3, {})
    assert held.pending() == 0  # it did not wait behind the held call
    for row, k, result in zip(data[1:4], [1, 2, 3], got):
        assert_neighbors_equal(result, db.knn(row, k=k))
    got = held.rdb.range_batch(data[4:6], 0.3)
    assert held.source.calls[2] == ("range_batch", 2, {})
    for row, result in zip(data[4:6], got):
        assert_neighbors_equal(result, db.range(row, 0.3))


def test_zero_rows_answer_no_lists(corpus, held):
    dims = corpus[0].dims
    assert held.rdb.knn_batch(np.empty((0, dims)), k=2) == []
    assert held.rdb.range_batch(np.empty((0, dims)), 0.3) == []
    assert held.source.calls == [("knn_batch", 0, {}),
                                 ("range_batch", 0, {})]


def test_a_bad_one_row_read_fails_alone_and_its_groupmates_answer(corpus,
                                                                  held):
    db, data, _ = corpus
    held.hold_a_knn(data[0])
    held.start(1, lambda: held.rdb.knn(data[1], k=2))
    held.start(2, lambda: held.rdb.knn(data[2], k=4))
    _wait_for(lambda: held.pending() == 2)
    spoilt = data[3].copy()
    spoilt[0] = np.nan
    for points, k, error_type in ((data[3:4], 0, "ValueError"),
                                  (data[3:4], 2.5, "ValueError"),
                                  (spoilt[None], 2, "ValueError"),
                                  (data[3:4, :-1], 2, "DimensionalityError")):
        # Refused at once, while the operation is still held: it never
        # joined the group.
        status, text = post(held.server.address, "knn",
                            (points, np.array([k])))
        assert (status, json.loads(text)["error_type"]) == (400, error_type)
        assert held.pending() == 2
    held.close()
    assert [call[:2] for call in held.source.calls] == [
        ("knn", 1), ("knn_batch", 2)]
    assert_neighbors_equal(held.results[1], db.knn(data[1], k=2))
    assert_neighbors_equal(held.results[2], db.knn(data[2], k=4))


# ---------------------------------------------------------------------------
# Connection pool
# ---------------------------------------------------------------------------


def test_pool_size_validated(corpus):
    db, _, _ = corpus
    with QueryServer(db) as server:
        with pytest.raises(ValueError, match="pool_size"):
            RemoteDatabase.connect(_addr(server), pool_size=0)


def test_two_threads_are_not_serialized_by_the_client(corpus):
    """The client's pool must let two reads overlap server-side.

    The served handle sleeps 0.2 s per knn and per range
    (``time.sleep`` releases the GIL, so the server's two handler
    threads overlap even on one core).  The reads are one of each: two
    of one operation would queue behind each other in the server's
    groups.  With one locked connection the two client threads
    serialized at ~0.4 s; the pool must finish in well under that.
    """
    db, data, _ = corpus
    slow = _SlowSource(db, knn_sleep_s=0.2)
    with QueryServer(slow, max_inflight=4, max_queue=8) as server:
        with RemoteDatabase.connect(_addr(server), pool_size=2) as rdb:
            rdb.server_info()  # warm one connection
            results = [None, None]
            reads = (lambda: rdb.knn(data[0], k=2),
                     lambda: rdb.range(data[1], 0.3))

            def call(i):
                results[i] = reads[i]()

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
            assert_neighbors_equal(results[0], db.knn(data[0], k=2))
            assert_neighbors_equal(results[1], db.range(data[1], 0.3))


def test_pool_blocks_at_capacity_then_recovers(corpus):
    db, data, _ = corpus
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
