"""One answer per query: every path ranks neighbors by (distance, page, slot).

Points stored twice and queries on the data's integer grid make exact
distance ties common, at the k-th distance too.  Every way of asking
must still return the same list, values included: a ``Database`` and a
``Snapshot``, the block engine at any block size, the first ``k`` of
``iter_nearest``, the first ``k`` of a range query at the k-th
distance, a group formed by the network coalescer, and a 2-worker
``ServingPool``.  Against a brute-force scan only the distances are
compared, since a scan stores the points in another layout.

The generated budgets are small in tier-1; ``make test-batching`` runs
them under ``--hypothesis-profile=deep`` and ``make test-mp`` runs the
pool under ``spawn``.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Database
from repro.exec import batch_knn
from repro.indexes import INDEX_KINDS
from repro.net.coalesce import CoalescingScheduler

KINDS = sorted(INDEX_KINDS)
PAGE_SIZE = 2048  # a few points a leaf: ties fall across many pages


def _budget(examples: int) -> settings:
    deep = settings.get_current_profile_name() == "deep"
    return settings(max_examples=10 * examples if deep else examples,
                    deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def tied_corpora(draw, max_points: int = 60):
    """``(kind, data, queries, k)``: distinct grid points, some stored
    twice, and grid queries (half-steps included), so many distances tie
    exactly.  (No point is stored more than twice: the K-D-B-tree holds
    at most one page of copies of a point.)"""
    kind = draw(st.sampled_from(KINDS))
    dims = draw(st.integers(2, 4))
    cell = st.integers(0, 3).map(float)
    base = draw(st.lists(st.tuples(*[cell] * dims), min_size=1,
                         max_size=max_points // 2, unique=True))
    twice = draw(st.lists(st.sampled_from(range(len(base))),
                          max_size=len(base), unique=True))
    rows = base + [base[i] for i in twice]
    order = draw(st.permutations(range(len(rows))))
    data = np.array([rows[i] for i in order], dtype=np.float64)
    half = st.integers(0, 6).map(lambda v: v / 2)
    queries = np.array(draw(st.lists(
        st.lists(half, min_size=dims, max_size=dims), min_size=1,
        max_size=8)), dtype=np.float64)
    k = draw(st.integers(1, len(rows) + 1))
    return kind, data, queries, k


def _answer(neighbors) -> list[tuple]:
    """A neighbor list as comparable ``(distance, point, value)`` rows."""
    return [(n.distance, tuple(n.point), n.value) for n in neighbors]


def _first(iterator, k: int) -> list:
    out = []
    for neighbor in iterator:
        out.append(neighbor)
        if len(out) == k:
            break
    return out


class _HeldKnn:
    """``db`` whose next ``knn`` waits for ``release``, so what is
    submitted meanwhile queues into one group."""

    def __init__(self, db) -> None:
        self._db = db
        self.entered = threading.Event()
        self.released = threading.Event()

    def knn(self, point, k=1):
        if not self.entered.is_set():
            self.entered.set()
            assert self.released.wait(10.0)
        return self._db.knn(point, k)

    def knn_batch(self, points, k=1):
        return self._db.knn_batch(points, k)


def _grouped(db, queries: np.ndarray, k: int) -> list[list]:
    """Each query's answer from one coalesced ``knn_batch`` group."""
    source = _HeldKnn(db)
    scheduler = CoalescingScheduler(source)
    answers: list = [None] * len(queries)

    def submit(i):
        answers[i] = scheduler.submit("knn", queries[i], k, None)

    holder = threading.Thread(
        target=lambda: scheduler.submit("knn", queries[0], k, None))
    holder.start()
    assert source.entered.wait(10.0)
    members = [threading.Thread(target=submit, args=(i,))
               for i in range(len(queries))]
    for thread in members:
        thread.start()
    deadline = time.monotonic() + 10.0
    while (scheduler.describe()["pending"] < len(queries)
           and time.monotonic() < deadline):
        time.sleep(0.001)
    source.released.set()
    for thread in [holder, *members]:
        thread.join(10.0)
        assert not thread.is_alive()
    assert scheduler.describe()["flushes"] == 1
    return answers


@given(corpus=tied_corpora())
@_budget(40)
def test_every_local_path_returns_one_answer(corpus):
    kind, data, queries, k = corpus
    with Database.create(None, kind=kind, dims=data.shape[1],
                         page_size=PAGE_SIZE) as db:
        db.insert_many(data)
        index = db.index
        want = [db.knn(q, k) for q in queries]
        for q, answer in zip(queries, want):
            # Exact against brute force, by distance: a scan has another
            # layout, so which of the tied points it keeps may differ.
            dists = np.sort(np.linalg.norm(data - q, axis=1))[:k]
            assert [n.distance for n in answer] == pytest.approx(dists)
            assert _answer(_first(index.iter_nearest(q), k)) == _answer(answer)
            assert _answer(db.range(q, answer[-1].distance)[:k]) == _answer(answer)
            for n in answer:
                assert np.array_equal(n.point, data[n.value])
        for block_size in (1, 2, 7, 64):
            got = batch_knn(index, queries, k, block_size=block_size)
            assert [_answer(a) for a in got] == [_answer(a) for a in want]
        with db.snapshot() as snap:
            assert ([_answer(snap.knn(q, k)) for q in queries]
                    == [_answer(a) for a in want])
            assert ([_answer(a) for a in snap.knn_batch(queries, k)]
                    == [_answer(a) for a in want])
        assert ([_answer(a) for a in _grouped(db, queries, k)]
                == [_answer(a) for a in want])


@given(corpus=tied_corpora())
@_budget(4)
def test_a_serving_pool_returns_the_databases_answer(corpus, serving_pool,
                                                     tmp_path_factory):
    kind, data, queries, k = corpus
    path = str(tmp_path_factory.mktemp("ties") / "tied.idx")
    with Database.create(path, kind=kind, dims=data.shape[1],
                         page_size=PAGE_SIZE) as db:
        db.insert_many(data)
        want = [_answer(db.knn(q, k)) for q in queries]
    with serving_pool(path, workers=2) as pool:
        assert [_answer(a) for a in pool.knn_batch(queries, k=k)] == want
