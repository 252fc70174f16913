"""QuerySurface conformance: four handle kinds, one read contract.

And one argument contract: what a point, a ``k`` and a radius may be is
decided by ``geometry.as_point``/``as_points`` and ``exec.batch.per_query``
alone, so the disagreement matrix at the end puts the same bad argument
to every handle — plus a remote client of a server over a process pool,
the longest path an argument can take — and demands the refusal
``Database`` gives (same class, same message) or the answer it gives.

``repro.api.QuerySurface`` is the formal protocol every query handle
implements — :class:`~repro.api.Database`, :class:`~repro.api.Snapshot`,
:class:`~repro.exec.ServingPool` (worker processes), and
:class:`~repro.net.RemoteDatabase` over a live
:class:`~repro.net.QueryServer`.  This suite runs the *same* assertions
against every handle on the paper's three workload families: identical
values, bit-equal distances, bit-equal points versus the single-process
``Database`` reference.  A handle that reorders, rounds, or drops a
neighbor fails here before it can fail a benchmark.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from types import SimpleNamespace

import numpy as np
import pytest

from repro.api import Database, QuerySurface
from repro.exceptions import (
    DimensionalityError,
    EmptyIndexError,
    NetError,
    StorageError,
)
from repro.net import QueryServer, RemoteDatabase
from repro.workloads import cluster_dataset, histogram_dataset, uniform_dataset

from .helpers import post

WORKLOADS = {
    "uniform": lambda: uniform_dataset(150, 6, seed=21),
    "clusters": lambda: cluster_dataset(6, 25, 6, seed=22),
    "histograms": lambda: histogram_dataset(120, bins=8, seed=23),
}


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def corpus(request, tmp_path_factory, serving_pool):
    """One saved SR-tree database per paper workload family."""
    name = request.param
    data = WORKLOADS[name]()
    path = str(tmp_path_factory.mktemp("surface") / f"{name}.srtree")
    with Database.create(path, kind="sr", dims=data.shape[1],
                         page_size=2048) as db:
        db.insert_many(data)
    db = Database.open(path)
    rng = np.random.default_rng(sum(map(ord, name)))
    picks = rng.choice(data.shape[0], size=8, replace=False)
    queries = np.vstack([
        data[picks[:4]],
        (data[picks[4:]] + data[picks[:4]]) / 2.0,
    ])
    yield SimpleNamespace(name=name, data=data, path=path, db=db,
                          queries=queries, serving_pool=serving_pool)
    db.close()


@contextmanager
def _database(c):
    yield c.db


@contextmanager
def _snapshot(c):
    with c.db.snapshot() as snap:
        yield snap


@contextmanager
def _pool_process(c):
    with c.serving_pool(c.path, workers=2) as pool:
        yield pool


@contextmanager
def _remote(c):
    with QueryServer(c.db) as server:
        with RemoteDatabase.connect("%s:%d" % server.address) as rdb:
            yield rdb


@contextmanager
def _remote_process(c):
    with _pool_process(c) as pool, QueryServer(pool) as server:
        with RemoteDatabase.connect("%s:%d" % server.address) as rdb:
            yield rdb


HANDLES = {
    "database": _database,
    "snapshot": _snapshot,
    "pool_process": _pool_process,
    "remote": _remote,
    "remote_process": _remote_process,
}


@pytest.fixture(scope="module", params=sorted(HANDLES))
def handle(request, corpus):
    with HANDLES[request.param](corpus) as h:
        yield h


def assert_neighbors_equal(got, want):
    assert [n.value for n in got] == [n.value for n in want]
    for g, w in zip(got, want):
        assert g.distance == w.distance
        assert np.array_equal(np.asarray(g.point), np.asarray(w.point))


# ---------------------------------------------------------------------------
# Structural conformance
# ---------------------------------------------------------------------------


def test_handle_satisfies_query_surface(handle):
    assert isinstance(handle, QuerySurface)


def test_identity_properties_match_database(corpus, handle):
    assert handle.kind == corpus.db.kind == "srtree"
    assert handle.dims == corpus.data.shape[1]
    assert handle.size == corpus.data.shape[0]
    assert handle.closed is False


def test_stats_is_live(handle):
    stats = handle.stats()
    assert stats is not None


# ---------------------------------------------------------------------------
# Result equivalence: every read op, bit-equal to the Database reference
# ---------------------------------------------------------------------------


def test_knn_matches_reference(corpus, handle):
    for q in corpus.queries:
        want = corpus.db.knn(q, k=5)
        got = handle.knn(q, k=5)
        assert_neighbors_equal(got, want)


def test_knn_batch_matches_reference(corpus, handle):
    want = corpus.db.knn_batch(corpus.queries, k=4)
    got = handle.knn_batch(corpus.queries, k=4)
    assert len(got) == len(want)
    for g_list, w_list in zip(got, want):
        assert_neighbors_equal(g_list, w_list)


def test_knn_batch_per_query_k_matches_reference(corpus, handle):
    # The coalescer's product: one batch, a different k per query row.
    ks = np.asarray([1 + (i % 5) for i in range(len(corpus.queries))],
                    dtype=np.int64)
    want = corpus.db.knn_batch(corpus.queries, k=ks)
    got = handle.knn_batch(corpus.queries, k=ks)
    assert len(got) == len(want)
    for ki, g_list, w_list in zip(ks, got, want):
        assert len(g_list) == ki
        assert_neighbors_equal(g_list, w_list)


def test_range_batch_matches_reference(corpus, handle):
    want = corpus.db.range_batch(corpus.queries, 0.35)
    got = handle.range_batch(corpus.queries, 0.35)
    assert len(got) == len(want)
    for g_list, w_list in zip(got, want):
        assert_neighbors_equal(g_list, w_list)


def test_range_batch_per_query_radius_matches_reference(corpus, handle):
    radii = np.linspace(0.1, 0.6, len(corpus.queries))
    want = corpus.db.range_batch(corpus.queries, radii)
    got = handle.range_batch(corpus.queries, radii)
    assert len(got) == len(want)
    for g_list, w_list in zip(got, want):
        assert_neighbors_equal(g_list, w_list)


def test_range_matches_reference(corpus, handle):
    for q in corpus.queries[:4]:
        want = corpus.db.range(q, 0.35)
        got = handle.range(q, 0.35)
        assert_neighbors_equal(got, want)


def test_window_matches_reference(corpus, handle):
    q = corpus.queries[0]
    low, high = q - 0.25, q + 0.25
    want = corpus.db.window(low, high)
    # The reference answer is in (leaf page id, slot) order ...
    where = {leaf.values[slot]: (leaf.page_id, slot)
             for leaf in corpus.db.index.iter_leaves()
             for slot in range(leaf.count)}
    inside = np.flatnonzero(np.all((corpus.data >= low)
                                   & (corpus.data <= high), axis=1))
    assert len(want) == len(inside) > 1
    assert [n.value for n in want] == sorted(inside.tolist(),
                                             key=where.__getitem__)
    # ... and every handle returns the same list.
    assert_neighbors_equal(handle.window(low, high), want)


def test_lookup_matches_reference(corpus, handle):
    probe = corpus.data[7]
    want = corpus.db.lookup(probe)
    assert want  # the probe is a stored point; lookup must find it
    assert handle.lookup(probe) == want
    miss = np.full(corpus.data.shape[1], -123.0)
    assert handle.lookup(miss) == []


def test_insert_many_returns_inserted_count(corpus, handle, tmp_path):
    """``insert_many`` returns the *inserted count* on every handle.

    Mutable handle kinds (``Database``, ``RemoteDatabase``) must agree
    on the contract; read handles (snapshots, pools) must not expose
    the mutation at all — asserted here so the conformance matrix
    covers every kind.
    """
    if not hasattr(handle, "insert_many"):
        assert not isinstance(handle, (Database, RemoteDatabase))
        return
    dims = corpus.data.shape[1]
    batch = np.random.default_rng(99).random((7, dims))
    if isinstance(handle, RemoteDatabase):
        path = str(tmp_path / "mut.srtree")
        with Database.create(path, kind="sr", dims=dims) as db:
            db.insert_many(corpus.data)
        with Database.open(path) as db:
            with QueryServer(db, auth_token="t") as server:
                with RemoteDatabase.connect("%s:%d" % server.address,
                                            token="t") as rdb:
                    before = rdb.size
                    assert rdb.insert_many(batch) == 7
                    assert rdb.size == before + 7
    else:
        path = str(tmp_path / "mut.srtree")
        with Database.create(path, kind="sr", dims=dims) as db:
            before = db.insert_many(corpus.data)
            assert before == corpus.data.shape[0]
            assert db.insert_many(batch) == 7
            assert db.size == before + 7


@pytest.mark.parametrize("remote", [False, True], ids=["database", "remote"])
def test_insert_many_refuses_values_of_another_length(tmp_path, remote):
    # Both mutable handles, one contract: a values list one short or one
    # long is refused before any point goes in, never cut to fit.
    points = np.random.default_rng(7).random((10, 4))
    with Database.create(str(tmp_path / "v.srtree"), kind="sr", dims=4) as db:
        with ExitStack() as stack:
            handle = db
            if remote:
                server = stack.enter_context(QueryServer(db, auth_token="t"))
                handle = stack.enter_context(RemoteDatabase.connect(
                    "%s:%d" % server.address, token="t"))
            for values in ([1, 2, 3], list(range(11))):
                with pytest.raises(ValueError,
                                   match="points and values lengths differ"):
                    handle.insert_many(points, values)
            assert handle.size == 0
            assert handle.insert_many(points, list(range(10))) == 10
            assert handle.size == 10


def test_unknown_kwargs_rejected_everywhere(corpus, handle):
    # No handle forwards keywords it does not name: a typo, or the
    # deleted ``algorithm=`` (best-first is ``iter_nearest`` on the
    # index), is a TypeError naming the keyword — on a remote handle
    # before any round trip.
    for name, value in (("kk", 3), ("algorithm", "best-first")):
        try:
            handle.knn(corpus.queries[0], **{name: value})
        except TypeError as exc:
            assert name in str(exc)
        else:  # pragma: no cover - conformance failure
            pytest.fail(f"unknown kwarg {name!r} was silently accepted")


# ---------------------------------------------------------------------------
# The disagreement matrix: one bad argument, every handle, one outcome
# ---------------------------------------------------------------------------


def _spoiled(c, value, rows=None):
    """The first query (or ``rows`` queries) with one coordinate replaced."""
    q = c.queries[0].copy() if rows is None else c.queries[:rows].copy()
    q[..., 1] = value
    return q


# name -> (call, the class Database must refuse with, or None when the
# argument is legal and every handle must answer as Database does).
ARGUMENTS = {
    "nan_point": (lambda h, c: h.knn(_spoiled(c, np.nan), k=2), ValueError),
    "inf_point": (lambda h, c: h.range(_spoiled(c, np.inf), 0.3), ValueError),
    "neg_inf_point_in_batch": (
        lambda h, c: h.knn_batch(_spoiled(c, -np.inf, rows=3), k=2),
        ValueError),
    "nan_window": (
        lambda h, c: h.window(_spoiled(c, np.nan), c.queries[0] + 1.0),
        ValueError),
    "k_zero": (lambda h, c: h.knn(c.queries[0], k=0), ValueError),
    "k_fraction": (lambda h, c: h.knn(c.queries[0], k=2.5), ValueError),
    "k_fraction_in_batch": (
        lambda h, c: h.knn_batch(c.queries, k=2.5), ValueError),
    "k_true": (lambda h, c: h.knn(c.queries[0], k=True), None),
    "k_wrong_length": (
        lambda h, c: h.knn_batch(c.queries, k=[1, 2]), ValueError),
    "k_list_for_one_point": (
        lambda h, c: h.knn(c.queries[0], k=[1, 2]), ValueError),
    "radius_negative": (lambda h, c: h.range(c.queries[0], -1.0), ValueError),
    "radius_nan": (
        lambda h, c: h.range_batch(c.queries, float("nan")), ValueError),
    "radius_wrong_length": (
        lambda h, c: h.range_batch(c.queries, [0.1, 0.2]), ValueError),
    "wrong_dims": (
        lambda h, c: h.knn(c.queries[0][:-1], k=2), DimensionalityError),
    "wrong_dims_in_batch": (
        lambda h, c: h.range_batch(c.queries[:, :-1], 0.3),
        DimensionalityError),
    "batch_of_one_point": (lambda h, c: h.knn_batch(c.queries[0], k=3), None),
    "range_batch_of_one_point": (
        lambda h, c: h.range_batch(c.queries[0], 0.35), None),
    "low_above_high": (
        lambda h, c: h.window(c.queries[0] + 0.1, c.queries[0] - 0.1),
        ValueError),
    "window_wrong_dims": (
        lambda h, c: h.window([0.0, 0.0], [1.0, 1.0]), DimensionalityError),
    "lookup_wrong_dims": (
        lambda h, c: h.lookup([0.0, 0.0]), DimensionalityError),
    "lookup_of_a_batch": (
        lambda h, c: h.lookup(c.queries), DimensionalityError),
}


def _outcome(call, handle, corpus):
    """What a call did, in a form two handles' outcomes compare equal in."""
    def plain(result):
        if isinstance(result, list):
            return [plain(item) for item in result]
        if hasattr(result, "distance"):
            return (result.distance, result.point.tolist(), result.value)
        return result

    try:
        return "answered", plain(call(handle, corpus))
    except Exception as exc:  # noqa: BLE001 - the class is the assertion
        return "refused", type(exc), str(exc)


@pytest.mark.parametrize("name", sorted(ARGUMENTS))
def test_argument_contract_is_one_contract(corpus, handle, name):
    call, refusal = ARGUMENTS[name]
    want = _outcome(call, corpus.db, corpus)
    if refusal is None:
        assert want[0] == "answered"
    else:
        assert want[:2] == ("refused", refusal)
    assert _outcome(call, handle, corpus) == want


def test_two_dimensional_range_is_refused_or_the_pools_batch(corpus, handle):
    # The one documented per-handle difference in shapes: a pool's
    # knn/range take a 2-D batch; every other handle refuses it as
    # Database does, a remote one before the round trip.
    def call(h, c):
        return h.range(c.queries[:3], 0.35)

    want = _outcome(call, corpus.db, corpus)
    assert want[:2] == ("refused", DimensionalityError)
    if hasattr(handle, "worker_stats"):  # a pool
        want = _outcome(lambda h, c: h.range_batch(c.queries[:3], 0.35),
                        corpus.db, corpus)
    assert _outcome(call, handle, corpus) == want


@pytest.mark.parametrize("kind", sorted(HANDLES))
def test_closed_handle_refuses_every_read(corpus, kind):
    own = SimpleNamespace(db=Database.open(corpus.path), path=corpus.path,
                          serving_pool=corpus.serving_pool)
    refusal = {"database": StorageError, "snapshot": StorageError,
               "pool_process": RuntimeError,
               "remote": NetError, "remote_process": NetError}[kind]
    q = corpus.queries[0]
    try:
        with HANDLES[kind](own) as h:
            assert h.knn(q, k=2)  # warm: the closed handle has frames to lose
            h.close()
            assert h.closed
            for read in (lambda: h.knn(q, k=2),
                         lambda: h.knn_batch(corpus.queries, k=2),
                         lambda: h.range(q, 0.3),
                         lambda: h.window(q - 0.1, q + 0.1),
                         lambda: h.lookup(q)):
                with pytest.raises(refusal):
                    read()
    finally:
        own.db.close()


def test_nan_is_refused_on_the_way_in_and_the_tree_still_verifies(tmp_path):
    data = uniform_dataset(120, 4, seed=5)
    bad = [float("nan"), 0.1, 0.2, 0.3]
    with Database.create(str(tmp_path / "t.srtree"), kind="sr", dims=4,
                         page_size=2048, durability="wal") as db:
        db.insert_many(data)
        with pytest.raises(ValueError, match="finite"):
            db.insert(bad)
        with pytest.raises(ValueError, match="finite"):
            db.insert_many([data[0].tolist(), bad])
        with QueryServer(db, auth_token="t") as server:
            status, body = post(server.address, "insert",
                                (np.array([bad]),), "t")
            assert (status, "finite" in body) == (400, True)
            status, body = post(server.address, "insert_many",
                                (np.array([data[0].tolist(), bad]),), "t")
            assert (status, "finite" in body) == (400, True)
            status, body = post(server.address, "knn",
                                (np.array([bad]), np.array([2])))
            assert (status, "finite" in body) == (400, True)
        assert db.size == len(data)
        db.verify()


def test_worker_side_errors_cross_the_pipe_as_their_class(tmp_path,
                                                          serving_pool):
    path = str(tmp_path / "empty.srtree")
    Database.create(path, kind="sr", dims=4).close()
    with serving_pool(path, workers=1) as pool:
        with pytest.raises(EmptyIndexError, match="empty index"):
            pool.knn([0.1, 0.2, 0.3, 0.4], k=2)
        with pytest.raises(ValueError, match="low > high"):
            pool.window([0.5] * 4, [0.1] * 4)
        assert pool.degraded_queries == 0


def test_bad_argument_through_a_process_pool_server_is_a_400(corpus):
    q = corpus.queries[0]
    with _pool_process(corpus) as pool, QueryServer(pool) as server:
        for endpoint, doc in (
                ("window", (q + 0.1, q - 0.1)),
                ("window", (np.zeros(2), np.ones(2))),
                ("lookup", (np.zeros((1, 2)),)),
                ("knn", (q[None, :], np.array([2.5]))),
                ("knn", (q[None, :], np.array([1, 2]))),
                ("knn", (np.stack([q, q]), np.array([1, 2.5]))),
                ("range", (q[None, :], np.array([-1.0])))):
            status, body = post(server.address, endpoint, doc)
            assert status == 400, (endpoint, doc, body)
            assert "Traceback" not in body and ".py" not in body
