"""One traversal per query kind, on every family.

There is one depth-first search, the block traversal of
:mod:`repro.exec.batch`: a single k-NN or range query is a block of
one.  A range query is the k-NN search with its bound held at the
radius, and the linear scan has no query of its own: its top pages are
the whole leaf chain, so every traversal starts at every leaf.  On
every family (the SR-tree under both radius rules, the SRX-tree with
supernodes), with 512-byte pages so the trees are at least three high,
and with radii that include 0 and infinity:

* ``within``, the block engine's ``batch_range`` at block sizes 1, 7
  and 64, a ``Snapshot``'s ``range`` and ``iter_nearest(max_distance=r)``
  each return the brute-force answer, in ``(distance, page, slot)``
  order, and ``window`` the brute-force box;
* a scalar range reads the same set of pages, with the same distance
  count, as the slot-order traversal it replaced (kept here as the
  reference);
* a single ``nearest`` and ``within`` read as the scalar depth-first
  loop the block of one replaced (kept here as the reference): the same
  page fetches in the same order, the same visit and prune events with
  their bounds, the same ``IOStats`` and the same answers, and one
  query's EXPLAIN text is the loop's;
* a window, a block of one of the same search priced 0 or infinity by
  whether an entry meets the box, reads the same set of pages as the
  stack walk it replaced (kept here as the reference), with the same
  distance count, the same pruned children and the same answer, now in
  ``(page, slot)`` order — for random, degenerate (``lookup``) and
  empty boxes;
* EXPLAIN's page total equals the ``IOStats.page_reads`` delta for every
  query kind, and the linear scan reads each chain page exactly once
  per query (once per block in the block engine).

The generated budgets are small in tier-1; ``make test-batching`` runs
them under ``--hypothesis-profile=deep``.
"""

from __future__ import annotations

from collections import Counter
from itertools import islice

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database
from repro.exec import batch_knn, batch_range
from repro.geometry import mindist_point_rects
from repro.obs.explain import explain, level_breakdown
from repro.obs.tracer import trace
from repro.search.knn import KnnCandidates
from repro.search.range import RangeCandidates

from .helpers import leaf_distances

#: name -> (kind, keyword arguments)
FAMILIES = {
    "rtree": ("rtree", {}),
    "rstar": ("rstar", {}),
    "sstree": ("sstree", {}),
    "srtree": ("srtree", {"radius_rule": "min"}),
    "srtree-sphere": ("srtree", {"radius_rule": "sphere"}),
    "srx": ("srx", {}),
    "kdb": ("kdb", {}),
    "vamsplit": ("vamsplit", {}),
    "linear": ("linear", {}),
}
BLOCK_SIZES = (1, 7, 64)
INF = float("inf")


def _budget(examples: int) -> settings:
    deep = settings.get_current_profile_name() == "deep"
    return settings(max_examples=10 * examples if deep else examples,
                    deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _corpus(seed: int, dims: int, n: int, nq: int):
    """``n`` points of a 1/7 grid, none stored more than twice (the
    K-D-B-tree holds at most one page of copies), so distances tie; and
    ``nq`` queries on the half-step grid, every other one on a stored
    point (where radius 0 finds it)."""
    rng = np.random.default_rng(seed)
    cells = np.unique(rng.integers(0, 8, (2 * n, dims)), axis=0)
    cells = cells[rng.permutation(len(cells))][: n - n // 8]
    data = np.concatenate([cells, cells[: n // 8]])[rng.permutation(n)] / 7
    queries = rng.integers(0, 15, (nq, dims)) / 14
    queries[::2] = data[rng.integers(0, n, (nq + 1) // 2)]  # on a point
    return data, queries


def _database(family: str, data: np.ndarray) -> Database:
    kind, kwargs = FAMILIES[family]
    db = Database.create(None, kind=kind, dims=data.shape[1], page_size=512,
                         leaf_data_size=16, buffer_capacity=8, **kwargs)
    db.insert_many(data)
    return db


def _radii(data: np.ndarray, queries: np.ndarray, picks) -> np.ndarray:
    """One radius per query: 0, infinity, a stored point's exact distance
    (so a hit lies on the boundary), or a value in between."""
    radii = []
    for q, (how, frac) in zip(queries, picks):
        if how == "zero":
            radii.append(0.0)
        elif how == "inf":
            radii.append(INF)
        elif how == "exact":
            diff = data - q
            dists = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            radii.append(float(np.sort(dists)[int(frac * (len(dists) - 1))]))
        else:
            radii.append(frac)
    return np.array(radii)


def _locations(index, n: int) -> dict:
    """``value -> (page, slot)`` of every stored row, all ``n`` of them."""
    where = {}
    for leaf in index.iter_leaves():
        for slot in range(leaf.count):
            where[leaf.values[slot]] = (leaf.page_id, slot)
    assert sorted(where) == list(range(n))
    return where


def _oracle(data: np.ndarray, where: dict, point: np.ndarray,
            radius: float) -> list[tuple]:
    """Every row of ``data`` within ``radius``, by brute force, as
    ``(distance, page, slot, point, value)`` in key order."""
    diff = data - point
    dists = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    hits = [(float(dists[row]), *where[row], tuple(data[row]), row)
            for row in np.flatnonzero(dists <= radius).tolist()]
    return sorted(hits, key=lambda hit: hit[:3])


def _answer(neighbors) -> list[tuple]:
    return [(n.distance, tuple(n.point), n.value) for n in neighbors]


def _expected(hits) -> list[tuple]:
    return [(d, point, value) for d, _, _, point, value in hits]


def _slot_order_range(index, point: np.ndarray, radius: float):
    """The range traversal the k-NN search replaced: children in slot
    order, each one within ``radius`` entered.  Returns its hits, in key
    order, and the pages it read."""
    hits: list[tuple] = []
    read: list[int] = []
    stats = index.stats

    def visit(page_id: int) -> None:
        node = index.read_node(page_id)
        read.append(page_id)
        if node.is_leaf:
            if node.count == 0:
                return
            pts, dists = leaf_distances(node, point, stats)
            for i in np.flatnonzero(dists <= radius).tolist():
                hits.append((float(dists[i]), node.page_id, i,
                             tuple(pts[i]), node.values[i]))
            return
        dists = index.child_mindists(node, point)
        stats.distance_computations += node.count
        for child_id, mindist in zip(node.child_ids[: node.count].tolist(),
                                     dists.tolist()):
            if mindist <= radius:
                visit(child_id)

    # The tree's range started at the root, the linear scan's at every
    # page of its chain.
    for page_id in getattr(index, "_leaf_ids", [index.root_id]):
        visit(page_id)
    return sorted(hits, key=lambda hit: hit[:3]), read


def _loop_search(index, point: np.ndarray, candidates):
    """The scalar depth-first loop a block of one replaced: children in
    MINDIST order, the rest pruned once one is ``>`` the collector's
    bound, with the same visit and prune events."""
    stats = index.stats
    span = trace.active
    level = index.height - 1
    for page_id in index.top_ids():
        if span is not None:
            span.visit(page_id, level, 0.0, candidates.bound)
        _loop_visit(index, page_id, point, candidates, stats, span)
    return candidates.results()


def _loop_visit(index, page_id: int, point: np.ndarray, candidates, stats,
                span) -> None:
    node = index.read_node(page_id)
    if node.is_leaf:
        if node.count:
            pts, dists = leaf_distances(node, point, stats)
            candidates.offer_batch(dists, pts, node.values, node.page_id)
        return
    dists = index.child_mindists(node, point)
    stats.distance_computations += node.count
    child_ids = node.child_ids
    order = np.argsort(dists, kind="stable")
    for pos, i in enumerate(order):
        if dists[i] > candidates.bound:
            if span is not None:
                bound = candidates.bound
                for j in order[pos:]:
                    span.prune(int(child_ids[j]), node.level - 1,
                               float(dists[j]), bound)
            break
        child_id = int(child_ids[i])
        if span is not None:
            span.visit(child_id, node.level - 1, float(dists[i]),
                       candidates.bound)
        _loop_visit(index, child_id, point, candidates, stats, span)


def _stack_window(index, low: np.ndarray, high: np.ndarray) -> list[tuple]:
    """The window walk a block of one replaced: a stack of pages, each
    node's children that may meet the box pushed in entry order (so read
    last first), the rest pruned at infinity.  Returns its hits as
    ``(point, value)`` in the order it found them."""
    hits: list[tuple] = []
    stats = index.stats
    span = trace.active
    stack = index.top_ids()[::-1]
    if span is not None:
        for page_id in reversed(stack):
            span.visit(page_id, index.height - 1, 0.0)
    while stack:
        node = index.read_node(stack.pop())
        n = node.count
        stats.distance_computations += n
        if node.is_leaf:
            pts = node.points[:n]
            inside = np.all(pts >= low, axis=1) & np.all(pts <= high, axis=1)
            hits.extend((tuple(pts[i]), node.values[i])
                        for i in np.flatnonzero(inside).tolist())
            continue
        mask = np.ones(n, dtype=bool)
        if node.lows is not None:
            mask &= (np.all(node.lows[:n] <= high, axis=1)
                     & np.all(node.highs[:n] >= low, axis=1))
        if node.centers is not None:
            gaps = mindist_point_rects(node.centers[:n], low, high)
            mask &= gaps <= node.radii[:n]
        for i, child_id in enumerate(node.child_ids[:n].tolist()):
            if mask[i]:
                if span is not None:
                    span.visit(child_id, node.level - 1, 0.0)
                stack.append(child_id)
            elif span is not None:
                span.prune(child_id, node.level - 1, INF, 0.0)
    return hits


def _boxes(data: np.ndarray, queries: np.ndarray, radii: np.ndarray):
    """A box around each query (half its radius wide, at most 0.5), a
    degenerate one on each stored point the queries sit on (a
    ``lookup``), and one that holds no point."""
    boxes = []
    for q, r in zip(queries, radii):
        half = min(r, 1.0) / 2
        boxes.append((q - half, q + half))
        if (data == q).all(axis=1).any():
            boxes.append((q, q))
    gap = np.full(data.shape[1], 0.5 / 7)  # between grid lines
    boxes.append((gap, gap + 0.1 / 7))
    return boxes


def _window_run(index, run):
    """Run a window under a span from a cold buffer pool: its hits, the
    pages it read, its distance count and its pruned children."""
    index.store.drop_cache()
    before = index.stats.distance_computations
    with _Reads(index) as pages, trace.span("window") as span:
        hits = run()
    counted = index.stats.distance_computations - before
    return hits, sorted(pages), counted, sorted(v.page_id for v in span.pruned)


def _check_window(db: Database, data, queries, radii) -> None:
    index = db.index
    where = _locations(index, len(data))
    trace.enable()
    try:
        for low, high in _boxes(data, queries, radii):
            hits, pages, counted, pruned = _window_run(
                index, lambda: [(tuple(n.point), n.value)
                                for n in index.window(low, high)])
            reference = _window_run(
                index, lambda: _stack_window(index, low, high))
            assert (Counter(hits), pages, counted, pruned) == \
                (Counter(reference[0]), *reference[1:])
            assert [value for _, value in hits] == sorted(
                (value for _, value in hits), key=where.__getitem__)
            if (low == high).all():
                assert index.lookup(low) == [value for _, value in hits]
    finally:
        trace.disable()
        trace.last = None


def _cold_trace(index, run):
    """Run ``run()`` from an empty buffer pool under a span: its answer,
    page fetches, visit/prune events and ``IOStats`` delta."""
    index.store.drop_cache()
    before = index.stats.snapshot()
    with trace.span("query") as span:
        answer = _answer(run())
    fetches = [(f.page_id, f.level, f.pages, f.hit) for f in span.fetches]
    return answer, fetches, span.visits, index.stats.since(before)


def _check_loop(db: Database, queries, radii) -> None:
    index = db.index
    trace.enable()
    try:
        for q, r in zip(queries, radii):
            assert _cold_trace(index, lambda: index.nearest(q, 5)) == \
                _cold_trace(index, lambda: _loop_search(index, q, KnnCandidates(5)))
            assert _cold_trace(index, lambda: index.within(q, r)) == \
                _cold_trace(index, lambda: _loop_search(index, q, RangeCandidates(r)))
    finally:
        trace.disable()
        trace.last = None


def _untimed(report: str) -> str:
    """An EXPLAIN report without its wall time."""
    title, rest = report.split("\n", 1)
    return title.split(" — ")[0] + "\n" + rest


class _Reads:
    """Record every page an index reads, in order."""

    def __init__(self, index) -> None:
        self.pages: list[int] = []
        self._index = index

    def __enter__(self) -> list[int]:
        read = type(self._index).read_node
        index, pages = self._index, self.pages

        def recorded(page_id):
            pages.append(page_id)
            return read(index, page_id)

        index.read_node = recorded
        return pages

    def __exit__(self, *exc_info) -> None:
        del self._index.read_node


def _check_answers(db: Database, data, queries, radii) -> None:
    index = db.index
    where = _locations(index, len(data))
    want = [_expected(_oracle(data, where, q, r))
            for q, r in zip(queries, radii)]
    for q, r, expected in zip(queries, radii, want):
        assert _answer(index.within(q, r)) == expected
        assert _answer(index.iter_nearest(q, max_distance=r)) == expected
    assert [_answer(a) for a in index.within_batch(queries, radii)] == want
    for block_size in BLOCK_SIZES:
        got = batch_range(index, queries, radii, block_size=block_size)
        assert [_answer(a) for a in got] == want
    with db.snapshot() as snap:
        assert [_answer(snap.range(q, r)) for q, r in zip(queries, radii)] == want
    for q, r in zip(queries, radii):
        half = min(r, 1.0) / 2
        low, high = q - half, q + half
        box = sorted((tuple(data[row]), row) for row in np.flatnonzero(
            np.all((data >= low) & (data <= high), axis=1)).tolist())
        got = sorted((tuple(n.point), n.value) for n in index.window(low, high))
        assert got == box


def _check_pages(db: Database, queries, radii) -> None:
    index = db.index
    stats = index.stats
    for q, r in zip(queries, radii):
        with _Reads(index) as pages:
            before = stats.distance_computations
            got = index.within(q, r)
            counted = stats.distance_computations - before
        with _Reads(index):
            before = stats.distance_computations
            hits, reference = _slot_order_range(index, q, r)
            reference_counted = stats.distance_computations - before
        assert _answer(got) == _expected(hits)
        assert sorted(pages) == sorted(reference)
        assert counted == reference_counted


def _blocks(queries) -> int:
    """How many blocks of 7 the batched kinds below split ``queries`` into."""
    return -(-len(queries) // 7)


#: Every query kind, as ``run(index, queries, radii) -> None``.
KINDS = {
    "knn": lambda ix, qs, rs: [ix.nearest(q, 5) for q in qs],
    "range": lambda ix, qs, rs: [ix.within(q, r) for q, r in zip(qs, rs)],
    "window": lambda ix, qs, rs: [ix.window(q - 0.2, q + 0.2) for q in qs],
    "iter_nearest": lambda ix, qs, rs: [list(islice(ix.iter_nearest(q), 5))
                                        for q in qs],
    "batch_knn": lambda ix, qs, rs: batch_knn(ix, qs, 5, block_size=7),
    "batch_range": lambda ix, qs, rs: batch_range(ix, qs, rs, block_size=7),
}


def _check_explain(db: Database, queries, radii) -> None:
    index = db.index
    trace.enable()
    try:
        for name, run in KINDS.items():
            before = index.stats.snapshot()
            with trace.span(name) as span:
                run(index, queries, radii)
            delta = index.stats.since(before)
            levels = level_breakdown(span)
            assert sum(row["pages"] for row in levels.values()) == delta.page_reads
            if db.kind == "linear":
                # Every query, and every block, visits the whole chain.
                passes = (_blocks(queries) if name.startswith("batch")
                          else len(queries))
                assert levels[0]["visited"] == len(index._leaf_ids) * passes
    finally:
        trace.disable()
        trace.last = None


def _check_chain_reads(db: Database, queries, radii) -> None:
    """The linear scan reads each chain page exactly once per query, and
    once per block in the block engine."""
    index = db.index
    chain = Counter(index._leaf_ids)
    for name, run in KINDS.items():
        with _Reads(index) as pages:
            run(index, queries[:1], radii[:1])
        assert Counter(pages) == chain, name
    with _Reads(index) as pages:
        batch_range(index, queries, radii, block_size=7)
    assert Counter(pages) == Counter({page: _blocks(queries) for page in chain})


@st.composite
def corpora(draw):
    family = draw(st.sampled_from(sorted(FAMILIES)))
    seed = draw(st.integers(0, 2**32 - 1))
    dims = draw(st.sampled_from((3, 4)))
    n = draw(st.integers(200, 300))
    nq = draw(st.integers(1, 12))
    picks = draw(st.lists(
        st.tuples(st.sampled_from(("zero", "inf", "exact", "between")),
                  st.floats(0.0, 1.0)),
        min_size=nq, max_size=nq))
    return family, seed, dims, n, picks


@given(corpus=corpora())
@_budget(10)
def test_every_query_kind_is_one_traversal(corpus):
    family, seed, dims, n, picks = corpus
    data, queries = _corpus(seed, dims, n, len(picks))
    radii = _radii(data, queries, picks)
    with _database(family, data) as db:
        _check_answers(db, data, queries, radii)
        _check_pages(db, queries, radii)
        _check_explain(db, queries, radii)
        _check_loop(db, queries, radii)
        _check_window(db, data, queries, radii)
        if family == "linear":
            _check_chain_reads(db, queries, radii)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_family_on_one_corpus(family):
    data, queries = _corpus(7, 3, 260, 9)
    picks = [("zero", 0.0), ("inf", 0.0), ("exact", 0.1), ("exact", 0.02),
             ("between", 0.15), ("between", 0.3), ("exact", 0.5),
             ("between", 0.0), ("zero", 0.0)]
    radii = _radii(data, queries, picks)
    with _database(family, data) as db:
        if family != "linear":
            assert db.index.height >= 3
        _check_answers(db, data, queries, radii)
        _check_pages(db, queries, radii)
        _check_explain(db, queries, radii)
        _check_window(db, data, queries, radii)
        if family == "linear":
            _check_chain_reads(db, queries, radii)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_a_single_query_reads_as_the_deleted_loop(family):
    data, queries = _corpus(11, 4, 300, 8)
    radii = _radii(data, queries, [("between", 0.1), ("exact", 0.05),
                                   ("inf", 0.0), ("zero", 0.0),
                                   ("between", 0.4), ("exact", 0.3),
                                   ("between", 0.0), ("exact", 0.9)])
    with _database(family, data) as db:
        if family == "srx":
            assert db.index.supernode_count() > 0
        _check_loop(db, queries, radii)
        index = db.index
        trace.enable()
        try:
            index.store.drop_cache()
            with trace.span("knn", k=5) as span:
                _loop_search(index, queries[1], KnnCandidates(5))
            want = explain(span)
        finally:
            trace.disable()
            trace.last = None
        index.store.drop_cache()
        assert _untimed(db.explain(queries[1], k=5)) == _untimed(want)
