"""Tests for the tracer, the EXPLAIN facility, and the IOStats additions.

The headline assertion (the acceptance criterion of the observability
layer) is end-to-end: on a cold index, the physical page count a traced
span records must equal the ``IOStats.page_reads`` delta of the same
query, exactly.
"""

from __future__ import annotations

from itertools import islice

import numpy as np
import pytest

from repro import Database
from repro.indexes import build_index
from repro.obs.explain import ExplainError, explain, level_breakdown
from repro.obs.tracer import DESCENDED, PRUNED, Span, trace
from repro.storage.stats import IOStats


#: The four search algorithms, each as ``run(tree, query) -> neighbors``.
ALGORITHMS = {
    "knn": lambda tree, q: tree.nearest(q, k=5),
    "range": lambda tree, q: tree.within(q, 0.5),
    "window": lambda tree, q: tree.window(q - 0.2, q + 0.2),
    "incremental": lambda tree, q: list(islice(tree.iter_nearest(q), 5)),
}


@pytest.fixture(autouse=True)
def _tracing_off():
    """Every test starts and ends with tracing disabled."""
    trace.disable()
    trace.last = None
    yield
    trace.disable()
    trace.last = None


@pytest.fixture
def cold_tree(tmp_path, small_cloud):
    """An SR-tree reopened from disk with an empty buffer pool."""
    path = tmp_path / "cold.srtree"
    with Database.create(path, kind="srtree", dims=small_cloud.shape[1]) as db:
        db.insert_many(small_cloud)
    with Database.open(path) as reopened:
        yield reopened.index


class TestIOStatsAdditions:
    def test_hit_ratio(self):
        stats = IOStats(buffer_hits=3, buffer_misses=1)
        assert stats.hit_ratio == 0.75
        assert IOStats().hit_ratio == 0.0

    def test_str_includes_write_split_and_buffer(self):
        stats = IOStats(page_reads=10, node_reads=2, leaf_reads=8,
                        page_writes=7, node_writes=3, leaf_writes=4,
                        buffer_hits=20, buffer_misses=10,
                        distance_computations=99)
        text = str(stats)
        assert "writes=7 [3n/4l]" in text
        assert "reads=10 [2n/8l]" in text
        assert "buffer=20h/10m" in text
        assert "dist=99" in text

    def test_buffer_counters_track_pool_lookups(self, tiny_cloud):
        tree = build_index("srtree", tiny_cloud)
        before = tree.stats.snapshot()
        tree.nearest(tiny_cloud[0], k=3)
        delta = tree.stats.since(before)
        lookups = delta.buffer_hits + delta.buffer_misses
        assert lookups > 0
        # every miss triggered a physical read; hits did not
        assert delta.buffer_misses <= delta.page_reads
        assert tree.store.buffer.hits == tree.stats.buffer_hits
        assert tree.store.buffer.misses == tree.stats.buffer_misses


class TestTracerBasics:
    def test_disabled_span_is_shared_noop(self):
        ctx_a = trace.span("knn", k=5)
        ctx_b = trace.span("range")
        assert ctx_a is ctx_b  # shared null context, no allocation
        with ctx_a as span:
            assert span is None
        assert trace.active is None
        assert trace.last is None

    def test_enabled_span_records_and_restores(self):
        trace.enable()
        with trace.span("knn", k=7) as span:
            assert trace.active is span
            span.visit(1, 2, 0.5)
            span.prune(2, 1, 0.9, bound=0.7)
        assert trace.active is None
        assert trace.last is span
        assert span.labels == {"k": 7}
        assert span.end is not None and span.wall_seconds >= 0.0
        assert [v.verdict for v in span.visits] == [DESCENDED, PRUNED]
        assert len(span.descended) == 1 and len(span.pruned) == 1

    def test_spans_nest_as_children(self):
        trace.enable()
        with trace.span("outer") as outer:
            with trace.span("inner") as inner:
                inner.visit(1, 0, 0.0)
            assert trace.active is outer
        assert outer.children == [inner]
        assert trace.last is outer

    def test_page_accounting_weights_extents(self):
        span = Span("x")
        span.page(1, 1, 1, hit=False)
        span.page(2, 0, 3, hit=False)   # supernode: 3 physical pages
        span.page(1, 1, 1, hit=True)
        assert span.pages_read == 4
        assert span.buffer_hits == 1

    def test_queue_pressure(self):
        span = Span("x")
        span.queue(3, pushed=3)
        span.queue(2, popped=1)
        span.queue(5, pushed=3, popped=0)
        assert span.queue_pushes == 6
        assert span.queue_pops == 1
        assert span.queue_peak == 5


class TestDisabledFastPath:
    """Tracing off: no events, no active span, counters still exact."""

    def test_query_leaves_no_trace(self, tiny_cloud):
        tree = build_index("srtree", tiny_cloud)
        with trace.span("knn", k=4):
            tree.nearest(tiny_cloud[3], k=4)
        assert trace.last is None
        assert trace.active is None

    def test_counters_identical_with_and_without_tracing(self, small_cloud):
        tree = build_index("srtree", small_cloud)
        query = small_cloud[17]
        tree.nearest(query, k=5)  # warm the buffer: runs now deterministic

        before = tree.stats.snapshot()
        plain = tree.nearest(query, k=5)
        untraced = tree.stats.since(before)

        trace.enable()
        before = tree.stats.snapshot()
        with trace.span("knn", k=5) as span:
            traced = tree.nearest(query, k=5)
        delta = tree.stats.since(before)

        assert [n.value for n in plain] == [n.value for n in traced]
        assert delta.page_reads == untraced.page_reads
        assert delta.distance_computations == untraced.distance_computations
        assert delta.buffer_hits == untraced.buffer_hits
        # and the traced run actually recorded the traversal
        assert span.fetches and span.visits

    @pytest.mark.parametrize("kind", ["srtree", "sstree", "rstar"])
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_every_algorithm_counts_the_same_traced_and_untraced(
            self, small_cloud, kind, algorithm):
        """One loop serves both modes: the span may only add events."""
        tree = build_index(kind, small_cloud)
        run = ALGORITHMS[algorithm]
        query = small_cloud[17]
        run(tree, query)  # warm the buffer: runs now deterministic

        before = tree.stats.snapshot()
        plain = run(tree, query)
        untraced = tree.stats.since(before)

        trace.enable()
        before = tree.stats.snapshot()
        with trace.span(algorithm) as span:
            traced = run(tree, query)
        delta = tree.stats.since(before)

        assert plain and ([(n.distance, n.value) for n in plain]
                          == [(n.distance, n.value) for n in traced])
        assert delta == untraced
        # Verdict conservation: besides the root's own entry, every child
        # of every expanded internal node gets exactly one verdict.  The
        # incremental iterator stopped early leaves some children queued.
        children = sum(tree.read_node(f.page_id).count
                       for f in span.fetches if f.level > 0)
        assert children > 0
        if algorithm == "incremental":
            assert len(span.visits) <= 1 + children
        else:
            assert len(span.visits) == 1 + children


class TestEndToEndExplain:
    def test_cold_knn_pages_match_iostats_delta(self, cold_tree):
        query = np.full(cold_tree.dims, 0.5)
        trace.enable()
        before = cold_tree.stats.snapshot()
        with trace.span("knn", k=10) as span:
            neighbors = cold_tree.nearest(query, k=10)
        delta = cold_tree.stats.since(before)

        assert len(neighbors) == 10
        assert delta.page_reads > 0
        assert span.pages_read == delta.page_reads
        assert span.buffer_hits == delta.buffer_hits

        levels = level_breakdown(span)
        assert sum(row["pages"] for row in levels.values()) == delta.page_reads
        assert 0 in levels  # leaves were read
        assert levels[max(levels)]["visited"] >= 1  # the root

        report = explain(span)
        assert f"pages read {delta.page_reads} physical" in report
        assert "pruning efficiency" in report
        assert "(root)" in report and "(leaf)" in report

    def test_node_leaf_split_matches_iostats(self, cold_tree):
        query = np.full(cold_tree.dims, 0.25)
        trace.enable()
        before = cold_tree.stats.snapshot()
        with trace.span("knn", k=5) as span:
            cold_tree.nearest(query, k=5)
        delta = cold_tree.stats.since(before)
        levels = level_breakdown(span)
        leaf = levels.get(0, {"pages": 0})["pages"]
        node = sum(r["pages"] for lv, r in levels.items() if lv != 0)
        assert leaf == delta.leaf_reads
        assert node == delta.node_reads

    @pytest.mark.parametrize("algorithm", ["depth-first", "best-first"])
    def test_both_knn_algorithms_trace(self, small_cloud, algorithm):
        # Best-first k-NN is the first k of the incremental iterator.
        tree = build_index("sstree", small_cloud)
        trace.enable()
        before = tree.stats.snapshot()
        with trace.span("knn", algorithm=algorithm) as span:
            if algorithm == "depth-first":
                tree.nearest(small_cloud[0], k=8)
            else:
                list(islice(tree.iter_nearest(small_cloud[0]), 8))
        delta = tree.stats.since(before)
        assert span.pages_read == delta.page_reads
        assert span.visits
        if algorithm == "best-first":
            assert span.queue_pushes > 0 and span.queue_peak > 0
            assert "queue:" in explain(span)

    def test_range_query_traces(self, cold_tree, small_cloud):
        query = small_cloud[7]  # stored point: guarantees a hit at d=0
        trace.enable()
        before = cold_tree.stats.snapshot()
        with trace.span("range", radius=0.5) as span:
            hits = cold_tree.within(query, radius=0.5)
        delta = cold_tree.stats.since(before)
        assert hits
        assert span.pages_read == delta.page_reads
        assert span.pruned  # a 0.5-radius ball prunes most of the cube

    def test_incremental_query_traces(self, cold_tree):
        query = np.full(cold_tree.dims, 0.5)
        trace.enable()
        before = cold_tree.stats.snapshot()
        with trace.span("incremental") as span:
            got = []
            for neighbor in cold_tree.iter_nearest(query):
                got.append(neighbor)
                if len(got) == 5:
                    break
        delta = cold_tree.stats.since(before)
        assert span.pages_read == delta.page_reads
        assert span.queue_pops >= len(span.descended)

    def test_generator_made_before_the_span_records_its_visits(self, cold_tree):
        # Regression: the span used to be read when the generator was
        # created, so one made outside any span fetched pages into the
        # consumer's span without a single visit to explain them.
        trace.enable()
        lazy = cold_tree.iter_nearest(np.full(cold_tree.dims, 0.5))
        before = cold_tree.stats.snapshot()
        with trace.span("incremental") as span:
            got = list(islice(lazy, 5))
        assert len(got) == 5
        assert span.pages_read == cold_tree.stats.since(before).page_reads > 0
        assert len(span.descended) == len(span.fetches)

    def test_generator_crossing_spans_keeps_fetch_and_visit_together(
            self, cold_tree):
        # Regression: a generator made in span A and consumed in span B
        # wrote its visits into the closed A and its fetches into B.
        trace.enable()
        with trace.span("a") as made_in:
            # From a corner, so that MINDISTs differ and the leaves are
            # read a few at a time rather than all for the first neighbor.
            lazy = cold_tree.iter_nearest(np.zeros(cold_tree.dims))
        with trace.span("b") as first:
            next(lazy)
        with trace.span("c") as rest:
            assert len(list(islice(lazy, 100))) == 100
        assert not made_in.fetches and not made_in.visits
        for span in (first, rest):
            assert span.fetches
            assert len(span.descended) == len(span.fetches)
            assert ([v.page_id for v in span.descended]
                    == [f.page_id for f in span.fetches])

    def test_window_query_traces(self, cold_tree):
        low = np.zeros(cold_tree.dims)
        high = np.full(cold_tree.dims, 0.4)
        trace.enable()
        before = cold_tree.stats.snapshot()
        with trace.span("window") as span:
            cold_tree.window(low, high)
        delta = cold_tree.stats.since(before)
        assert span.pages_read == delta.page_reads

    def test_warm_rerun_is_all_buffer_hits(self, small_cloud):
        tree = build_index("srtree", small_cloud)
        query = small_cloud[42]
        tree.nearest(query, k=5)  # warm
        trace.enable()
        before = tree.stats.snapshot()
        with trace.span("knn") as span:
            tree.nearest(query, k=5)
        delta = tree.stats.since(before)
        assert delta.page_reads == 0
        assert span.pages_read == 0
        assert span.buffer_hits == delta.buffer_hits > 0
        assert "buffer hits" in explain(span)


class TestExplainRendering:
    def test_empty_span_raises(self):
        with pytest.raises(ExplainError):
            explain(Span("knn"))

    def test_synthetic_breakdown(self):
        span = Span("knn", labels={"k": 3})
        span.end = span.start  # finished
        span.visit(1, 1, 0.0)           # root
        span.visit(2, 0, 0.1, bound=0.5)
        span.prune(3, 0, 0.9, bound=0.5)
        span.page(1, 1, 1, hit=False)
        span.page(2, 0, 1, hit=False)
        levels = level_breakdown(span)
        assert levels[1] == {"visited": 1, "pruned": 0, "pages": 1, "hits": 0}
        assert levels[0] == {"visited": 1, "pruned": 1, "pages": 1, "hits": 0}
        report = explain(span)
        assert report.startswith("EXPLAIN knn{k=3}")
        assert "nodes visited 2 · children pruned 1" in report
        # 1 child descended + 1 pruned -> 50% pruning efficiency
        assert "pruning efficiency 50.0%" in report
        assert "pages read 2 physical (1 node + 1 leaf)" in report

    def test_nested_spans_aggregate(self):
        outer = Span("outer")
        inner = Span("inner")
        outer.children.append(inner)
        outer.visit(1, 1, 0.0)
        inner.visit(2, 0, 0.0)
        inner.page(2, 0, 1, hit=False)
        levels = level_breakdown(outer)
        assert levels[0]["visited"] == 1
        assert levels[0]["pages"] == 1
