"""Tests for the flight recorder (repro.obs.flightrec)."""

from __future__ import annotations

import threading

import pytest

from repro import build_index
from repro.obs import hooks
from repro.obs.flightrec import FLIGHT, FlightRecorder


def _record(rec: FlightRecorder, *, wall_ms: float, op: str = "knn",
            query_id: int = 1, page_reads: int = 0, slow: bool = False,
            levels=None):
    return rec.record(
        query_id=query_id, op=op, index_kind="srtree", k=5,
        wall_ms=wall_ms, page_reads=page_reads, node_reads=0,
        leaf_reads=page_reads, buffer_hits=0, distance_computations=0,
        epoch=None, worker="MainThread", slow=slow, levels=levels,
    )


@pytest.fixture
def global_flight():
    """Use the process-wide recorder with a clean slate, then restore it
    and the latency objective that flags its records."""
    prior = (hooks.slo_ms(), FLIGHT.trace_tail)
    FLIGHT.reset()
    yield FLIGHT
    hooks.set_slo_ms(prior[0])
    FLIGHT.configure(trace_tail=prior[1])
    FLIGHT.reset()


class TestRing:
    def test_record_and_retrieve(self):
        rec = FlightRecorder(capacity=4)
        _record(rec, wall_ms=1.5, query_id=11)
        records = rec.records()
        assert len(records) == 1
        assert records[0].query_id == 11
        assert records[0].wall_ms == 1.5
        assert rec.recorded == 1

    def test_capacity_evicts_oldest(self):
        rec = FlightRecorder(capacity=2)
        for i in range(4):
            _record(rec, wall_ms=float(i), query_id=i)
        assert [r.query_id for r in rec.records()] == [2, 3]
        assert rec.recorded == 4

    def test_slowest_orders_by_wall_time(self):
        rec = FlightRecorder()
        for i, ms in enumerate((5.0, 50.0, 1.0, 20.0)):
            _record(rec, wall_ms=ms, query_id=i)
        assert [r.wall_ms for r in rec.slowest(3)] == [50.0, 20.0, 5.0]

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            FlightRecorder(capacity=0)

    def test_to_dict_round_trips_every_field(self):
        rec = FlightRecorder()
        record = _record(rec, wall_ms=2.0, levels={0: {"visited": 1}})
        doc = record.to_dict()
        assert doc["op"] == "knn"
        assert doc["traced"] is True
        assert set(doc) == set(record.__slots__)


class TestPercentiles:
    def test_nearest_rank_on_known_samples(self):
        rec = FlightRecorder(capacity=101)
        for i in range(101):  # 0..100 ms
            _record(rec, wall_ms=float(i), query_id=i)
        p = rec.percentiles()
        assert p["count"] == 101.0
        assert p["p50"] == 50.0
        assert p["p90"] == 90.0
        assert p["p95"] == 95.0
        assert p["p99"] == 99.0

    def test_filter_by_op(self):
        rec = FlightRecorder()
        _record(rec, wall_ms=10.0, op="knn")
        _record(rec, wall_ms=90.0, op="range")
        assert rec.percentiles(op="knn")["p50"] == 10.0
        assert rec.percentiles(op="range")["p50"] == 90.0

    def test_empty_recorder_is_all_zero(self):
        p = FlightRecorder().percentiles()
        assert p == {"count": 0.0, "p50": 0.0, "p90": 0.0,
                     "p95": 0.0, "p99": 0.0}

    def test_summary_counts_by_op(self):
        rec = FlightRecorder()
        _record(rec, wall_ms=1.0, op="knn")
        _record(rec, wall_ms=10.0, op="knn", slow=True)
        _record(rec, wall_ms=1.0, op="range")
        summary = rec.summary()
        assert summary["by_op"] == {"knn": 2, "range": 1}
        assert summary["slow_queries"] == 1
        assert summary["retained"] == 3


class TestTailSampling:
    def test_slow_query_flagged_and_arms_budget(self):
        rec = FlightRecorder(trace_tail=2)
        fast = _record(rec, wall_ms=1.0)
        assert not fast.slow
        assert not rec.should_trace()
        slow = _record(rec, wall_ms=9.0, slow=True)
        assert slow.slow
        assert rec.should_trace()
        assert rec.should_trace()
        assert not rec.should_trace()  # budget of 2 consumed

    def test_none_threshold_disables_flagging(self, global_flight,
                                              tiny_cloud):
        hooks.set_slo_ms(None)  # the objective off: nothing is slow
        tree = build_index("srtree", tiny_cloud)
        tree.nearest(tiny_cloud[0], k=3)
        assert not global_flight.records()[-1].slow
        assert not global_flight.should_trace()

    def test_zero_trace_tail_never_arms(self):
        rec = FlightRecorder(trace_tail=0)
        assert _record(rec, wall_ms=50.0, slow=True).slow
        assert not rec.should_trace()

    def test_should_trace_refuses_worker_threads(self):
        rec = FlightRecorder(trace_tail=4)
        _record(rec, wall_ms=50.0, slow=True)  # arm
        results: list[bool] = []
        worker = threading.Thread(
            target=lambda: results.append(rec.should_trace())
        )
        worker.start()
        worker.join()
        assert results == [False]
        assert rec.should_trace()  # budget untouched for the main thread

    def test_repeat_breach_does_not_stack_budget(self):
        rec = FlightRecorder(trace_tail=2)
        _record(rec, wall_ms=50.0, slow=True)
        _record(rec, wall_ms=50.0, slow=True)
        assert rec.should_trace()
        assert rec.should_trace()
        assert not rec.should_trace()  # max(budget, tail), not +=

    def test_reset_clears_budget_and_counters(self):
        rec = FlightRecorder()
        _record(rec, wall_ms=50.0, slow=True)
        rec.reset()
        assert rec.records() == []
        assert rec.recorded == 0
        assert rec.slow_queries == 0
        assert not rec.should_trace()


class TestObservedQueries:
    """End-to-end: observed_query feeds the global recorder."""

    def test_every_query_lands_in_the_ring(self, global_flight, tiny_cloud):
        tree = build_index("srtree", tiny_cloud)
        tree.nearest(tiny_cloud[0], k=3)
        tree.within(tiny_cloud[1], radius=0.4)
        ops = [r.op for r in global_flight.records()]
        assert "knn" in ops and "range" in ops
        knn = [r for r in global_flight.records() if r.op == "knn"][-1]
        assert knn.k == 3
        assert knn.worker == "MainThread"
        assert knn.wall_ms > 0

    def test_slow_record_page_total_matches_iostats_delta(
            self, global_flight, small_cloud):
        """Acceptance: a breaching query's recorded pages equal the
        query's own IOStats.page_reads delta."""
        hooks.set_slo_ms(1e-6)  # everything breaches
        tree = build_index("srtree", small_cloud)
        tree.store.drop_cache()
        before = tree.stats.page_reads
        tree.nearest(small_cloud[0], k=5)
        delta = tree.stats.page_reads - before
        record = global_flight.records()[-1]
        assert record.slow
        assert delta > 0
        assert record.page_reads == delta
        assert record.node_reads + record.leaf_reads == delta

    def test_breach_traces_the_tail(self, global_flight, tiny_cloud):
        hooks.set_slo_ms(1e-6)
        global_flight.configure(trace_tail=2)
        tree = build_index("srtree", tiny_cloud)
        tree.nearest(tiny_cloud[0], k=3)   # breaches, arms the tracer
        tree.nearest(tiny_cloud[1], k=3)   # armed: full trace detail
        armed = global_flight.records()[-1]
        assert armed.traced
        assert armed.levels  # per-level visit/prune/page tallies
        assert all({"visited", "pruned", "pages", "hits"} <= set(v)
                   for v in armed.levels.values())

    def test_ambient_tracing_unaffected_by_arming(self, global_flight,
                                                  tiny_cloud):
        from repro.obs import trace

        hooks.set_slo_ms(1e-6)
        global_flight.configure(trace_tail=4)
        tree = build_index("srtree", tiny_cloud)
        tree.nearest(tiny_cloud[0], k=2)  # arm
        trace.enable()
        try:
            with trace.span("mine") as span:
                tree.nearest(tiny_cloud[1], k=2)
            assert span.visits  # user's span observed the query
            assert trace.enabled  # arming did not disable it
        finally:
            trace.disable()

    def test_fast_queries_not_traced(self, global_flight, tiny_cloud):
        hooks.set_slo_ms(1e9)
        tree = build_index("srtree", tiny_cloud)
        tree.nearest(tiny_cloud[0], k=3)
        record = global_flight.records()[-1]
        assert not record.slow
        assert not record.traced
        assert record.levels is None
