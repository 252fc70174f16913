"""Tests for the metric hooks wired into the index/storage layers.

These exercise the *global* ``REGISTRY`` (the hooks hold references to
its families at import time), so every assertion is a before/after
delta of ``REGISTRY.flatten()`` rather than an absolute value.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro import REGISTRY, build_index
from repro.obs import FLIGHT, hooks


def delta(before: dict, after: dict) -> dict:
    return {
        key: value - before.get(key, 0.0)
        for key, value in after.items()
        if value != before.get(key, 0.0)
    }


@pytest.fixture
def metrics_on():
    hooks.set_metrics_enabled(True)
    yield
    hooks.set_metrics_enabled(True)


class TestQueryMetrics:
    def test_knn_publishes_counters_and_histograms(self, metrics_on,
                                                   small_cloud):
        tree = build_index("srtree", small_cloud)
        tree.store.drop_cache()  # make the query physically cold
        before = REGISTRY.flatten()
        tree.nearest(small_cloud[0], k=5)
        d = delta(before, REGISTRY.flatten())
        assert d['repro_queries_total{index_kind="srtree",op="knn"}'] == 1
        assert d['repro_query_seconds_count{index_kind="srtree",op="knn"}'] == 1
        assert d['repro_query_page_reads_count{index_kind="srtree",op="knn"}'] == 1
        assert d['repro_distance_computations_total{index_kind="srtree",op="knn"}'] > 0
        # cold query: physical reads split by level
        reads = sum(v for k, v in d.items()
                    if k.startswith("repro_page_reads_total"))
        assert reads > 0

    def test_each_op_gets_its_own_series(self, metrics_on, tiny_cloud):
        tree = build_index("sstree", tiny_cloud)
        before = REGISTRY.flatten()
        tree.nearest(tiny_cloud[0], k=2)
        tree.within(tiny_cloud[0], radius=0.3)
        tree.window(tiny_cloud[0], tiny_cloud[0])
        list(tree.iter_nearest(tiny_cloud[0], max_distance=0.2))
        d = delta(before, REGISTRY.flatten())
        for op in ("knn", "range", "window", "incremental"):
            key = f'repro_queries_total{{index_kind="sstree",op="{op}"}}'
            assert d[key] == 1, op

    def test_a_refused_argument_is_not_a_failed_query(self, metrics_on,
                                                      tiny_cloud):
        from repro.obs import EVENTS

        tree = build_index("srtree", tiny_cloud)
        point = tiny_cloud[0]
        low, high = np.full_like(point, 0.9), np.full_like(point, 0.1)
        EVENTS.clear()
        try:
            with pytest.raises(ValueError, match="k must be positive"):
                tree.nearest(point, 0)
            with pytest.raises(ValueError, match="radius"):
                tree.within(point, -1.0)
            with pytest.raises(ValueError, match="low > high"):
                tree.window(low, high)
            assert EVENTS.tail() == []
        finally:
            EVENTS.clear()

    def test_buffer_lookup_outcomes(self, metrics_on, small_cloud):
        tree = build_index("srtree", small_cloud)
        query = small_cloud[9]
        tree.nearest(query, k=3)  # warm the pool
        before = REGISTRY.flatten()
        tree.nearest(query, k=3)  # rerun: pure buffer hits
        d = delta(before, REGISTRY.flatten())
        assert d['repro_buffer_lookups_total{index_kind="srtree",outcome="hit"}'] > 0
        assert 'repro_buffer_lookups_total{index_kind="srtree",outcome="miss"}' not in d


class TestMutationMetrics:
    def test_build_and_insert_and_delete(self, metrics_on, tiny_cloud, rng):
        before = REGISTRY.flatten()
        tree = build_index("rstar", tiny_cloud)
        d = delta(before, REGISTRY.flatten())
        assert d['repro_builds_total{index_kind="rstar"}'] == 1
        assert d['repro_build_seconds_count{index_kind="rstar"}'] == 1
        assert d['repro_inserts_total{index_kind="rstar"}'] == len(tiny_cloud)
        size_key = 'repro_index_points{index_kind="rstar"}'
        assert REGISTRY.flatten()[size_key] == tree.size

        point = rng.random(tiny_cloud.shape[1])
        tree.insert(point)
        tree.delete(point)
        d = delta(before, REGISTRY.flatten())
        assert d['repro_deletes_total{index_kind="rstar"}'] == 1
        assert REGISTRY.flatten()[size_key] == len(tiny_cloud)

    def test_every_fill_path_counts_as_a_build(self, metrics_on, tiny_cloud,
                                               tmp_path):
        # The fill times and counts itself (SpatialIndex.load), so the
        # facade and the CLI — which never call build_index — are counted.
        import numpy as np

        from repro import Database
        from repro.cli import main

        before = REGISTRY.flatten()
        with Database.create(None, kind="sstree",
                             dims=tiny_cloud.shape[1]) as db:
            db.insert_many(tiny_cloud)
        data = tmp_path / "d.npy"
        np.save(data, tiny_cloud)
        assert main(["build", "--kind", "vamsplit", "--data", str(data),
                     "--out", str(tmp_path / "v.db")]) == 0
        d = delta(before, REGISTRY.flatten())
        for kind in ("sstree", "vamsplit"):
            assert d[f'repro_builds_total{{index_kind="{kind}"}}'] == 1
            assert d[f'repro_build_seconds_count{{index_kind="{kind}"}}'] == 1

    def test_linear_scan_queries_are_observed(self, metrics_on, tiny_cloud):
        scan = build_index("linear", tiny_cloud)
        before = REGISTRY.flatten()
        scan.nearest(tiny_cloud[0], k=2)
        scan.within(tiny_cloud[0], radius=0.3)
        scan.window(tiny_cloud[0], tiny_cloud[0])
        d = delta(before, REGISTRY.flatten())
        for op in ("knn", "range", "window"):
            key = f'repro_queries_total{{index_kind="linear",op="{op}"}}'
            assert d[key] == 1, op

    def test_splits_counted_during_build(self, metrics_on, small_cloud):
        before = REGISTRY.flatten()
        build_index("srtree", small_cloud)
        d = delta(before, REGISTRY.flatten())
        assert d['repro_node_splits_total{index_kind="srtree",node_kind="leaf"}'] > 0

    def test_writes_published_on_save(self, metrics_on, small_cloud):
        tree = build_index("srtree", small_cloud)
        before = REGISTRY.flatten()
        tree.save()
        d = delta(before, REGISTRY.flatten())
        writes = {k: v for k, v in d.items()
                  if k.startswith("repro_page_writes_total")}
        assert sum(writes.values()) > 0
        assert 'repro_page_writes_total{index_kind="srtree",level="leaf"}' in writes
        # a second save with no mutations publishes nothing new
        before = REGISTRY.flatten()
        tree.save()
        d = delta(before, REGISTRY.flatten())
        assert not any(k.startswith("repro_page_writes_total") for k in d)


class TestDisabledHooks:
    def test_disabled_hooks_record_nothing(self, tiny_cloud):
        hooks.set_metrics_enabled(False)
        try:
            before = REGISTRY.flatten()
            tree = build_index("srtree", tiny_cloud)
            tree.nearest(tiny_cloud[0], k=2)
            tree.save()
            assert delta(before, REGISTRY.flatten()) == {}
        finally:
            hooks.set_metrics_enabled(True)

    def test_enable_disable_roundtrip(self):
        assert hooks.metrics_enabled()
        hooks.set_metrics_enabled(False)
        assert not hooks.metrics_enabled()
        hooks.set_metrics_enabled(True)
        assert hooks.metrics_enabled()


class TestLatencySLOs:
    @pytest.fixture
    def slo_reset(self):
        prior = hooks.slo_ms()
        hooks.set_slo_ms(None)
        yield
        hooks.set_slo_ms(prior)
        FLIGHT.reset()  # a breach armed tail tracing

    def test_global_objective_counts_violations(self, metrics_on, slo_reset,
                                                tiny_cloud):
        tree = build_index("srtree", tiny_cloud)
        hooks.set_slo_ms(1e-6)  # everything violates
        before = REGISTRY.flatten()
        tree.nearest(tiny_cloud[0], k=2)
        d = delta(before, REGISTRY.flatten())
        assert d['repro_slo_violations_total{op="knn"}'] == 1
        assert REGISTRY.flatten()["repro_slo_violation_ratio"] > 0

    def test_fast_queries_do_not_violate(self, metrics_on, slo_reset,
                                         tiny_cloud):
        tree = build_index("srtree", tiny_cloud)
        hooks.set_slo_ms(1e9)  # nothing violates
        before = REGISTRY.flatten()
        tree.nearest(tiny_cloud[0], k=2)
        d = delta(before, REGISTRY.flatten())
        assert not any(k.startswith("repro_slo_violations_total")
                       for k in d)

    def test_unset_objective_is_free(self, metrics_on, slo_reset,
                                     tiny_cloud):
        assert hooks.slo_ms() is None
        tree = build_index("srtree", tiny_cloud)
        before = REGISTRY.flatten()
        tree.nearest(tiny_cloud[0], k=2)
        d = delta(before, REGISTRY.flatten())
        assert not any(k.startswith("repro_slo_") for k in d)

    def test_rejects_nonpositive_objective(self, slo_reset):
        with pytest.raises(ValueError, match="slo_ms"):
            hooks.set_slo_ms(0)
        with pytest.raises(ValueError, match="slo_ms"):
            hooks.set_slo_ms(-5)

    def test_violation_emits_warn_event(self, metrics_on, slo_reset,
                                        tiny_cloud):
        from repro.obs import EVENTS

        tree = build_index("srtree", tiny_cloud)
        hooks.set_slo_ms(1e-6)
        EVENTS.clear()
        try:
            tree.nearest(tiny_cloud[0], k=2)
            violations = [e for e in EVENTS.tail()
                          if e["event"] == "slo_violation"]
            assert violations
            assert violations[-1]["op"] == "knn"
            assert violations[-1]["slo_ms"] == 1e-6
        finally:
            EVENTS.clear()

    def test_default_objective_is_100ms(self):
        # Read in a fresh interpreter: this process's tests move it.
        out = subprocess.run(
            [sys.executable, "-c",
             "from repro.obs import slo_ms; print(slo_ms())"],
            capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
        assert out.stdout.strip() == "100.0"

    def test_one_breach_is_one_event_one_count_one_slow_record(
            self, metrics_on, slo_reset, tiny_cloud):
        from repro.obs import EVENTS

        tree = build_index("srtree", tiny_cloud)
        hooks.set_slo_ms(1e-6)
        EVENTS.clear()
        before = REGISTRY.flatten()
        slow_before = FLIGHT.slow_queries
        try:
            tree.nearest(tiny_cloud[0], k=2)
            warnings = [e for e in EVENTS.tail() if e["level"] == "warn"]
        finally:
            EVENTS.clear()
        d = delta(before, REGISTRY.flatten())
        assert [e["event"] for e in warnings] == ["slo_violation"]
        event, = warnings
        assert event["op"] == "knn" and event["index_kind"] == "srtree"
        assert {"page_reads", "traced", "query_id", "wall_ms"} <= set(event)
        assert {k: v for k, v in d.items()
                if k.startswith("repro_slo_violations_total")} == {
                    'repro_slo_violations_total{op="knn"}': 1}
        assert FLIGHT.slow_queries == slow_before + 1
        record = FLIGHT.records()[-1]
        assert record.slow and record.query_id == event["query_id"]

    def test_pool_blocks_checked_against_objective(
            self, metrics_on, slo_reset, tmp_path, tiny_cloud, serving_pool):
        from repro.api import Database

        path = tmp_path / "pool-slo.db"
        with Database.create(path, dims=tiny_cloud.shape[1]) as db:
            for point in tiny_cloud:
                db.insert(point)
        hooks.set_slo_ms(1e-6)
        before = REGISTRY.flatten()
        recorded = FLIGHT.recorded
        with serving_pool(path, workers=2) as pool:
            pool.knn(tiny_cloud[:8], k=2)
            d = delta(before, REGISTRY.flatten())
            replayed = FLIGHT.records(FLIGHT.recorded - recorded)
            # A slow record armed each worker's trace tail: its next call
            # comes back traced, levels keyed by level number as in the
            # worker (the pipe's JSON part carries them as strings).
            pool.knn(tiny_cloud[:8], k=2)
            traced = FLIGHT.records(2)
        assert d['repro_slo_violations_total{op="pool_knn"}'] > 0
        # Workers start with the parent's objective, spawned ones too:
        # their blocks count, and their records come back slow.
        assert d['repro_slo_violations_total{op="batch_knn"}'] > 0
        assert replayed and all(r.slow for r in replayed)
        assert all(r.traced and r.levels and all(type(level) is int
                                                 for level in r.levels)
                   for r in traced)
        block_count = [v for k, v in d.items()
                       if k.startswith("repro_pool_block_seconds_count")]
        assert sum(block_count) > 0
