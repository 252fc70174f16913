"""Unit tests for the benchmark harness (runner, report, experiments)."""

import numpy as np
import pytest

from repro.bench.report import format_table, format_value, write_report
from repro.bench.runner import build_with_cost, run_query_batch
from repro.indexes import build_index


class TestRunner:
    def test_query_batch_averages(self, rng):
        data = rng.random((300, 4))
        index = build_index("srtree", data)
        cost = run_query_batch(index, data[:10], k=5)
        assert cost.queries == 10
        assert cost.k == 5
        assert cost.page_reads > 0
        assert cost.cpu_ms > 0
        assert cost.page_reads == pytest.approx(
            cost.node_reads + cost.leaf_reads, abs=1e-9
        )

    def test_cold_reads_exceed_warm(self, rng):
        data = rng.random((300, 4))
        index = build_index("srtree", data)
        queries = np.tile(data[0], (5, 1))
        cold = run_query_batch(index, queries, k=5, cold=True)
        warm = run_query_batch(index, queries, k=5, cold=False)
        assert warm.page_reads < cold.page_reads

    def test_rejects_empty_queries(self, rng):
        index = build_index("srtree", rng.random((20, 3)))
        with pytest.raises(ValueError):
            run_query_batch(index, np.empty((0, 3)))

    def test_build_with_cost(self, rng):
        data = rng.random((200, 4))
        index, cost = build_with_cost("sstree", data)
        assert index.size == 200
        assert cost.points == 200
        assert cost.cpu_ms > 0
        assert cost.disk_accesses == pytest.approx(
            cost.page_reads + cost.page_writes, abs=1e-9
        )
        # Stats were reset after the build measurement.
        assert index.stats.page_reads == 0


class TestThroughput:
    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        from repro.storage import FilePageFile
        from repro.workloads import uniform_dataset

        data = uniform_dataset(400, 6, seed=7)
        path = tmp_path_factory.mktemp("throughput") / "tp.db"
        index = build_index("srtree", data, pagefile=FilePageFile(path))
        index.close()
        return path, data

    def test_parallel_percentiles_come_from_real_block_times(self, saved):
        from repro.bench.throughput import run_throughput

        path, data = saved
        doc = run_throughput(path, data[:64], k=5,
                             modes=("single", "parallel"),
                             block_size=8, workers=2)
        parallel = doc["modes"]["parallel"]
        assert parallel["p50_ms"] <= parallel["p95_ms"]
        # >= 8 independently timed blocks: bit-identical percentiles
        # would mean the samples were one flat wall/N average again.
        assert parallel["p50_ms"] != parallel["p95_ms"]
        assert parallel["qps"] > 0

    def test_pool_modes_carry_per_worker_breakdown(self, saved):
        from repro.bench.throughput import run_throughput

        path, data = saved
        doc = run_throughput(path, data[:32], k=5,
                             modes=("parallel",), block_size=8, workers=2)
        parallel = doc["modes"]["parallel"]
        assert len(parallel["per_worker"]) == 2
        total_reads = sum(w["page_reads"] for w in parallel["per_worker"])
        assert total_reads == pytest.approx(
            parallel["page_reads_per_query"] * 32, abs=1e-6
        )
        for entry in parallel["per_worker"]:
            assert {"worker", "page_reads", "buffer_hits",
                    "quarantines"} <= set(entry)

    def test_single_mode_has_no_per_worker(self, saved):
        from repro.bench.throughput import run_throughput

        path, data = saved
        doc = run_throughput(path, data[:16], k=3, modes=("single",))
        assert doc["modes"]["single"]["per_worker"] == []
        assert doc["modes"]["single"]["workers"] == 1


class TestBenchCheck:
    """The tools/bench_check.py schema gate."""

    @pytest.fixture
    def bench_check(self):
        import importlib.util
        import os

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        spec = importlib.util.spec_from_file_location(
            "bench_check", os.path.join(root, "tools", "bench_check.py")
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    @staticmethod
    def _mode(mode, **overrides):
        doc = {
            "mode": mode, "queries": 128, "k": 5, "wall_seconds": 1.0,
            "qps": 128.0, "p50_ms": 5.0, "p95_ms": 9.0,
            "page_reads_per_query": 3.0, "buffer_hit_ratio": 0.5,
            "workers": 1,
            "backend": "inline", "speedup_vs_single": 1.0,
        }
        doc.update(overrides)
        return doc

    def _doc(self, **mode_overrides):
        parallel = self._mode(
            "parallel", workers=2, backend="process",
            per_worker=[
                {"worker": 0, "page_reads": 10, "buffer_hits": 2,
                 "quarantines": 0},
                {"worker": 1, "page_reads": 12, "buffer_hits": 1,
                 "quarantines": 0},
            ],
        )
        parallel.update(mode_overrides)
        return {
            "benchmark": "throughput", "dataset": {"points": 100, "dims": 4},
            "k": 5, "queries": 128, "block_size": 16, "speedups": {},
            "cpu_count": 1,
            "modes": {"single": self._mode("single"), "parallel": parallel},
        }

    def test_well_formed_document_passes(self, bench_check):
        assert bench_check.check_schema(self._doc()) == []

    def test_flat_parallel_percentiles_rejected(self, bench_check):
        problems = bench_check.check_schema(
            self._doc(p50_ms=2.5, p95_ms=2.5)
        )
        assert any("per-block latencies were not measured" in p
                   for p in problems)

    def test_missing_per_worker_rejected(self, bench_check):
        problems = bench_check.check_schema(self._doc(per_worker=[]))
        assert any("per_worker" in p for p in problems)

    def test_inverted_percentiles_rejected(self, bench_check):
        problems = bench_check.check_schema(
            self._doc(p50_ms=9.0, p95_ms=5.0)
        )
        assert any("p50" in p and "p95" in p for p in problems)

    def test_parallel_slower_than_batched_rejected_on_multicore(
            self, bench_check):
        doc = self._doc(qps=50.0)
        doc["cpu_count"] = 4
        doc["modes"]["batched"] = self._mode("batched", qps=100.0,
                                             backend="inline")
        problems = bench_check.check_schema(doc)
        assert any("must scale" in p for p in problems)

    def test_scaling_gate_skipped_on_a_single_core(self, bench_check):
        # On the 1-core doc the comparison is meaningless: no pool can
        # beat one batched worker, so the slower parallel mode passes.
        doc = self._doc(qps=50.0)
        doc["modes"]["batched"] = self._mode("batched", qps=100.0,
                                             backend="inline")
        assert bench_check.check_schema(doc) == []

    def test_committed_document_passes_schema(self, bench_check):
        import json
        import os

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "BENCH_throughput.json")) as fh:
            doc = json.load(fh)
        assert bench_check.check_schema(doc) == []


class TestReport:
    def test_format_value_floats(self):
        assert format_value(0.0) == "0"
        assert format_value(3.14159) == "3.142"
        assert format_value(123.456) == "123.5"
        assert format_value(1.5e-9) == "1.500e-09"
        assert format_value(2.5e7) == "2.500e+07"

    def test_format_value_passthrough(self):
        assert format_value("srtree") == "srtree"
        assert format_value(42) == "42"
        assert format_value(True) == "True"

    def test_format_table_alignment(self):
        text = format_table(["name", "reads"], [["srtree", 12.5], ["sstree", 100.25]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert set(lines[1]) <= {"-", " "}
        assert all(len(line) <= len(lines[1]) + 2 for line in lines)

    def test_format_table_row_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only one"]])

    def test_write_report(self, tmp_path):
        path = tmp_path / "nested" / "out.txt"
        text = write_report(path, "Title", "body")
        assert path.read_text() == text
        assert text.startswith("Title\n=====")


class TestExperiments:
    def test_fanout_experiment_matches_paper(self):
        from repro.bench.experiments import fanout_experiment

        headers, rows = fanout_experiment(dims_list=[16])
        table = {row[0]: row for row in rows}
        assert table["srtree"][1] == 20  # node capacity, D=16
        assert table["srtree"][2] == 12  # leaf capacity
        assert table["sstree"][1] == 56
        assert table["rstar"][1] == 31

    def test_dataset_cache_returns_same_object(self):
        from repro.bench.experiments import clear_caches, get_dataset

        clear_caches()
        a = get_dataset("uniform", size=100, dims=4)
        b = get_dataset("uniform", size=100, dims=4)
        assert a is b
        clear_caches()

    def test_index_cache(self):
        from repro.bench.experiments import clear_caches, get_index

        clear_caches()
        a = get_index("srtree", "uniform", size=120, dims=4)
        b = get_index("srtree", "uniform", size=120, dims=4)
        assert a is b
        assert a.size == 120
        clear_caches()

    def test_scale_env(self, monkeypatch):
        from repro.bench import experiments

        monkeypatch.setenv("REPRO_BENCH_SCALE", "2.0")
        assert experiments.scale() == 2.0
        assert experiments.scaled(1000) == 2000
        monkeypatch.delenv("REPRO_BENCH_SCALE")
        assert experiments.scaled(1000) == 1000

    def test_height_experiment_small(self):
        from repro.bench.experiments import clear_caches, height_experiment

        clear_caches()
        headers, rows = height_experiment(
            "uniform", sizes=[150], dims=4, kinds=("srtree", "sstree")
        )
        assert headers == ["index", "n=150"]
        assert all(row[1] >= 2 for row in rows)
        clear_caches()


class TestLedgerContract:
    """``ledger/shims.py`` names engine callables; tier-1 must notice a rename."""

    def test_every_shimmed_callable_resolves(self):
        import importlib
        from operator import attrgetter

        from ledger import shims

        for module, path, _span in (*shims.ENGINE, *shims.POOL,
                                    *shims.CLIENT, *shims.SERVER):
            # attrgetter raises an AttributeError naming whatever is gone
            target = attrgetter(path)(importlib.import_module(module))
            assert callable(target), f"{module}:{path} is not callable"
