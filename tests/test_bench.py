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

    def test_a_scaled_run_archives_beside_the_scale_one_tables(
            self, monkeypatch, tmp_path):
        from benchmarks import conftest

        monkeypatch.setattr(conftest, "RESULTS_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        conftest.archive("fig", "Scale one", ["n"], [[1]])
        monkeypatch.setenv("REPRO_BENCH_SCALE", "10")
        conftest.archive("fig", "Scale ten", ["n"], [[10]])
        assert (tmp_path / "fig.txt").read_text().startswith("Scale one")
        assert (tmp_path / "scale10" / "fig.txt").read_text().startswith("Scale ten")


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
