"""Tests for the command-line interface (repro.cli)."""

import json
import os
import signal
import subprocess
import sys
import urllib.request
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import Database, RemoteDatabase
from repro.cli import main
from repro.storage import CHECKSUM_TRAILER_SIZE


@pytest.fixture
def data_file(tmp_path, rng):
    path = tmp_path / "points.npy"
    np.save(path, rng.random((200, 4)))
    return path


def run(*argv) -> int:
    return main([str(a) for a in argv])


class TestGenerate:
    @pytest.mark.parametrize("family", ["uniform", "cluster", "real"])
    def test_generates_npy(self, family, tmp_path, capsys):
        out = tmp_path / "data.npy"
        code = run("generate", "--family", family, "--size", 300,
                   "--dims", 8, "--out", out)
        assert code == 0
        data = np.load(out)
        assert data.shape == (300, 8) or family == "cluster"
        if family == "cluster":
            assert data.shape[1] == 8
        assert "wrote" in capsys.readouterr().out

    def test_deterministic_by_seed(self, tmp_path):
        a = tmp_path / "a.npy"
        b = tmp_path / "b.npy"
        run("generate", "--size", 50, "--dims", 3, "--seed", 7, "--out", a)
        run("generate", "--size", 50, "--dims", 3, "--seed", 7, "--out", b)
        np.testing.assert_array_equal(np.load(a), np.load(b))


class TestBuildInfoQuery:
    def test_full_pipeline(self, tmp_path, data_file, capsys):
        index_file = tmp_path / "index.srtree"
        assert run("build", "--kind", "srtree", "--data", data_file,
                   "--out", index_file) == 0
        # No log, and still every page sealed: physical pages are 8 bytes
        # longer than the logical ones.
        assert index_file.stat().st_size % (8192 + CHECKSUM_TRAILER_SIZE) == 0
        assert "(WAL)" not in capsys.readouterr().out

        assert run("info", "--index", index_file) == 0
        out = capsys.readouterr().out
        assert "srtree: 200 points" in out
        assert "level 0" in out

        assert run("query", "--index", index_file, "--row", 5,
                   "--data", data_file, "-k", 3) == 0
        out = capsys.readouterr().out
        assert "3 neighbors" in out
        assert "page reads" in out
        assert out.splitlines()[0].startswith("0.000000")  # self-match first

        assert run("verify", "--index", index_file) == 0
        assert "OK (checksummed pages, 200 points" in capsys.readouterr().out

    def test_query_by_point_string(self, tmp_path, data_file, capsys):
        index_file = tmp_path / "index.srtree"
        run("build", "--data", data_file, "--out", index_file)
        point = ",".join(str(x) for x in np.load(data_file)[0])
        assert run("query", "--index", index_file, "--point", point) == 0
        assert "page reads" in capsys.readouterr().out

    @pytest.mark.parametrize("kind", ["rstar", "sstree", "kdb", "vamsplit"])
    def test_other_kinds_build_and_open(self, kind, tmp_path, data_file):
        index_file = tmp_path / f"index.{kind}"
        assert run("build", "--kind", kind, "--data", data_file,
                   "--out", index_file) == 0
        with Database.open(index_file) as db:
            assert db.index.size == 200

    def test_build_rejects_bad_shape(self, tmp_path, capsys):
        bad = tmp_path / "bad.npy"
        np.save(bad, np.zeros(7))
        code = run("build", "--data", bad, "--out", tmp_path / "x.idx")
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_query_row_requires_data(self, tmp_path, data_file, capsys):
        index_file = tmp_path / "index.srtree"
        run("build", "--data", data_file, "--out", index_file)
        assert run("query", "--index", index_file, "--row", 1) == 2
        assert "requires --data" in capsys.readouterr().err

    def test_missing_index_file(self, tmp_path, capsys):
        assert run("info", "--index", tmp_path / "absent.idx") == 2


class TestOpenIndex:
    def test_open_with_custom_page_size(self, tmp_path, rng):
        path = tmp_path / "big.idx"
        with Database.create(path, kind="srtree", dims=4,
                             page_size=16384) as db:
            db.insert_many(rng.random((50, 4)))
        with Database.open(path) as db:
            assert db.index.layout.page_size == 16384
            assert db.index.size == 50


class TestQueryExplain:
    def test_explain_block_matches_page_reads(self, tmp_path, data_file,
                                              capsys):
        import re

        index_file = tmp_path / "index.srtree"
        run("build", "--data", data_file, "--out", index_file)
        capsys.readouterr()
        assert run("query", "--index", index_file, "--row", 3,
                   "--data", data_file, "-k", 5, "--explain") == 0
        out = capsys.readouterr().out
        assert "EXPLAIN knn{k=5}" in out
        assert "pruning efficiency" in out
        # the EXPLAIN physical-page total equals the IOStats read delta
        # printed on the summary line — the acceptance invariant.
        summary = re.search(r"-- 5 neighbors, (\d+) page reads", out)
        explained = re.search(r"pages read (\d+) physical", out)
        assert summary and explained
        assert summary.group(1) == explained.group(1)

    def test_explain_leaves_tracer_disabled(self, tmp_path, data_file):
        from repro.obs import trace

        index_file = tmp_path / "index.srtree"
        run("build", "--data", data_file, "--out", index_file)
        run("query", "--index", index_file, "--row", 0,
            "--data", data_file, "--explain")
        assert not trace.enabled
        assert trace.active is None


class TestStats:
    def test_prom_output_is_exposition_text(self, tmp_path, data_file,
                                            capsys):
        index_file = tmp_path / "index.srtree"
        run("build", "--data", data_file, "--out", index_file)
        capsys.readouterr()
        assert run("stats", "--index", index_file, "--queries", 3,
                   "-k", 3) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_queries_total counter" in out
        assert 'repro_queries_total{index_kind="srtree",op="knn"}' in out
        assert "# TYPE repro_query_seconds histogram" in out
        assert 'le="+Inf"' in out

    def test_json_format_parses(self, tmp_path, data_file, capsys):
        import json as _json

        index_file = tmp_path / "index.srtree"
        run("build", "--data", data_file, "--out", index_file)
        capsys.readouterr()
        assert run("stats", "--index", index_file, "--queries", 2,
                   "--format", "json") == 0
        dump = _json.loads(capsys.readouterr().out)
        assert dump["repro_queries_total"]["kind"] == "counter"
        assert dump["repro_page_reads_total"]["kind"] == "counter"

    def test_text_format_lists_flat_samples(self, capsys):
        # without --index the command just dumps the current registry
        assert run("stats", "--format", "text") == 0
        out = capsys.readouterr().out
        assert any(line.startswith("repro_") for line in out.splitlines())


@pytest.fixture
def obs_restore():
    """Restore the event log, flight recorder and latency objective the
    CLI mutates."""
    from repro.obs import EVENTS, FLIGHT, set_slo_ms, slo_ms

    prior = slo_ms()
    yield
    EVENTS.configure(min_level="info")
    EVENTS.clear()
    set_slo_ms(prior)
    FLIGHT.reset()


class TestTelemetryCommands:
    @pytest.fixture
    def index_file(self, tmp_path, data_file):
        path = tmp_path / "index.srtree"
        run("build", "--data", data_file, "--out", path)
        return path

    def test_serve_runs_for_duration(self, index_file, capsys, obs_restore):
        assert run("serve", "--index", index_file, "--port", 0,
                   "--duration", 0.05) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith(f"serving {index_file} at http://127.0.0.1:")
        assert "/v1 (single handle, mutations disabled)" in lines[0]
        address = lines[0].split("http://")[1].split("/v1")[0]
        # Telemetry is answered on the query port itself.
        assert lines[1] == (f"telemetry at http://{address}  "
                            f"(/metrics /healthz /varz)")
        assert lines[-1] == "drained; bye"

    def test_serve_keeps_the_ledger_contract(self, index_file):
        # The command ledger/workloads.py starts, the two banner lines it
        # parses, and the /varz keys its counters() sums.
        env = dict(os.environ, PYTHONUNBUFFERED="1",
                   PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        child = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--index",
             str(index_file), "--port", "0", "--telemetry-port", "0"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)
        try:
            serving, banner = child.stdout.readline(), child.stdout.readline()
            address = serving.split("http://")[1].split("/v1")[0]
            url = banner.split()[2]
            assert banner.startswith("telemetry at ")
            assert url == f"http://{address}"
            with RemoteDatabase.connect(address) as rdb:
                assert len(rdb.knn(np.full(4, 0.5), k=3)) == 3
            with urllib.request.urlopen(url + "/varz", timeout=10) as reply:
                flat = json.load(reply)["metrics"]
        finally:
            child.send_signal(signal.SIGTERM)
            out, _ = child.communicate(timeout=30)
        assert child.returncode == 0
        assert out.splitlines()[-1] == "drained; bye"
        knn_count = [value for key, value in flat.items()
                     if key.startswith("repro_net_request_seconds_count")
                     and 'endpoint="knn"' in key]
        leaf_reads = [value for key, value in flat.items()
                      if key.startswith("repro_page_reads_total")
                      and 'level="leaf"' in key]
        assert knn_count == [1]
        assert leaf_reads and sum(leaf_reads) > 0

    def test_serve_refuses_a_second_port(self, index_file, capsys):
        with pytest.raises(SystemExit) as info:
            run("serve", "--index", index_file, "--port", 0,
                "--telemetry-port", 9464, "--duration", 0.05)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "--telemetry-port" in err
        assert "query port (--port)" in err

    def test_serve_refuses_the_thread_backend(self, index_file, capsys):
        # A pool is worker processes; the flag that chose threads is gone.
        with pytest.raises(SystemExit) as info:
            run("serve", "--index", index_file, "--port", 0, "--workers", 2,
                "--backend", "thread", "--duration", 0.05)
        assert info.value.code == 2
        assert "--backend" in capsys.readouterr().err

    def test_slow_table(self, index_file, capsys, obs_restore):
        assert run("slow", "--index", index_file, "--queries", 5,
                   "-k", 3, "--top", 3) == 0
        out = capsys.readouterr().out
        assert "wall ms" in out
        assert "recorded" in out and "p95" in out
        # header + <= 3 rows + summary
        rows = [line for line in out.splitlines()
                if line.strip() and not line.startswith(("--", "   qid"))]
        assert 1 <= len(rows) <= 4

    def test_slow_json_and_slo_ms_threshold(self, index_file, capsys,
                                            obs_restore):
        import json as _json

        assert run("slow", "--index", index_file, "--queries", 4,
                   "-k", 3, "--slo-ms", "0.000001",
                   "--format", "json") == 0
        records = _json.loads(capsys.readouterr().out)
        assert records
        assert all(rec["slow"] for rec in records)
        assert all(rec["op"] == "knn" for rec in records)

    def test_events_tail_prints_one_json_per_line(self, index_file, capsys,
                                                  obs_restore):
        import json as _json

        assert run("events", "--index", index_file, "--queries", 3,
                   "-k", 3, "--tail", 10, "--level", "debug") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert 0 < len(lines) <= 10
        parsed = [_json.loads(line) for line in lines]
        assert any(e["event"] == "query_finish" for e in parsed)
        assert all({"ts", "level", "event"} <= set(e) for e in parsed)

    def test_events_level_filters(self, index_file, capsys, obs_restore):
        import json as _json

        assert run("events", "--index", index_file, "--queries", 3,
                   "-k", 3, "--level", "warn") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        for line in lines:
            assert _json.loads(line)["level"] in ("warn", "error")
