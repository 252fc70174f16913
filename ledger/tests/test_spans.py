"""Span nesting, self-time arithmetic and the shim installer."""

import json
import threading
import types

import pytest

from ledger import shims
from ledger.spans import Recorder, Rollup, write_trace


def columns(rows):
    """rows: (name, parent, start, end) -> the recorder's column layout."""
    names = sorted({row[0] for row in rows})
    return {"names": names, "name": [names.index(r[0]) for r in rows],
            "parent": [r[1] for r in rows], "start": [r[2] for r in rows],
            "end": [r[3] for r in rows], "value": [0.0] * len(rows)}


def test_self_time_is_duration_minus_children():
    rollup = Rollup(columns([
        ("api.knn", -1, 0.0, 10.0),
        ("search.visit", 0, 1.0, 9.0),
        ("storage.read", 1, 2.0, 4.0),
        ("storage.read", 1, 5.0, 6.0),
        ("storage.decode", 2, 2.5, 3.5),
    ]))
    assert rollup.self_total("api") == pytest.approx(2.0)
    assert rollup.self_total("search") == pytest.approx(5.0)
    assert rollup.self_total("storage.read") == pytest.approx(2.0)
    assert rollup.total("storage.read") == pytest.approx(3.0)
    assert rollup.self_total("storage") == pytest.approx(3.0)  # read + decode
    assert rollup.count("storage.read") == 2
    assert rollup.longest("storage.read") == pytest.approx(2.0)
    assert rollup.check_sums() == pytest.approx(10.0)
    assert rollup.coverage() == pytest.approx(0.8)


def test_prefix_matches_whole_components_only():
    rollup = Rollup(columns([("storage.read", -1, 0.0, 1.0),
                             ("storage.readahead", -1, 1.0, 3.0)]))
    assert rollup.total("storage.read") == pytest.approx(1.0)
    assert rollup.total("storage") == pytest.approx(3.0)


def test_rollup_by_root_and_time_window():
    rows = [("api.insert", -1, 0.0, 4.0), ("storage.read", 0, 1.0, 2.0),
            ("api.knn", -1, 5.0, 8.0), ("storage.read", 2, 5.0, 7.0),
            ("api.knn", -1, 20.0, 21.0)]
    rollup = Rollup(columns(rows))
    assert rollup.total("storage.read", under="api.knn") == pytest.approx(2.0)
    assert rollup.total("storage.read", under="api.insert") == pytest.approx(1.0)
    windowed = Rollup(columns(rows), since=4.5, until=10.0)
    assert windowed.count("api") == 1 and windowed.count("storage") == 1
    assert windowed.check_sums() == pytest.approx(3.0)


def test_check_sums_detects_broken_arithmetic():
    broken = Rollup(columns([("a", -1, 0.0, 1.0), ("b", 0, 0.0, 5.0)]))
    broken.self_time[0] = 0.5  # corrupt: no longer duration minus children
    with pytest.raises(AssertionError):
        broken.check_sums()


def test_recorder_nests_calls_and_keeps_threads_apart(tmp_path):
    recorder = Recorder()
    inner = recorder.wrap(lambda x: x + 1, "storage.read",
                          measure=lambda args, kwargs, result: result)
    outer = recorder.wrap(lambda x: inner(inner(x)), "api.knn")
    assert outer(1) == 3
    worker = threading.Thread(target=outer, args=(10,))
    worker.start()
    worker.join()
    cols = recorder.columns()
    assert [cols["names"][n] for n in cols["name"]] == ["api.knn", "storage.read",
                                                      "storage.read"] * 2
    assert cols["parent"] == [-1, 0, 0, -1, 3, 3]
    assert cols["value"] == [0.0, 2, 3, 0.0, 11, 12]
    rollup = Rollup(cols)
    rollup.check_sums()
    assert rollup.count("api") == 2 and rollup.count("storage", under="api.knn") == 4
    write_trace(tmp_path / "trace.json", cols, rollup, max_spans=4)
    doc = json.loads((tmp_path / "trace.json").read_text())
    assert doc["spans_total"] == 6 and doc["spans_written"] == 4
    assert doc["rollup"]["storage.read"]["count"] == 4
    recorder.clear()
    assert recorder.columns()["name"] == []


def test_a_span_ends_when_the_call_raises():
    recorder = Recorder()

    def boom():
        raise KeyError("x")

    shim = recorder.wrap(boom, "api.knn")
    with pytest.raises(KeyError):
        shim()
    cols = recorder.columns()
    assert cols["end"][0] >= cols["start"][0] > 0
    assert recorder.wrap(lambda: 1, "api.knn")() == 1
    assert recorder.columns()["parent"] == [-1, -1]  # the stack was unwound


def test_install_patches_and_restores_and_fails_loudly(monkeypatch):
    import sys

    class Engine:
        def read(self, n):
            return n

        @staticmethod
        def helper(n):
            return -n

    module = types.ModuleType("ledger_fake_module")
    module.Engine = Engine
    module.kernel = lambda n: n * n
    monkeypatch.setitem(sys.modules, "ledger_fake_module", module)
    recorder = Recorder()
    recorder.install("ledger_fake_module", "Engine.read", "storage.read")
    recorder.install("ledger_fake_module", "Engine.helper", "storage.helper")
    recorder.install("ledger_fake_module", "kernel", "geometry.kernel")
    assert Engine().read(4) == 4 and Engine.helper(4) == -4 and module.kernel(3) == 9
    assert len(recorder.columns()["name"]) == 3
    with pytest.raises(LookupError, match="no longer exists"):
        recorder.install("ledger_fake_module", "Engine.renamed_away", "storage.gone")
    recorder.uninstall()
    Engine().read(1)
    assert len(recorder.columns()["name"]) == 3  # no longer observed


def test_every_shim_target_exists_in_the_program():
    recorder = Recorder()
    try:
        shims.install(recorder, shims.ENGINE, shims.POOL, shims.CLIENT, shims.SERVER)
    finally:
        recorder.uninstall()
