"""The repository policy rules of ``tools/lint.py`` still fire.

Each ``check_*`` policy rule gets one offending snippet at a path it
polices, which it must flag, and one allowed case — the same snippet
where the rule permits it, or a harmless spelling at the policed path —
which it must pass.  The snippets go through ``ast.parse`` exactly as
``run_policy_pass`` parses a file, and a last test writes every
offending snippet into a scratch tree and runs the pass itself, so a
rule that is dropped from the pass is caught too.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_lint():
    spec = importlib.util.spec_from_file_location(
        "repro_tools_lint", ROOT / "tools" / "lint.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


lint = _load_lint()

#: rule -> (offending (path, source) cases, allowed (path, source) cases)
CASES = {
    "check_pickle_usage": (
        [("src/repro/net/protocol.py", "import pickle\npickle.loads(b'')\n"),
         ("src/repro/api.py", "from pickle import load\n")],
        [("src/repro/storage/serializer.py",
          "import pickle\npickle.loads(b'')\n"),
         ("src/repro/net/protocol.py", "import pickle\npickle.dumps(1)\n")],
    ),
    "check_pagefile_construction": (
        [("src/repro/api.py", "FilePageFile('x')\n"),
         ("examples/quickstart.py", "storage.InMemoryPageFile(512)\n")],
        [("src/repro/storage/stack.py", "FilePageFile('x')\n"),
         ("tests/test_pagefile.py", "FilePageFile('x')\n")],
    ),
    "check_store_construction": (
        [("src/repro/api.py", "NodeStore(pagefile)\n"),
         ("src/repro/net/server.py", "snap.SnapshotStore(base, 3)\n")],
        [("src/repro/indexes/base.py", "NodeStore(pagefile)\n"),
         ("src/repro/storage/snapshot.py", "SnapshotStore(base, 3)\n"),
         ("tests/test_store.py", "NodeStore(pagefile)\n")],
    ),
    "check_logging_surface": (
        [("src/repro/api.py", "print('hello')\n"),
         ("src/repro/net/server.py",
          "import logging\nlogging.getLogger(__name__)\n"),
         ("src/repro/httpd.py", "from logging import getLogger\n")],
        [("src/repro/cli.py", "print('hello')\n"),
         ("src/repro/obs/events.py", "print('hello')\n"),
         ("tools/sloc.py", "print('hello')\n")],
    ),
    "check_http_stack": (
        [("src/repro/api.py", "import http.server\n"),
         ("src/repro/net/client.py", "from email import message\n"),
         ("src/repro/net/server.py", "import socketserver\n")],
        [("src/repro/httpd.py", "import socketserver\n"),
         ("tests/test_net.py", "import http.client\n")],
    ),
    "check_mmap_import": (
        [("src/repro/storage/store.py", "import mmap\n"),
         ("src/repro/exec/procpool.py", "from mmap import mmap\n")],
        [("src/repro/storage/pagefile.py", "import mmap\n"),
         ("benchmarks/test_io.py", "import mmap\n")],
    ),
    "check_pipe_pickling": (
        [("src/repro/exec/procpool.py", "conn.send(('knn', 1))\n"),
         ("src/repro/exec/procpool.py", "conn.recv()\n")],
        [("src/repro/exec/procpool.py", "conn.send_bytes(b'')\n"),
         ("src/repro/net/server.py", "sock.send(b'')\n")],
    ),
    "check_query_traversals": (
        [("src/repro/search/window.py", "index.read_node(page_id)\n"),
         ("src/repro/search/knn.py", "index.read_node(page_id)\n"),
         ("src/repro/exec/procpool.py", "index.read_node(0)\n")],
        [("src/repro/exec/batch.py", "index.read_node(page_id)\n"),
         ("src/repro/search/incremental.py", "index.read_node(page_id)\n"),
         ("src/repro/indexes/base.py", "self.read_node(page_id)\n")],
    ),
    "check_box_distance_spelling": (
        [("src/repro/search/window.py",
          "np.maximum(np.maximum(low - p, 0.0), p - high)\n"),
         ("src/repro/indexes/srtree.py",
          "np.maximum(np.abs(p - low), np.abs(p - high))\n")],
        [("src/repro/geometry/rectangle.py",
          "np.maximum(np.maximum(low - p, 0.0), p - high)\n"),
         ("src/repro/indexes/srtree.py", "np.maximum(a, b)\n")],
    ),
}


def _problems(rule: str, path: str, source: str) -> list[str]:
    return getattr(lint, rule)(path, ast.parse(source, filename=path))


def test_every_policy_rule_has_cases():
    rules = {name for name in vars(lint) if name.startswith("check_")}
    assert rules - {"check_file"} == set(CASES)


@pytest.mark.parametrize("rule", sorted(CASES))
def test_rule_flags_the_offending_snippet(rule):
    for path, source in CASES[rule][0]:
        problems = _problems(rule, path, source)
        assert len(problems) == 1, (path, source)
        assert problems[0].startswith(f"{path}:")


@pytest.mark.parametrize("rule", sorted(CASES))
def test_rule_passes_the_allowed_snippet(rule):
    for path, source in CASES[rule][1]:
        assert _problems(rule, path, source) == [], (path, source)


def test_the_policy_pass_runs_every_rule(tmp_path, monkeypatch, capsys):
    offenders = set()
    for index, rule in enumerate(sorted(CASES)):
        path, source = CASES[rule][0][0]
        # One file per rule; a file per rule keeps the findings apart.
        target = Path(path).with_name(f"rule{index}_{Path(path).name}")
        (tmp_path / target).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / target).write_text(source, encoding="utf-8")
        offenders.add(target.as_posix())
    monkeypatch.chdir(tmp_path)
    assert lint.run_policy_pass(["src", "examples"]) == 1
    flagged = {line.split(":", 1)[0]
               for line in capsys.readouterr().out.splitlines()}
    assert flagged == offenders
