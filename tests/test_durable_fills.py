"""Fills under a write-ahead log are transactions, so they survive a kill.

The static tree's build (``vamsplit``, through ``insert_many``) and
``bulk_load`` each commit as one transaction.  Each case fills a file
under a log in another process, which then dies without a ``flush()``
or ``close()`` (``os._exit``, or SIGKILL for a server), and reopens the
file here: it must hold every acknowledged point, pass its invariant
checks, and answer k-NN like a brute-force scan.  A kill in the middle
of a build's transaction, before its COMMIT, must reopen as the empty
tree the log committed at ``Database.create``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro import Database
from repro.exceptions import CrashError
from repro.net import RemoteDatabase
from repro.storage import FaultPlan

from .test_crash_recovery import _flush_crashed_handles

DIMS = 8
N = 3000
SEED = 32
K = 5
SRC = str(Path(__file__).resolve().parents[1] / "src")
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")])), PYTHONUNBUFFERED="1")


def _points() -> np.ndarray:
    return np.random.default_rng(SEED).random((N, DIMS))


def _child(script: str) -> None:
    """Run ``script`` (``path``, ``points`` and ``np`` bound) in a new
    process that ends in ``os._exit(0)``: no flush, no close."""
    prelude = (f"import os\nimport numpy as np\nimport repro\n"
               f"points = np.random.default_rng({SEED}).random(({N}, {DIMS}))\n")
    body = prelude + textwrap.dedent(script) + "\nos._exit(0)\n"
    result = subprocess.run([sys.executable, "-c", body], env=ENV,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


def _check_reopened(path: str, points: np.ndarray) -> None:
    with Database.open(path) as db:
        assert db.durability == "wal"
        assert db.size == len(points)
        db.verify()
        for row in (0, 17, len(points) - 1):
            query = points[row] + 0.01
            want = np.sort(np.linalg.norm(points - query, axis=1))[:K]
            got = [n.distance for n in db.knn(query, k=K)]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_a_static_build_survives_a_kill_before_flush(tmp_path):
    path = str(tmp_path / "vam.db")
    _child(f"""
        db = repro.Database.create({path!r}, kind="vamsplit", dims={DIMS},
                                   durability="wal")
        assert db.insert_many(points) == {N}
    """)
    _check_reopened(path, _points())


def test_a_bulk_load_survives_a_kill_before_flush(tmp_path):
    path = str(tmp_path / "sr.db")
    _child(f"""
        db = repro.Database.create({path!r}, kind="sr", dims={DIMS},
                                   durability="wal")
        repro.bulk_load(db.index, points)
        assert db.size == {N}
    """)
    _check_reopened(path, _points())


def test_a_remote_static_build_survives_a_server_kill(tmp_path):
    path = str(tmp_path / "served.db")
    with Database.create(path, kind="vamsplit", dims=DIMS, durability="wal"):
        pass
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--index", path,
         "--port", "0", "--token", "fill"],
        env=ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        banner = server.stdout.readline()
        assert " at http://" in banner, banner + server.stderr.read()
        address = banner.split(" at http://")[1].split("/v1")[0]
        with RemoteDatabase.connect(address, token="fill") as remote:
            assert remote.insert_many(_points()) == N
    finally:
        server.kill()  # SIGKILL: the acknowledged build must be in the log
        server.communicate(timeout=60)
    _check_reopened(path, _points())


def test_a_kill_mid_build_reopens_as_the_empty_tree(tmp_path):
    """The budget runs out halfway through the bytes the build's
    transaction logs, measured on an uncrashed run: before its COMMIT."""
    points = _points()
    probe, path = str(tmp_path / "probe.db"), str(tmp_path / "killed.db")
    with Database.create(probe, kind="vamsplit", dims=DIMS, durability="wal",
                         fault_plan=FaultPlan()) as db:
        logged = db.index.store.wal.size()
        db.insert_many(points)
        logged = db.index.store.wal.size() - logged
    plan = FaultPlan()
    db = Database.create(path, kind="vamsplit", dims=DIMS, durability="wal",
                         fault_plan=plan)
    plan.write_budget = plan.bytes_written + logged // 2
    with pytest.raises(CrashError):
        db.insert_many(points)
    _flush_crashed_handles(db)
    with Database.open(path) as db:
        assert db.durability == "wal"
        assert db.size == 0
        db.verify()
        assert db.range(points[0], 100.0) == []
