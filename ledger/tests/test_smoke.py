"""Every workload end to end at 1/20 size (about 20 s): a later PR can wire it into CI."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

from ledger import spec

ROOT = Path(__file__).resolve().parents[2]


def test_smoke_runs_every_workload_and_checks_every_answer():
    done = subprocess.run([sys.executable, str(ROOT / "ledger" / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    summary = json.loads(done.stdout.splitlines()[-1])
    assert list(summary)[-1] == "claim" and summary["claim"] is None
    assert summary["fail_ratio_zero"] and not summary["problems"]
    assert list(summary["workloads"]) == list(spec.WORKLOADS)
    for rows in summary["workloads"].values():
        assert set(rows) == {name for name, *_ in spec.END_TO_END}
        assert all(row["median"] > 0 for row in rows.values())


def test_traced_smoke_attributes_the_call_to_layers():
    done = subprocess.run(
        [sys.executable, str(ROOT / "ledger" / "run.py"), "--smoke", "--trace", "1",
         "--workload", "cluster_mixed_wal"],
        capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = {name: body["value"] for name, body in result["metrics"].items()}
    assert set(metrics) == {name for name, *_ in spec.PER_LAYER}
    assert metrics["ledger.span_coverage"] >= 0.8
    assert metrics["storage.wal_commit_ms_per_insert"] > 0
    assert metrics["indexes.insert_self_ms"] > 0
    assert metrics["net.wire_ms"] == 0 and metrics["exec.pool_spawn_s"] == 0


def _session_members(session: int) -> list:
    """Command lines of the processes of ``session`` that are still running."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rpartition(")")[2].split()
            if int(fields[3]) == session and fields[0] != "Z":
                with open(f"/proc/{entry}/cmdline") as cmdline:
                    found.append(cmdline.read().replace("\0", " "))
        except OSError:
            continue
    return found


def test_no_process_outlives_a_pool_run(tmp_path):
    # As the driver looks: output to a file (a pipe would wait for the straggler
    # to close it) and a look at the process table the moment the command exits.
    # multiprocessing's resource tracker used to be there for a few milliseconds.
    with open(tmp_path / "stdout", "w") as stdout:
        run = subprocess.Popen(
            [sys.executable, str(ROOT / "ledger" / "run.py"), "--smoke",
             "--workload", "uniform_pool"],
            stdout=stdout, stderr=subprocess.DEVNULL, start_new_session=True)
        watchdog = threading.Timer(170, run.kill)
        watchdog.start()
        try:
            # wait() without a timeout blocks in waitpid; with one it polls every
            # 50 ms, long enough for the tracker to have gone by itself.
            assert run.wait() == 0
            assert _session_members(run.pid) == []
        finally:
            watchdog.cancel()
