"""Where a number came from: the environment stamp; memory, CPU-time and fsync
probes; and the sweep that leaves no process behind."""

from __future__ import annotations

import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

_TICKS_PER_SECOND = os.sysconf("SC_CLK_TCK")  # unit of /proc/<pid>/stat times


def git_sha(root: Path) -> str:
    """The checkout's commit, or ``"unknown"`` outside a git repository."""
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=5)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def fsync_probe(directory: Path, rounds: int = 20) -> dict:
    """Median cost of an 8 KiB write + fsync, and of the write alone.

    A file system that ignores fsync shows the two within noise of each
    other; the stamp records both so WAL latencies can be read honestly.
    """
    path = directory / "fsync_probe.bin"
    block = b"\0" * 8192
    with_sync, without = [], []
    fd = os.open(path, os.O_CREAT | os.O_WRONLY, 0o600)
    try:
        for _ in range(rounds):
            began = time.perf_counter()
            os.write(fd, block)
            without.append(time.perf_counter() - began)
            began = time.perf_counter()
            os.write(fd, block)
            os.fsync(fd)
            with_sync.append(time.perf_counter() - began)
    finally:
        os.close(fd)
        path.unlink()
    plain_us = float(np.median(without)) * 1e6
    synced_us = float(np.median(with_sync)) * 1e6
    return {"write_us": plain_us, "write_fsync_us": synced_us,
            "fsync_measurable": synced_us > 2.0 * plain_us + 5.0}


def peak_rss_mb(child_pids=()) -> float:
    """Peak resident set of this process plus each live child, in MB."""
    total_kb = _status_kb(os.getpid(), "VmHWM")
    for pid in child_pids:
        total_kb += _status_kb(pid, "VmHWM")
    return total_kb / 1024.0


def cpu_seconds(child_pids=()) -> float:
    """CPU time (user + system, every thread) this process and each live child
    have used so far.

    Unlike wall-clock time it does not count the time a neighbour on a shared
    box kept the benchmark off the processor.  Children are read from
    ``/proc/<pid>/stat`` in clock ticks (10 ms), which a window of seconds
    resolves to a thousandth.
    """
    total = time.process_time()
    for pid in child_pids:
        try:
            with open(f"/proc/{pid}/stat") as stat:
                # the command name may hold spaces; fields count from its ")"
                fields = stat.read().rpartition(")")[2].split()
        except OSError:
            continue  # the child died; its operations are counted as failed
        total += (int(fields[11]) + int(fields[12])) / _TICKS_PER_SECOND
    return total


def live_children() -> list:
    """Pids of this process's direct children nobody has waited for yet."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rpartition(")")[2].split()
        except OSError:
            continue  # ended between the listing and the read
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def stop_children(grace: float = 10.0) -> list:
    """Stop every process this one started and wait until each has ended.

    ``ServingPool``'s ``spawn`` workers bring up ``multiprocessing``'s resource
    tracker, which otherwise ends only *after* this process does -- a process
    left running, as the benchmark driver sees it.  The tracker ends when its
    pipe is closed.  Anything else still alive (a path out that skipped a
    ``close()``) gets SIGTERM, then SIGKILL.  Returns the pids it had to signal.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    pid, fd = getattr(tracker, "_pid", None), getattr(tracker, "_fd", None)
    if fd is not None:
        os.close(fd)  # EOF on the tracker's end of the pipe: it cleans up and exits
        tracker._fd = tracker._pid = None
        if pid is not None:
            _reap(pid, grace)
    signalled = []
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for child in live_children():
            if _reap(child, 0.0):
                continue  # had ended already and only wanted waiting for
            signalled.append(child)
            try:
                os.kill(child, sig)
            except ProcessLookupError:
                pass
            _reap(child, grace)
    return signalled


def _reap(pid: int, grace: float) -> bool:
    """Wait up to ``grace`` seconds for child ``pid``; True once it has ended."""
    deadline = time.monotonic() + grace
    while True:
        try:
            done, _ = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            return True  # a Popen or Process object waited for it already
        if done or time.monotonic() >= deadline:
            return bool(done)
        time.sleep(0.01)


def _status_kb(pid: int, field: str) -> float:
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith(field + ":"):
                    return float(line.split()[1])
    except OSError:
        pass
    return 0.0


def stamp(root: Path) -> dict:
    """Everything about the machine and build a later reader would have to guess."""
    return {
        "git_sha": git_sha(root),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
    }
