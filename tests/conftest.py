"""Shared fixtures for the test suite."""

from __future__ import annotations

import gc
import os
import threading
import time
from collections import Counter

import numpy as np
import pytest

try:
    from hypothesis import settings
except ImportError:  # CI jobs that run no generated tests lack hypothesis
    pass
else:
    # ``make test-crash`` passes ``--hypothesis-profile=deep``: the model
    # suites that read it (tests/test_node_store_model.py) run a larger
    # budget there than in tier-1.
    settings.register_profile("deep", deadline=None)


_FD_DIR = "/proc/self/fd"


def _new_fds(before: set[str]) -> set[tuple[str, str]]:
    """``(fd, target)`` of every open fd not in ``before``."""
    fds = set()
    for fd in set(os.listdir(_FD_DIR)) - before:
        try:
            fds.add((fd, os.readlink(os.path.join(_FD_DIR, fd))))
        except OSError:  # closed since, like the listdir's own fd
            pass
    return fds


@pytest.fixture(autouse=True)
def no_fd_outlives_its_test():
    """Fail a test that ends holding more file descriptors than it began
    with: a handle nobody closed must give its fd back when collected.

    A clean test costs two ``listdir`` calls.  When the count grew, the
    fixture runs ``gc.collect()`` (cyclic garbage closes its fds) and
    fails if one of the new fds is still open.  It waits for nothing:
    a server's connection threads end before its ``close()`` returns,
    and ``no_thread_outlives_its_test``, torn down first, has already
    waited for every other thread the test started.  Fixtures of a
    wider scope open theirs before this one counts.
    """
    if not os.path.isdir(_FD_DIR):
        yield
        return
    before = set(os.listdir(_FD_DIR))
    yield
    if len(os.listdir(_FD_DIR)) <= len(before):
        return
    gc.collect()
    stuck = _new_fds(before)
    if stuck:
        targets = Counter(target for _fd, target in stuck)
        pytest.fail(f"test left {len(stuck)} more open fd(s) than it "
                    f"began with: {dict(targets)}", pytrace=False)


_TASK_DIR = "/proc/self/task"
#: How long a test's new children may take to exit once it has ended.
_CHILD_SETTLE_S = 2.0


def _children() -> set[int]:
    """Pids of every child of this process, forked by any of its threads
    (a zombie not yet reaped included)."""
    pids: set[int] = set()
    for task in os.listdir(_TASK_DIR):
        try:
            with open(os.path.join(_TASK_DIR, task, "children")) as listed:
                pids.update(map(int, listed.read().split()))
        except OSError:  # the thread ended since the listdir
            pass
    return pids


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as raw:
            words = raw.read().split(b"\0")
    except OSError:
        return "(gone)"
    return b" ".join(words).decode(errors="replace").strip() or "(exited, not reaped)"


@pytest.fixture(autouse=True)
def no_child_outlives_its_test():
    """Fail a test that ends leaving a child process it started: a pool
    nobody closed, a server child nobody waited for.

    A clean test costs two reads of ``/proc/self/task/*/children``.  A
    new child gets up to ``_CHILD_SETTLE_S`` to exit and be reaped (a
    worker told to stop may still be closing its index); one still
    listed then fails the test, named by its command line.  Children
    that existed before the test — a module-scoped server, the resource
    tracker the ``serving_pool`` fixture starts under ``spawn`` — are
    not counted.
    """
    if not os.path.isfile(os.path.join(_TASK_DIR, str(os.getpid()),
                                       "children")):
        yield
        return
    before = _children()
    yield
    stuck = _children() - before
    deadline = time.monotonic() + _CHILD_SETTLE_S
    while stuck and time.monotonic() < deadline:
        time.sleep(0.05)
        stuck &= _children()
    if stuck:
        names = sorted(f"{pid}: {_cmdline(pid)}" for pid in stuck)
        pytest.fail(f"test left {len(stuck)} child process(es) behind: "
                    f"{names}", pytrace=False)


#: How long a test's new threads may take to end once it has ended.
_THREAD_SETTLE_S = 2.0


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test(no_fd_outlives_its_test):
    """Fail a test that ends leaving a thread it started, daemon threads
    included: a server nobody closed, a connection's handler that
    outlived its server's ``close()``.

    A clean test costs two ``threading.enumerate()`` calls.  A new
    thread gets up to ``_THREAD_SETTLE_S`` to end; one still alive then
    fails the test, by name.  Threads that existed before the test — a
    module-scoped server's — are not counted.  It is torn down before
    the fd check, whose fds a thread may still hold.
    """
    before = set(threading.enumerate())
    yield
    stuck = [thread for thread in threading.enumerate()
             if thread not in before]
    deadline = time.monotonic() + _THREAD_SETTLE_S
    while stuck and time.monotonic() < deadline:
        time.sleep(0.05)
        stuck = [thread for thread in stuck if thread.is_alive()]
    if stuck:
        names = sorted(thread.name for thread in stuck)
        pytest.fail(f"test left {len(stuck)} thread(s) running: {names}",
                    pytrace=False)


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for test data."""
    return np.random.default_rng(20250706)


@pytest.fixture
def small_cloud(rng) -> np.ndarray:
    """300 points, 8-dimensional, in the unit cube."""
    return rng.random((300, 8))


@pytest.fixture
def tiny_cloud(rng) -> np.ndarray:
    """40 points, 4-dimensional — small enough for exhaustive checks."""
    return rng.random((40, 4))


@pytest.fixture(scope="session")
def serving_pool():
    """Build a ``ServingPool``: ``serving_pool(path, workers=2, ...)``.

    Every pool a test builds comes from here, so its workers start by
    ``fork`` (fast) unless ``REPRO_MP_START_METHOD`` names another
    method: ``make test-mp`` sets it to ``spawn``, the portable default.
    """
    from repro.exec import ServingPool

    method = os.environ.get("REPRO_MP_START_METHOD", "fork")
    if method != "fork":
        # Such a pool starts multiprocessing's resource tracker, whose
        # pipe then stays open for the life of this process: start it
        # before the first test counts its fds.
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()

    def build(source, **kwargs):
        return ServingPool(source, start_method=method, **kwargs)

    return build
