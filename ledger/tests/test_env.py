"""CPU time of the generator and its live children, as cpu_ms_per_op reads it;
and the sweep that leaves no child process behind."""

import os
import subprocess
import sys
import time
from multiprocessing import resource_tracker

from ledger.env import cpu_seconds, live_children, stop_children

BURN = ("import time\n"
        "while time.process_time() < 0.3: pass\n"
        "print('burnt', flush=True)\n"
        "time.sleep(60)\n")


def test_cpu_seconds_counts_this_process_and_live_children():
    child = subprocess.Popen([sys.executable, "-c", BURN], stdout=subprocess.PIPE, text=True)
    try:
        assert child.stdout.readline().strip() == "burnt"
        own = cpu_seconds()
        with_child = cpu_seconds([child.pid])
        assert 0.25 <= with_child - own < 5.0  # the child's 0.3 s, in 10 ms ticks
        began = time.process_time()
        while time.process_time() - began < 0.05:
            pass
        assert cpu_seconds() - own >= 0.05
    finally:
        child.kill()
        child.wait()
        child.stdout.close()
    # a child that is gone adds nothing; its operations count as failed elsewhere
    assert cpu_seconds([child.pid]) - cpu_seconds() < 0.05


def _gone(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def test_stop_children_ends_the_resource_tracker_and_stragglers():
    resource_tracker.ensure_running()  # what ServingPool's spawn workers bring up
    tracker = resource_tracker._resource_tracker._pid
    straggler = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    finished = subprocess.Popen([sys.executable, "-c", "pass"])
    finished.wait()
    assert {tracker, straggler.pid} <= set(live_children())
    signalled = stop_children()
    assert signalled == [straggler.pid]  # the tracker leaves by itself, unsignalled
    assert _gone(tracker) and _gone(straggler.pid)
    assert live_children() == []
    assert stop_children() == []  # nothing left: a second sweep is a no-op
