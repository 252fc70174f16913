"""``CoalescingScheduler`` against a model of group commit.

A Hypothesis state machine drives the scheduler through generated
interleavings of four events: a ``knn`` or ``range`` request arrives
(on its own thread, with no deadline, one already past, or one far
off), a running call returns (or raises), and ``drain()`` starts (on
its own thread, as ``QueryServer.close()`` calls it).  The served
source is a fake whose every call blocks until the machine releases
it, so each step ends in a state the model predicts exactly: which
calls are running (their kind and their members, in order), who waits,
and who has been answered.  ``MAX_GROUP`` is cut to 3 so groups fill.

The model is the rule itself: an arrival at an idle operation makes the
plain call; one at a busy operation waits; a returning call hands its
operation to the next group — at most ``MAX_GROUP`` waiters, the
expired among them shed at once — which makes one call: the plain call
for one member, the batch call for more.  With nobody waiting, the
operation goes idle.  A drain takes every waiting group at once and
runs them one after another on its own thread.

Checked after every step: the running calls, the waiting count and the
answered requests are the model's.  Checked when every call has
settled: each ``submit`` got exactly one outcome — its serial answer,
the error of the call it was in, or ``CoalescedDeadlineError`` if it
expired while waiting — and no group or busy flag is left.
"""

from __future__ import annotations

import threading
import time

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.net import coalesce
from repro.net.coalesce import CoalescedDeadlineError, CoalescingScheduler

GROUP = 3
SETTLE_S = 5.0


def _answer(op: str, rid: int, param) -> tuple:
    """What serial dispatch answers for request ``rid``."""
    return (op, rid, param)


class _Failed(Exception):
    """What a call the machine releases as failed raises."""


class _Call:
    __slots__ = ("kind", "rids", "params", "gate", "fail")

    def __init__(self, kind, rids, params) -> None:
        self.kind = kind
        self.rids = rids
        self.params = params
        self.gate = threading.Event()
        self.fail = False


class _GatedSource:
    """A source whose every call blocks until it is released."""

    def __init__(self) -> None:
        self.mu = threading.Lock()
        self.running: list[_Call] = []

    def _enter(self, kind, op, points, params):
        call = _Call(kind, tuple(int(p[0]) for p in points), list(params))
        with self.mu:
            self.running.append(call)
        call.gate.wait()
        with self.mu:
            self.running.remove(call)
        if call.fail:
            raise _Failed(kind)
        return [_answer(op, rid, param)
                for rid, param in zip(call.rids, call.params)]

    def knn(self, point, k=1):
        return self._enter("knn", "knn", [point], [k])[0]

    def range(self, point, radius):
        return self._enter("range", "range", [point], [radius])[0]

    def knn_batch(self, points, k=1):
        return self._enter("knn_batch", "knn", points, k.tolist())

    def range_batch(self, points, radius):
        return self._enter("range_batch", "range", points, radius.tolist())

    def signature(self) -> list:
        with self.mu:
            return sorted((c.kind, c.rids) for c in self.running)

    def find(self, kind, rids) -> _Call:
        with self.mu:
            return next(c for c in self.running
                        if (c.kind, c.rids) == (kind, rids))


class SchedulerMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.saved_group = coalesce.MAX_GROUP
        coalesce.MAX_GROUP = GROUP
        self.source = _GatedSource()
        self.sched = CoalescingScheduler(self.source)
        self.threads: list[threading.Thread] = []
        #: rid -> every answer it got.  A list is published whole, under
        #: the lock: the checks read without it, and must never see a
        #: rid whose answer is still being appended.
        self.outcomes: dict[int, list] = {}
        self.outcomes_lock = threading.Lock()
        # The model.
        self.requests: dict[int, tuple] = {}  # rid -> (op, param, expired)
        self.busy: set[str] = set()
        self.waiting: dict[str, list[int]] = {}
        #: (kind, rids) -> what follows its return: ("chain", op) or
        #: ("drain", the groups its drain thread runs after it).
        self.calls: dict[tuple, tuple] = {}
        self.expected: dict[int, tuple] = {}

    # -- the model ---------------------------------------------------------

    def _take(self, op) -> list:
        """The next group of ``op``, the expired among its waiters shed."""
        waiting = self.waiting.get(op, [])
        group = []
        while waiting and not group:
            for rid in waiting[:GROUP]:
                if self.requests[rid][2]:
                    self.expected[rid] = ("shed",)
                else:
                    group.append(rid)
            del waiting[:GROUP]
        if not waiting:
            self.waiting.pop(op, None)
        return group

    def _call(self, op, group, then) -> None:
        kind = op if len(group) == 1 else op + "_batch"
        self.calls[(kind, tuple(group))] = then

    def _after(self, op, then) -> None:
        """What follows a call of ``op`` that returned."""
        if then[0] == "chain":
            group = self._take(op)
            if group:
                self._call(op, group, then)
            else:
                self.busy.discard(op)
        elif then[1]:
            (next_op, group), rest = then[1][0], then[1][1:]
            self._call(next_op, group, ("drain", rest))

    # -- the rules ---------------------------------------------------------

    def _thread(self, target, *args) -> None:
        thread = threading.Thread(target=target, args=args, daemon=True)
        self.threads.append(thread)
        thread.start()

    def _submit(self, rid, op, param, deadline) -> None:
        try:
            got = ("answer", self.sched.submit(
                op, np.array([float(rid), 0.0]), param, deadline))
        except CoalescedDeadlineError:
            got = ("shed",)
        except _Failed:
            got = ("failed",)
        with self.outcomes_lock:
            self.outcomes[rid] = [*self.outcomes.get(rid, ()), got]

    @rule(op=st.sampled_from(["knn", "range"]), k=st.integers(1, 5),
          deadline=st.sampled_from([None, "past", "far"]))
    def arrive(self, op, k, deadline):
        rid = len(self.requests)
        param = k if op == "knn" else k / 4
        self.requests[rid] = (op, param, deadline == "past")
        if op in self.busy:
            self.waiting.setdefault(op, []).append(rid)
        else:
            self.busy.add(op)
            self.calls[(op, (rid,))] = ("chain", op)
        at = {None: None, "past": time.monotonic() - 1.0,
              "far": time.monotonic() + 3600.0}[deadline]
        self._thread(self._submit, rid, op, param, at)
        self._settle()

    @precondition(lambda self: self.calls)
    @rule(data=st.data(), fail=st.booleans())
    def complete(self, data, fail):
        key = data.draw(st.sampled_from(sorted(self.calls)))
        then = self.calls.pop(key)
        kind, rids = key
        for rid in rids:
            op, param, _ = self.requests[rid]
            self.expected[rid] = (("failed",) if fail
                                  else ("answer", _answer(op, rid, param)))
        call = self.source.find(kind, rids)
        call.fail = fail
        call.gate.set()
        self._after(kind.split("_")[0], then)
        self._settle()

    @rule()
    def drain(self):
        groups = []
        for op in list(self.waiting):
            while op in self.waiting:
                groups.append((op, self._take(op)))
        self._after(None, ("drain", [g for g in groups if g[1]]))
        self._thread(self.sched.drain)
        self._settle()

    # -- the checks --------------------------------------------------------

    def _settle(self) -> None:
        """Wait until the scheduler reaches the model's state."""
        want_calls = sorted(self.calls)
        want_pending = sum(len(w) for w in self.waiting.values())
        limit = time.monotonic() + SETTLE_S
        while True:
            got_calls = self.source.signature()
            pending = self.sched.describe()["pending"]
            answered = set(self.outcomes)
            if (got_calls == want_calls and pending == want_pending
                    and answered == set(self.expected)):
                return
            assert time.monotonic() < limit, (
                f"calls {got_calls} != {want_calls}, pending {pending} != "
                f"{want_pending}, answered {sorted(answered)} != "
                f"{sorted(self.expected)}")
            time.sleep(0.0005)

    @invariant()
    def outcomes_are_the_models(self):
        for rid, got in self.outcomes.items():
            assert got == [self.expected[rid]], (rid, got)

    def teardown(self) -> None:
        try:
            while self.calls:
                key = sorted(self.calls)[0]
                then = self.calls.pop(key)
                for rid in key[1]:
                    op, param, _ = self.requests[rid]
                    self.expected[rid] = ("answer", _answer(op, rid, param))
                self.source.find(*key).gate.set()
                self._after(key[0].split("_")[0], then)
                self._settle()
            for thread in self.threads:
                thread.join(timeout=SETTLE_S)
                assert not thread.is_alive()
            # Every submit got exactly one outcome, and the model's.
            assert set(self.outcomes) == set(self.requests)
            self.outcomes_are_the_models()
            stats = self.sched.describe()
            assert (stats["busy"], stats["pending"]) == ([], 0)
        finally:
            for call in list(self.source.running):
                call.gate.set()
            coalesce.MAX_GROUP = self.saved_group


def _budget(examples: int, steps: int) -> settings:
    if settings.get_current_profile_name() == "deep":
        return settings(max_examples=10 * examples,
                        stateful_step_count=2 * steps, deadline=None)
    return settings(max_examples=examples, stateful_step_count=steps,
                    deadline=None)


TestSchedulerMachine = SchedulerMachine.TestCase
TestSchedulerMachine.settings = _budget(40, 30)
