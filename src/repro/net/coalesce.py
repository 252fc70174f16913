"""Group commit for the query server's point queries.

:class:`CoalescingScheduler` sits between :class:`~repro.net.QueryServer`'s
admission control and the served handle, and every admitted ``knn`` and
``range`` request goes through it.  There is one rule and no clock:

* A request that finds its operation **idle** marks it busy and runs at
  once, on its own thread, as the plain ``source.knn`` /
  ``source.range`` call: the one depth-first engine on a block of one,
  so a lone request reads the pages and gets the answer it would
  without a server.
* A request that arrives while a call of its operation **runs** joins
  that operation's next group and waits.
* When the running call returns, the group (at most :data:`MAX_GROUP`
  members, in arrival order) is handed to its first member's thread,
  which runs it as one ``knn_batch`` / ``range_batch`` with a ``k`` or
  radius per member, scatters the answers and hands on in turn.  A
  group of one makes the plain call.  The operation goes idle only when
  a call returns and nobody is waiting.

This is group commit applied to queries: the batch size adapts to the
load with no timer — under concurrency one traversal absorbs every
request that arrived during the previous one, and without it nobody
waits.  The batch engine takes per-query ``k``/``radius``
(:mod:`repro.exec.batch`), so its answers are bit-equal to serial
dispatch.

A member whose deadline has passed when its group runs is shed alone
(:class:`CoalescedDeadlineError`, which the server answers with the
same 504 and ``repro_shed_requests_total{reason="deadline"}`` as a
pre-dispatch shed); the rest of the group runs.  ``drain()`` (wired
into ``QueryServer.close()``) runs every waiting group at once instead
of behind the running call.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from ..obs.events import DEBUG, EVENTS
from ..obs.hooks import on_net_batch_flush

__all__ = ["CoalescingScheduler", "CoalescedDeadlineError", "MAX_GROUP"]

#: The most members one batched call carries; later arrivals wait for
#: the next hand-off.
MAX_GROUP = 32


class CoalescedDeadlineError(Exception):
    """A grouped request's deadline expired before its group ran.

    Raised to the submitting (server handler) thread only; the rest of
    the group is unaffected.  The query was **not** executed.
    """


class _Pending:
    """One waiting request: its inputs, wait event and outcome."""

    __slots__ = ("point", "param", "deadline", "joined", "event", "result",
                 "error", "lead")

    def __init__(self, point, param, deadline) -> None:
        self.point = point
        self.param = param
        self.deadline = deadline
        self.joined = time.monotonic()
        self.event = threading.Event()
        self.result = None
        self.error: BaseException | None = None
        #: The group this member's thread must run, when handed one.
        self.lead: list[_Pending] | None = None


class CoalescingScheduler:
    """Run a point query at once, or in one call with those that queued.

    Parameters
    ----------
    source:
        The served :class:`~repro.api.QuerySurface` handle.  Must
        expose ``knn``/``knn_batch``/``range``/``range_batch``; the
        batch entry points must accept per-query ``k``/``radius``
        arrays (every in-tree handle does).
    call_kwargs:
        ``deadline -> dict`` of extra keywords for a call on ``source``
        that must finish by ``deadline`` (the server's rule for handing
        a pool the remaining budget as ``timeout=``; the default passes
        nothing).  A group is called with the *largest* deadline among
        its members, so one short deadline cannot lose its
        groupmates' shards.
    """

    def __init__(self, source, *, call_kwargs=lambda deadline: {}) -> None:
        self._source = source
        self._call_kwargs = call_kwargs
        self._mu = threading.Lock()
        #: Operations with a call running; a busy op's arrivals wait.
        self._busy: set[str] = set()
        #: Waiting members per busy operation, in arrival order.
        self._waiting: dict[str, list[_Pending]] = {}
        self._solo = 0
        self._flushes = 0
        self._coalesced = 0
        self._shed_deadline = 0
        self._largest_batch = 0

    def submit(self, op: str, point: np.ndarray, param, deadline):
        """Answer one checked request; blocks while its operation is busy.

        ``op`` is ``"knn"`` (``param`` = k) or ``"range"`` (``param`` =
        radius); ``deadline`` is an absolute ``time.monotonic()``
        instant or ``None``.  Returns the request's own neighbor list,
        or raises whatever its execution raised —
        :class:`CoalescedDeadlineError` when its deadline expired while
        it waited.
        """
        with self._mu:
            if op not in self._busy:
                self._busy.add(op)
                self._solo += 1
                pending = None
            else:
                pending = _Pending(point, param, deadline)
                self._waiting.setdefault(op, []).append(pending)
        if pending is None:
            try:
                return self._call(op, point, param, deadline)
            finally:
                self._hand_off(op)
        pending.event.wait()
        if pending.lead is not None:
            try:
                self._run(op, pending.lead)
            finally:
                self._hand_off(op)
        if pending.error is not None:
            raise pending.error
        return pending.result

    def _call(self, op: str, point, param, deadline):
        """The plain single-query call, as a server without groups makes."""
        kwargs = self._call_kwargs(deadline)
        if op == "knn":
            return self._source.knn(point, k=param, **kwargs)
        return self._source.range(point, param, **kwargs)

    def _take(self, op: str) -> list[_Pending]:
        """Pop ``op``'s next group; the caller holds ``_mu``.

        Up to :data:`MAX_GROUP` waiters in arrival order, less those
        whose deadline has passed: they are shed here, at once, and the
        group refills from the waiters behind them.
        """
        waiting = self._waiting.get(op, [])
        group: list[_Pending] = []
        while waiting and not group:
            now = time.monotonic()
            for member in waiting[:MAX_GROUP]:
                if member.deadline is None or now < member.deadline:
                    group.append(member)
                    continue
                self._shed_deadline += 1
                member.error = CoalescedDeadlineError(
                    f"deadline expired after {now - member.joined:.3f}s "
                    f"waiting behind a running {op} call")
                member.event.set()
            del waiting[:MAX_GROUP]
        if not waiting:
            self._waiting.pop(op, None)
        return group

    def _hand_off(self, op: str) -> None:
        """A call of ``op`` returned: pass the op to its next group."""
        with self._mu:
            group = self._take(op)
            if not group:
                self._busy.discard(op)
                return
        group[0].lead = group
        group[0].event.set()

    def _run(self, op: str, group: list[_Pending]) -> None:
        """Answer a group in one call and wake each member."""
        queue_delay = time.monotonic() - group[0].joined
        coalesced = len(group) if len(group) > 1 else 0
        with self._mu:
            self._flushes += 1
            self._largest_batch = max(self._largest_batch, len(group))
            self._coalesced += coalesced
        try:
            if len(group) == 1:
                member = group[0]
                member.result = self._call(op, member.point, member.param,
                                           member.deadline)
            else:
                kwargs = self._call_kwargs(max(
                    (m.deadline for m in group if m.deadline is not None),
                    default=None))
                points = np.stack([m.point for m in group])
                if op == "knn":
                    ks = np.asarray([m.param for m in group], dtype=np.int64)
                    results = self._source.knn_batch(points, k=ks, **kwargs)
                else:
                    radii = np.asarray([m.param for m in group],
                                       dtype=np.float64)
                    results = self._source.range_batch(points, radii,
                                                       **kwargs)
                for member, result in zip(group, results):
                    member.result = result
        except BaseException as exc:
            for member in group:
                member.error = exc
        for member in group:
            member.event.set()
        on_net_batch_flush(op, len(group), queue_delay, coalesced)
        if EVENTS.enabled_for(DEBUG):
            EVENTS.emit("net_batch_flush", level=DEBUG, op=op,
                        size=len(group), queue_delay_ms=queue_delay * 1e3)

    def drain(self) -> None:
        """Run every waiting group now, on this thread.

        Called by ``QueryServer.close()`` after admission starts
        draining: the waiting members hold admission slots, and they
        need not wait out the running calls before ``wait_idle``.
        Later arrivals go the usual way.  Idempotent.
        """
        groups = []
        with self._mu:
            for op in list(self._waiting):
                while op in self._waiting:
                    groups.append((op, self._take(op)))
        for op, group in groups:
            if group:
                self._run(op, group)

    def describe(self) -> dict:
        """Live counters for ``/v1/server`` and /varz-style surfaces."""
        with self._mu:
            return {
                "max_group": MAX_GROUP,
                "busy": sorted(self._busy),
                "pending": sum(len(w) for w in self._waiting.values()),
                "solo": self._solo,
                "flushes": self._flushes,
                "coalesced": self._coalesced,
                "shed_deadline": self._shed_deadline,
                "largest_batch": self._largest_batch,
            }
