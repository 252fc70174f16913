"""Deadline-aware dynamic micro-batching for the query server.

:class:`CoalescingScheduler` sits between :class:`~repro.net.QueryServer`'s
admission control and the served handle.  Instead of dispatching every
admitted ``knn``/``range`` request on its own, requests are enqueued
into one group per operation and flushed as a *single* batched
traversal (``knn_batch`` / ``range_batch``), whose per-query results
are scattered back to the waiting connection threads.  The batch
engine accepts heterogeneous per-query ``k``/``radius``
(:mod:`repro.exec.batch`), so every concurrent request of one
operation shares one traversal regardless of its parameters — and the
results are bit-equal to individual dispatch by construction.

A group flushes when the first of three clocks fires:

* **full** — the group reached ``max_batch`` members; the request
  that filled it executes the batch on its own thread immediately.
* **timer** — ``batch_delay`` elapsed since the group was opened.
* **deadline** — the earliest ``X-Repro-Deadline-Ms`` among the
  members would expire before the timer; the flush is pulled forward
  so no request misses its budget *because of* coalescing.

Execution is serialized **per operation**: while a ``knn`` batch is
running, newly arriving ``knn`` requests accumulate in the next group
and flush the moment the running batch finishes (the clocks above only
govern how long an *idle* operation waits for company).  This is what
makes the batch size adaptive — under sustained concurrency one
traversal absorbs every request that arrived during the previous one,
instead of the timer fragmenting the stream into interleaved
micro-batches that fight for the interpreter.

On flush, members whose deadline has already expired are shed
individually (:class:`CoalescedDeadlineError`, which the server maps
to the same 504 + ``repro_shed_requests_total{reason="deadline"}``
accounting as a pre-dispatch shed) — the rest of the batch executes
unaffected.

Timer/deadline flushes are detected by a dedicated flusher thread,
which *delegates* execution to the first waiting member's (admitted)
HTTP thread — the flusher only watches clocks, so one slow batch never
delays the other operation's flushes.  ``drain()`` (wired into
``QueryServer.close()``) flushes every pending group immediately and
routes later submissions to solo execution, so in-flight batches
always finish on SIGTERM.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from ..obs.events import DEBUG, EVENTS
from ..obs.hooks import on_net_batch_flush

__all__ = ["CoalescingScheduler", "CoalescedDeadlineError"]

#: Extra slack on the waiters' failsafe timeout beyond the batch delay.
#: A waiter whose event never fires (a bug, never expected) falls back
#: to solo execution instead of hanging its connection forever.
_FAILSAFE_EXTRA_S = 30.0


class CoalescedDeadlineError(Exception):
    """A batched request's deadline expired before its group executed.

    Raised to the submitting (server handler) thread only; the rest of
    the batch is unaffected.  The query was **not** executed.
    """


class _Pending:
    """One waiting request: its inputs, wait event, and outcome."""

    __slots__ = ("point", "param", "deadline", "event", "result", "error",
                 "lead")

    def __init__(self, point, param, deadline) -> None:
        self.point = point
        self.param = param
        self.deadline = deadline
        self.event = threading.Event()
        self.result = None
        self.error: BaseException | None = None
        #: Set by the flusher to delegate a due batch's execution to
        #: this member's thread.
        self.lead: _Batch | None = None


class _Group:
    """An open batch of same-operation requests awaiting a flush."""

    __slots__ = ("op", "members", "created", "flush_at", "trigger",
                 "deadline_at")

    def __init__(self, op: str, delay_s: float) -> None:
        self.op = op
        self.members: list[_Pending] = []
        self.created = time.monotonic()
        self.flush_at = self.created + delay_s
        self.trigger = "timer"
        #: Earliest member deadline; caps every later flush clock.
        self.deadline_at: float | None = None


class _Batch:
    """A flushed unit of work: up to ``max_batch`` members of one group."""

    __slots__ = ("op", "members", "created", "trigger")

    def __init__(self, op: str, members: list[_Pending], created: float,
                 trigger: str) -> None:
        self.op = op
        self.members = members
        self.created = created
        self.trigger = trigger


class CoalescingScheduler:
    """Coalesce concurrent point queries into shared batched traversals.

    Parameters
    ----------
    source:
        The served :class:`~repro.api.QuerySurface` handle.  Must
        expose ``knn``/``knn_batch``/``range``/``range_batch``; the
        batch entry points must accept per-query ``k``/``radius``
        arrays (every in-tree handle does).
    batch_delay_s:
        How long the first request of a group waits for company before
        the group flushes.  Must be positive — a server with
        ``batch_delay_ms=0`` must not construct a scheduler at all
        (the off path stays byte-identical to direct dispatch).
    max_batch:
        Flush immediately once a group holds this many requests.
    call_kwargs:
        ``deadline -> dict`` of extra keywords for a call on ``source``
        that must finish by ``deadline`` (the server's rule for handing
        a pool the remaining budget as ``timeout=``; the default passes
        nothing).  A batch is called with the *largest* deadline among
        its members, so one short deadline cannot lose its
        batchmates' shards.
    """

    def __init__(self, source, *, batch_delay_s: float, max_batch: int,
                 call_kwargs=lambda deadline: {}) -> None:
        if batch_delay_s <= 0:
            raise ValueError(
                f"batch_delay_s must be positive, got {batch_delay_s}")
        if max_batch < 2:
            raise ValueError(f"max_batch must be >= 2, got {max_batch}")
        self._source = source
        self._delay_s = float(batch_delay_s)
        self._max_batch = int(max_batch)
        self._call_kwargs = call_kwargs
        self._cv = threading.Condition()
        self._groups: dict[str, _Group] = {}
        #: Operations with a batch currently executing; their groups
        #: accumulate and flush when the running batch finishes.
        self._busy: set[str] = set()
        self._draining = False
        self._stopped = False
        self._flushes = 0
        self._coalesced = 0
        self._shed_deadline = 0
        self._largest_batch = 0
        self._triggers = {"full": 0, "timer": 0, "deadline": 0, "drain": 0}
        self._flusher = threading.Thread(
            target=self._flush_loop, name="repro-batch-flusher", daemon=True)
        self._flusher.start()

    # ------------------------------------------------------------------
    # submission

    def submit(self, op: str, point: np.ndarray, param, deadline):
        """Enqueue one request; blocks until its group flushes.

        ``op`` is ``"knn"`` (``param`` = k) or ``"range"`` (``param`` =
        radius); ``deadline`` is an absolute ``time.monotonic()``
        instant or ``None``.  Returns the request's own neighbor list,
        or raises whatever its execution raised —
        :class:`CoalescedDeadlineError` when its deadline expired while
        batched.
        """
        pending = _Pending(point, param, deadline)
        lead_batch: _Batch | None = None
        with self._cv:
            if self._draining:
                solo = True
            else:
                solo = False
                group = self._groups.get(op)
                wake = group is None
                if group is None:
                    group = _Group(op, self._delay_s)
                    self._groups[op] = group
                group.members.append(pending)
                if deadline is not None and (group.deadline_at is None
                                             or deadline < group.deadline_at):
                    group.deadline_at = deadline
                    if deadline < group.flush_at:
                        group.flush_at = deadline
                        group.trigger = "deadline"
                        wake = True
                if (len(group.members) >= self._max_batch
                        and op not in self._busy):
                    # The filler leads: take the batch and execute it on
                    # this (admitted) thread without waiting for the
                    # flusher to wake.  While the op is busy, the group
                    # keeps accumulating instead — the running batch's
                    # leader hands it to the flusher when it finishes.
                    lead_batch = self._take_locked(op, "full")
                elif wake and op not in self._busy:
                    # Wake the flusher only when its current sleep is
                    # stale: a new group, or a deadline that pulled this
                    # group's clock earlier.  Appends to an open group
                    # are already covered by the scheduled wait (and a
                    # busy op's group is flushed on busy-clear, not by
                    # the flusher's clock).
                    self._cv.notify_all()
        if solo:
            return self._run_solo(op, point, param, deadline)
        if lead_batch is not None:
            self._execute(lead_batch)
        elif not pending.event.wait(self._delay_s * 2 + _FAILSAFE_EXTRA_S):
            with self._cv:
                group = self._groups.get(op)
                abandoned = group is not None and pending in group.members
                if abandoned:
                    group.members.remove(pending)
                    if not group.members:
                        del self._groups[op]
            if abandoned:  # pragma: no cover - failsafe, never expected
                return self._run_solo(op, point, param, deadline)
            # A flush owns this request; its event is imminent.
            pending.event.wait()
        if pending.lead is not None:
            # The flusher delegated a whole batch to this thread.
            self._execute(pending.lead)
        if pending.error is not None:
            raise pending.error
        return pending.result

    def _take_locked(self, op: str, trigger: str) -> _Batch:
        """Pop up to ``max_batch`` members of ``op``'s group as a batch.

        Caller holds ``self._cv``.  Marks the operation busy; any
        members beyond ``max_batch`` stay queued (their group is
        already due, so they flush as soon as this batch finishes).
        """
        group = self._groups[op]
        members = group.members[:self._max_batch]
        del group.members[:self._max_batch]
        if not group.members:
            del self._groups[op]
        self._busy.add(op)
        return _Batch(op, members, group.created, trigger)

    def _run_solo(self, op: str, point, param, deadline):
        """Direct dispatch (used while draining and by the failsafe)."""
        kwargs = self._call_kwargs(deadline)
        if op == "knn":
            return self._source.knn(point, k=param, **kwargs)
        return self._source.range(point, param, **kwargs)

    # ------------------------------------------------------------------
    # flushing

    def _flush_loop(self) -> None:
        while True:
            due: list[_Batch] = []
            with self._cv:
                while not self._stopped:
                    now = time.monotonic()
                    ready = [
                        op for op, g in self._groups.items()
                        if op not in self._busy
                        and (g.flush_at <= now
                             or len(g.members) >= self._max_batch)
                    ]
                    if ready:
                        break
                    waits = [g.flush_at - now
                             for op, g in self._groups.items()
                             if op not in self._busy]
                    # No idle due group: sleep until the next idle
                    # group's clock, or until a submit/busy-clear
                    # notifies us to re-evaluate.
                    self._cv.wait(min(waits) if waits else None)
                if self._stopped:
                    return
                for op in ready:
                    group = self._groups[op]
                    trigger = (group.trigger if group.flush_at <= now
                               else "full")
                    due.append(self._take_locked(op, trigger))
            for batch in due:
                # Delegate execution to the first waiter's thread: the
                # flusher only watches clocks, so a slow knn batch can
                # never delay a due range flush (and vice versa).
                leader = batch.members[0]
                leader.lead = batch
                leader.event.set()

    def _execute(self, batch: _Batch) -> None:
        """Run one flushed batch and scatter results to its members."""
        try:
            self._execute_inner(batch)
        finally:
            with self._cv:
                self._busy.discard(batch.op)
                group = self._groups.get(batch.op)
                if (group is not None
                        and len(group.members) < self._max_batch):
                    # Grace window: the clients this batch just answered
                    # have their next requests in flight.  The group
                    # went overdue while we executed; instead of
                    # flushing it part-filled the instant the op goes
                    # idle, give stragglers one fresh delay to join.
                    fresh = time.monotonic() + self._delay_s
                    if (group.deadline_at is not None
                            and group.deadline_at < fresh):
                        group.flush_at = group.deadline_at
                        group.trigger = "deadline"
                    else:
                        group.flush_at = fresh
                        group.trigger = "timer"
                # Wake the flusher: requests that accumulated while
                # this batch ran flush as soon as their clock allows.
                self._cv.notify_all()

    def _execute_inner(self, batch: _Batch) -> None:
        now = time.monotonic()
        survivors: list[_Pending] = []
        for member in batch.members:
            if member.deadline is not None and now >= member.deadline:
                member.error = CoalescedDeadlineError(
                    f"deadline expired after {now - batch.created:.3f}s "
                    f"in a {batch.op} batch")
                member.event.set()
            else:
                survivors.append(member)
        queue_delay = now - batch.created
        coalesced = len(batch.members) > 1
        with self._cv:
            self._flushes += 1
            self._triggers[batch.trigger] += 1
            self._shed_deadline += len(batch.members) - len(survivors)
            self._largest_batch = max(self._largest_batch,
                                      len(batch.members))
            if coalesced:
                self._coalesced += len(survivors)
        if survivors:
            kwargs = self._call_kwargs(max(
                (m.deadline for m in survivors if m.deadline is not None),
                default=None))
            try:
                points = np.stack([m.point for m in survivors])
                if batch.op == "knn":
                    ks = np.asarray([m.param for m in survivors],
                                    dtype=np.int64)
                    results = self._source.knn_batch(points, k=ks, **kwargs)
                else:
                    radii = np.asarray([m.param for m in survivors],
                                       dtype=np.float64)
                    results = self._source.range_batch(points, radii,
                                                       **kwargs)
            except BaseException as exc:
                for member in survivors:
                    member.error = exc
                    member.event.set()
            else:
                for member, result in zip(survivors, results):
                    member.result = result
                    member.event.set()
        on_net_batch_flush(batch.op, len(survivors), queue_delay,
                           len(survivors) if coalesced else 0)
        if EVENTS.enabled_for(DEBUG):
            EVENTS.emit("net_batch_flush", level=DEBUG, op=batch.op,
                        size=len(survivors),
                        shed=len(batch.members) - len(survivors),
                        queue_delay_ms=queue_delay * 1e3,
                        trigger=batch.trigger)

    # ------------------------------------------------------------------
    # lifecycle / introspection

    def drain(self) -> None:
        """Flush every pending group now; later submissions run solo.

        Called by ``QueryServer.close()`` after admission starts
        draining: the waiting members already hold admission slots, so
        they must finish (not be dropped) before the server's
        ``wait_idle``.  Idempotent.
        """
        batches: list[_Batch] = []
        with self._cv:
            self._draining = True
            self._stopped = True
            for group in self._groups.values():
                for start in range(0, len(group.members), self._max_batch):
                    batches.append(_Batch(
                        group.op,
                        group.members[start:start + self._max_batch],
                        group.created, "drain"))
            self._groups.clear()
            self._cv.notify_all()
        for batch in batches:
            self._execute(batch)
        if self._flusher.is_alive():
            self._flusher.join(timeout=5.0)

    close = drain

    def describe(self) -> dict:
        """Live counters for ``/v1/server`` and /varz-style surfaces."""
        with self._cv:
            return {
                "batch_delay_ms": self._delay_s * 1e3,
                "max_batch": self._max_batch,
                "pending": sum(len(g.members)
                               for g in self._groups.values()),
                "flushes": self._flushes,
                "coalesced": self._coalesced,
                "shed_deadline": self._shed_deadline,
                "largest_batch": self._largest_batch,
                "triggers": dict(self._triggers),
                "draining": self._draining,
            }
