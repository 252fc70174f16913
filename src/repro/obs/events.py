"""Structured event log: one-line JSON events for the serving path.

Metrics (:mod:`repro.obs.registry`) answer "how much"; the tracer
answers "why this query".  The event log answers "**what happened,
when**" — the operator-facing narrative of the serving path: queries
starting and finishing, WAL commits and recoveries, stores poisoning
themselves, snapshots publishing and refreshing, pool workers being
respawned, shards degrading, checksums failing.

One process-wide :class:`EventLog` (:data:`EVENTS`) is the **single
logging surface** of the library — ``tools/lint.py`` forbids ``print``
and ``logging.getLogger`` everywhere else under ``src/repro``.  Every
event is a flat dict with three fixed keys (``ts`` — Unix seconds,
``level``, ``event``) plus free-form fields; query-scoped events carry
the ``query_id`` the hooks layer assigned, so one query's start/finish
(and its ``slo_violation``, if any) can be joined.

Events always land in a bounded in-memory ring (cheap: one level check
and a deque append), and are *additionally* serialized to a pluggable
sink — ``"stderr"``, a file path, or any callable taking the event
dict.  The default is ring-only, so the per-query cost with everything
at defaults is one integer comparison (query start/finish events are
DEBUG, below the default INFO threshold).

::

    from repro.obs import EVENTS

    EVENTS.configure(sink="stderr", min_level="debug")
    ...
    for event in EVENTS.tail(20):
        print(event["event"], event.get("query_id"))
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import deque

__all__ = [
    "DEBUG",
    "INFO",
    "WARN",
    "ERROR",
    "EVENTS",
    "EventLog",
    "level_name",
    "parse_level",
]

DEBUG = 10
INFO = 20
WARN = 30
ERROR = 40

_LEVEL_NAMES = {DEBUG: "debug", INFO: "info", WARN: "warn", ERROR: "error"}
_NAME_LEVELS = {name: value for value, name in _LEVEL_NAMES.items()}

#: Default ring capacity (events kept for ``tail``/``/varz``).
DEFAULT_CAPACITY = 512


def level_name(level: int) -> str:
    """The lowercase name of a numeric level (``10`` → ``"debug"``)."""
    return _LEVEL_NAMES.get(level, str(level))


def parse_level(level: int | str) -> int:
    """Accept either a numeric level or a name (case-insensitive)."""
    if isinstance(level, str):
        try:
            return _NAME_LEVELS[level.lower()]
        except KeyError:
            raise ValueError(
                f"unknown event level {level!r}; "
                f"expected one of {sorted(_NAME_LEVELS)}"
            ) from None
    return int(level)


class EventLog:
    """A level-filtered ring of structured events with an optional sink.

    Parameters
    ----------
    capacity:
        Ring size — how many recent events :meth:`tail` can replay.
    min_level:
        Events below this level are dropped entirely (not ringed, not
        sunk).  Default ``INFO``: per-query DEBUG events cost one
        comparison unless an operator opts in.
    sink:
        Where accepted events are *also* serialized as one-line JSON:
        ``None`` (ring only, the default), ``"stderr"``, a file path
        (opened lazily, line-buffered appends), or a callable invoked
        with the event dict itself.
    """

    def __init__(self, *, capacity: int = DEFAULT_CAPACITY,
                 min_level: int | str = INFO, sink=None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._ring: deque[dict] = deque(maxlen=capacity)
        self._min_level = parse_level(min_level)
        self._emitted = 0
        self._mu = threading.Lock()
        self._query_ids = itertools.count(1)
        self._sink = None
        self._sink_file = None
        self._set_sink(sink)

    # -- configuration ---------------------------------------------------

    @property
    def min_level(self) -> int:
        """Events below this level are dropped."""
        return self._min_level

    @property
    def capacity(self) -> int:
        """Ring size (events retained for :meth:`tail`)."""
        return self._ring.maxlen or 0

    @property
    def emitted(self) -> int:
        """Events accepted (ringed) since process start."""
        return self._emitted

    def _set_sink(self, sink) -> None:
        if self._sink_file is not None:
            self._sink_file.close()
            self._sink_file = None
        if sink is None or callable(sink):
            self._sink = sink
        elif sink == "stderr":
            self._sink = self._sink_stderr
        elif isinstance(sink, str):
            self._sink_file = open(sink, "a", encoding="utf-8")
            self._sink = self._sink_path
        else:
            raise ValueError(
                f"sink must be None, 'stderr', a file path, or a "
                f"callable, got {sink!r}"
            )

    def _sink_stderr(self, event: dict) -> None:
        sys.stderr.write(json.dumps(event, default=str) + "\n")

    def _sink_path(self, event: dict) -> None:
        self._sink_file.write(json.dumps(event, default=str) + "\n")
        self._sink_file.flush()

    def configure(self, *, sink=..., min_level=..., capacity=...) -> None:
        """Change sink, threshold, or ring size (unspecified = keep)."""
        with self._mu:
            if min_level is not ...:
                self._min_level = parse_level(min_level)
            if capacity is not ...:
                if capacity < 1:
                    raise ValueError(
                        f"capacity must be positive, got {capacity}"
                    )
                self._ring = deque(self._ring, maxlen=capacity)
            if sink is not ...:
                self._set_sink(sink)

    # -- emission ----------------------------------------------------------

    def enabled_for(self, level: int) -> bool:
        """Whether an event at ``level`` would be accepted right now.

        Hot paths guard field assembly with this so a disabled DEBUG
        event costs one comparison.
        """
        return level >= self._min_level

    def next_query_id(self) -> int:
        """A fresh process-unique query id (joins start/finish events)."""
        return next(self._query_ids)

    def emit(self, event: str, *, level: int = INFO, **fields) -> None:
        """Record one event (dropped silently below ``min_level``).

        ``fields`` must be JSON-representable (non-serializable values
        fall back to ``str()`` at sink time; the ring keeps them as-is).
        """
        if level < self._min_level:
            return
        record = {
            "ts": round(time.time(), 6),
            "level": _LEVEL_NAMES.get(level, str(level)),
            "event": event,
        }
        record.update(fields)
        sink = self._sink
        with self._mu:
            self._ring.append(record)
            self._emitted += 1
            if sink is not None:
                sink(record)

    # -- inspection --------------------------------------------------------

    def tail(self, n: int | None = None, *,
             level: int | str | None = None) -> list[dict]:
        """The most recent ``n`` ringed events, oldest first.

        ``level`` filters to events at/above that level; ``n=None``
        returns the whole ring.
        """
        with self._mu:
            events = list(self._ring)
        if level is not None:
            floor = parse_level(level)
            events = [e for e in events
                      if _NAME_LEVELS.get(e["level"], ERROR) >= floor]
        if n is not None:
            events = events[-n:]
        return events

    def clear(self) -> None:
        """Empty the ring (sink and counters untouched)."""
        with self._mu:
            self._ring.clear()

    def summary(self) -> dict:
        """Ring occupancy and config, for ``/varz``."""
        with self._mu:
            return {
                "capacity": self.capacity,
                "ringed": len(self._ring),
                "emitted": self._emitted,
                "min_level": _LEVEL_NAMES.get(self._min_level,
                                              str(self._min_level)),
                "sink": "none" if self._sink is None else "configured",
            }


EVENTS = EventLog()
"""The process-wide event log every built-in emission site writes to."""
