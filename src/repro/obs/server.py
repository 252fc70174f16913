"""The telemetry routes: ``/metrics``, ``/healthz``, ``/varz``.

:class:`~repro.net.QueryServer` answers these three paths on its own
port, ahead of admission control — they stay answerable while the data
plane is saturated or draining, and they are not counted as query
requests.  The server passes itself and its served handle in; this
module reads them and never imports :mod:`repro.net`:

* ``/metrics`` — the metrics registry in Prometheus text exposition
  format, **byte-identical** to ``render(REGISTRY)`` (a stock
  Prometheus server or ``promtool check metrics`` parses it as-is);
* ``/healthz`` — ``200 {"status": "ok", ...}`` while the served handle
  and the server are serviceable, ``503`` as soon as a served
  database's store is poisoned (post-commit apply failure — see
  ``docs/DURABILITY.md``) or the server is draining;
* ``/varz`` — one JSON document: the flattened registry, the flight
  recorder's summary (with the latency objective that flags its
  ``slow`` records), the event log's summary, the served database's
  snapshot epoch or the served pool's workers and degraded queries, and
  the server's admission-control snapshot.
"""

from __future__ import annotations

from .events import EVENTS
from .flightrec import FLIGHT
from .hooks import slo_ms
from .prometheus import render
from .registry import REGISTRY

__all__ = ["PATHS", "answer", "health", "varz"]

#: The telemetry paths, answered beside the ``/v1/`` endpoints.
PATHS = ("/metrics", "/healthz", "/varz")


def answer(request, path: str, source, server) -> None:
    """Answer ``path`` (one of :data:`PATHS`) through ``request``."""
    if path == "/metrics":
        request.send(200, render(REGISTRY).encode("utf-8"),
                     "text/plain; version=0.0.4; charset=utf-8")
    elif path == "/healthz":
        healthy, doc = health(source, server)
        request.send_json(200 if healthy else 503, doc, pretty=True)
    else:
        request.send_json(200, varz(source, server), pretty=True)


def health(source, server) -> tuple[bool, dict]:
    """``(healthy, document)`` for the served handle and its server.

    A database fails its check when its store is poisoned, the server
    while it drains.  A pool respawns a failed worker, so it has no
    unhealthy state and no check.
    """
    checks: list[dict] = []
    if hasattr(source, "path"):  # a Database
        poisoned = bool(source.index.store.poisoned)
        checks.append({
            "check": "database[0]",
            "path": source.path,
            "ok": not poisoned,
            "detail": "store poisoned" if poisoned else "serviceable",
        })
    draining = bool(server.draining)
    checks.append({
        "check": "query_server[0]",
        "address": "%s:%d" % server.address,
        "ok": not draining,
        "detail": "draining for shutdown" if draining else "serviceable",
    })
    healthy = all(check["ok"] for check in checks)
    return healthy, {
        "status": "ok" if healthy else "unhealthy",
        "checks": checks,
    }


def varz(source, server) -> dict:
    """The ``/varz`` document as a dict."""
    snapshots: list[dict] = []
    if hasattr(source, "path"):  # a Database
        entry: dict = {"handle": "database[0]", "path": source.path}
        if not source.closed:
            entry["epoch"] = source.index.snapshot_epoch
            entry["snapshot_pins"] = source.index.store.snapshot_pins
        snapshots.append(entry)
    elif hasattr(source, "degraded_queries"):  # a ServingPool
        snapshots.append({
            "handle": "pool[0]",
            "workers": source.workers,
            "degraded_queries": source.degraded_queries,
        })
    snapshots.append(dict(server.describe(), handle="query_server[0]"))
    return {
        "metrics": REGISTRY.flatten(),
        "flight_recorder": dict(FLIGHT.summary(), slo_ms=slo_ms()),
        "events": EVENTS.summary(),
        "snapshots": snapshots,
    }
