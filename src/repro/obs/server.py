"""HTTP telemetry endpoint: ``/metrics``, ``/healthz``, ``/varz``.

Three routes on :mod:`repro.httpd` — the HTTP/1.1 substrate the query
server stands on too, so a scraper keeps one connection alive across
scrapes — that make the process's observability surfaces scrapeable
from outside:

* ``/metrics`` — the metrics registry in Prometheus text exposition
  format, **byte-identical** to ``render(REGISTRY)`` (a stock
  Prometheus server or ``promtool check metrics`` parses it as-is);
* ``/healthz`` — ``200 {"status": "ok", ...}`` while every watched
  handle is serviceable, ``503`` as soon as a watched database's store
  is poisoned (post-commit apply failure — see ``docs/DURABILITY.md``)
  or a watched query server is draining;
* ``/varz`` — one JSON document: the flattened registry, the flight
  recorder's summary, the event log's summary, the snapshot epoch of
  every watched database and the workers and degraded queries of every
  watched pool.

The server binds ``127.0.0.1`` on an ephemeral port by default and
serves from a daemon thread; it is an operator tool, not a hardened
public endpoint.  Request handling is quiet — ``http.server``'s
stderr chatter goes to the event log instead (``telemetry_request``,
DEBUG), keeping one logging surface.

::

    from repro.obs import TelemetryServer

    with TelemetryServer(port=0) as srv:
        srv.watch_database(db)
        srv.watch_pool(pool)
        print(srv.url)               # e.g. http://127.0.0.1:49152
        ...                          # scrape srv.url + "/metrics"
"""

from __future__ import annotations

from ..httpd import HttpListener, Request
from .events import EVENTS, INFO
from .flightrec import FLIGHT
from .prometheus import render
from .registry import REGISTRY

__all__ = ["TelemetryServer"]


class TelemetryServer:
    """Serve ``/metrics``, ``/healthz``, and ``/varz`` over HTTP.

    Parameters
    ----------
    host / port:
        Bind address; ``port=0`` (default) picks an ephemeral port,
        readable from :attr:`port` after :meth:`start`.
    registry / recorder / events:
        The surfaces to expose; default to the process-wide
        ``REGISTRY``/``FLIGHT``/``EVENTS``.

    Health and ``/varz`` state come from *watched* handles:
    :meth:`watch_database`, :meth:`watch_pool` and
    :meth:`watch_query_server` register live objects that the handlers
    poll on every request (a pool respawns a failed worker, so it has
    no unhealthy state).  Entering the context manager starts the
    server; leaving stops it.
    """

    def __init__(self, *, host: str = "127.0.0.1", port: int = 0,
                 registry=None, recorder=None, events=None) -> None:
        self._host = host
        self._port = port
        self._registry = registry if registry is not None else REGISTRY
        self._recorder = recorder if recorder is not None else FLIGHT
        self._events = events if events is not None else EVENTS
        self._databases: list = []
        self._pools: list = []
        self._query_servers: list = []
        self._listener: HttpListener | None = None

    # -- watched handles ---------------------------------------------------

    def watch_database(self, db) -> None:
        """Track a :class:`~repro.api.Database` for health/epoch state."""
        self._databases.append(db)

    def watch_pool(self, pool) -> None:
        """Track a :class:`~repro.exec.ServingPool` for ``/varz``."""
        self._pools.append(pool)

    def watch_query_server(self, query_server) -> None:
        """Track a :class:`~repro.net.QueryServer` for health/load state.

        ``/healthz`` reports the query server unhealthy once it starts
        draining (load balancers should stop routing to it); ``/varz``
        carries its live admission-control snapshot (in-flight, queued,
        shed counts).
        """
        self._query_servers.append(query_server)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "TelemetryServer":
        """Bind and serve from a daemon thread (idempotent)."""
        if self._listener is None:
            self._listener = HttpListener(
                self._host, self._port, self._handle, name="repro-telemetry",
                log_event="telemetry_request", events=self._events)
            self._events.emit("telemetry_server_started", level=INFO,
                              host=self.host, port=self.port)
        return self

    def stop(self) -> None:
        """Shut the listener down and join the serving thread."""
        if self._listener is None:
            return
        listener, self._listener = self._listener, None
        listener.stop_accepting()
        listener.unbind()
        self._events.emit("telemetry_server_stopped", level=INFO)

    def __enter__(self) -> "TelemetryServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- address -----------------------------------------------------------

    @property
    def _address(self) -> tuple[str, int]:
        if self._listener is not None:
            return self._listener.address
        return self._host, self._port

    @property
    def host(self) -> str:
        """Bound host."""
        return self._address[0]

    @property
    def port(self) -> int:
        """Bound port (the ephemeral pick once started)."""
        return self._address[1]

    @property
    def url(self) -> str:
        """``http://host:port`` of the running server."""
        return f"http://{self.host}:{self.port}"

    # -- state assembly (also used directly by tests/CLI) -------------------

    def health(self) -> tuple[bool, dict]:
        """``(healthy, checks)`` over every watched handle.

        A database fails its check when its store is poisoned, a query
        server while it drains.  No watched handles = vacuously healthy
        (the process is up).
        """
        checks: list[dict] = []
        healthy = True
        for i, db in enumerate(self._databases):
            poisoned = bool(db.index.store.poisoned)
            checks.append({
                "check": f"database[{i}]",
                "path": db.path,
                "ok": not poisoned,
                "detail": "store poisoned" if poisoned else "serviceable",
            })
            healthy &= not poisoned
        for i, qs in enumerate(self._query_servers):
            draining = bool(qs.draining)
            checks.append({
                "check": f"query_server[{i}]",
                "address": "%s:%d" % qs.address,
                "ok": not draining,
                "detail": ("draining for shutdown" if draining
                           else "serviceable"),
            })
            healthy &= not draining
        return healthy, {
            "status": "ok" if healthy else "unhealthy",
            "checks": checks,
        }

    def varz(self) -> dict:
        """The ``/varz`` document as a dict."""
        snapshots: list[dict] = []
        for i, db in enumerate(self._databases):
            entry: dict = {"handle": f"database[{i}]", "path": db.path}
            if not db.closed:
                entry["epoch"] = db.index.snapshot_epoch
                entry["snapshot_pins"] = db.index.store.snapshot_pins
            snapshots.append(entry)
        for i, pool in enumerate(self._pools):
            snapshots.append({
                "handle": f"pool[{i}]",
                "workers": pool.workers,
                "degraded_queries": pool.degraded_queries,
            })
        for i, qs in enumerate(self._query_servers):
            entry = dict(qs.describe())
            entry["handle"] = f"query_server[{i}]"
            snapshots.append(entry)
        return {
            "metrics": self._registry.flatten(),
            "flight_recorder": self._recorder.summary(),
            "events": self._events.summary(),
            "snapshots": snapshots,
        }

    # -- request handling ----------------------------------------------------

    def _handle(self, request: Request) -> None:
        path = request.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/metrics":
            request.send(200, render(self._registry).encode("utf-8"),
                         "text/plain; version=0.0.4; charset=utf-8")
        elif path == "/healthz":
            healthy, doc = self.health()
            request.send_json(200 if healthy else 503, doc, pretty=True)
        elif path == "/varz":
            request.send_json(200, self.varz(), pretty=True)
        else:
            request.send_json(404, {
                "error": f"unknown path {path!r}",
                "paths": ["/metrics", "/healthz", "/varz"],
            }, pretty=True)
