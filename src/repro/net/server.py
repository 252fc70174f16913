"""The network query server: one index handle served over HTTP/1.1.

:class:`QueryServer` fronts any :class:`~repro.api.QuerySurface`
implementation — a :class:`~repro.api.Database`, a
:class:`~repro.api.Snapshot`, or a live serving pool — with the wire
protocol defined in :mod:`repro.net.protocol`.  The HTTP itself —
listener, keep-alive, request-body framing (the 64 MiB cap, refusing
what it cannot frame, reading past an unread body before a response)
and the response writer — is :mod:`repro.httpd`; this module is what
makes the query server a *data plane*:

* **Admission control.**  At most ``max_inflight`` requests execute at
  once; up to ``max_queue`` more wait for a slot.  Overflow is shed
  immediately with 429 and a ``Retry-After`` hint — a bounded queue
  keeps tail latency flat instead of letting a burst convoy every
  later request (the same reasoning as the pools' bounded block
  queues).
* **Deadline propagation.**  ``X-Repro-Deadline-Ms`` becomes an
  absolute deadline on arrival.  Requests that are already expired (or
  expire while queued) are shed with 504 *before any work is
  dispatched*; admitted requests hand their remaining budget to the
  serving pools' per-call ``timeout=``.  A pool read whose shard no
  worker computed raises :class:`~repro.exceptions.ShardLostError`,
  answered with 504 when the request carried a deadline, else 503 with
  ``Retry-After``.
* **Group commit.**  An admitted one-row ``knn``/``range`` request
  goes through :mod:`repro.net.coalesce`: it runs at once when its
  operation is idle, and those that queue behind it are answered by
  one batched call when it returns.  Any other row count is one
  batched call of its own.
* **Graceful drain.**  ``close()`` (or the CLI's SIGTERM handler)
  sheds late arrivals with 503, waits for every in-flight request to
  finish, then stops accepting and unbinds.  Zero admitted queries are
  dropped, and until the unbind a fresh connection is answered
  (``/healthz`` says 503 too) rather than left in the listen queue.
  Then every connection ends, an idle keep-alive one at once, and no
  connection's thread outlives ``close()``.
* **Telemetry on the same port.**  ``/metrics``, ``/healthz`` and
  ``/varz`` (:mod:`repro.obs.server`) are answered ahead of admission,
  so they stay answerable under load and during the drain, and are not
  counted as query requests.
* **Keep-alive.**  HTTP/1.1 with explicit ``Content-Length`` on every
  response, so clients reuse one connection across calls; no early
  response (shed, 401, 403, 404) is written ahead of an unread body.

Every request lands in the observability stack: shed decisions bump
``repro_shed_requests_total{reason}``, served requests bump
``repro_net_requests_total{endpoint,status}`` and the
``repro_net_request_seconds`` histogram, and the event log sees the
server lifecycle plus per-request DEBUG events.
"""

from __future__ import annotations

import dataclasses
import threading
import time

import numpy as np

from ..exceptions import RERAISABLE, NetError, ShardLostError
from ..exec.batch import per_query
from ..geometry import as_point
from ..httpd import HttpListener, Request
from ..obs import server as telemetry
from ..obs.events import DEBUG, EVENTS, INFO, WARN
from ..obs.hooks import on_net_inflight, on_net_request, on_net_shed
from . import protocol
from .coalesce import CoalescedDeadlineError, CoalescingScheduler

__all__ = ["QueryServer"]

#: Exceptions whose *type name* travels in the 400 (405 for
#: ``NotImplementedError``) error document so the client re-raises the
#: same class locally — whichever handle is served.  Anything else is a
#: defect and a 500.
_CLIENT_ERRORS = tuple(RERAISABLE.values())


class _Admission:
    """Bounded in-flight + queue admission with deadline-aware waits.

    ``acquire`` returns ``None`` when a slot was obtained, or the shed
    reason (``"overload"`` / ``"deadline"`` / ``"draining"``) when the
    request must be rejected without executing.
    """

    def __init__(self, max_inflight: int, max_queue: int,
                 queue_timeout_s: float) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {max_queue}")
        self.max_inflight = int(max_inflight)
        self.max_queue = int(max_queue)
        self.queue_timeout_s = float(queue_timeout_s)
        self._cv = threading.Condition()
        self.inflight = 0
        self.queued = 0
        self.draining = False

    def acquire(self, deadline: float | None) -> str | None:
        with self._cv:
            if self.draining:
                return "draining"
            if self.inflight < self.max_inflight:
                self.inflight += 1
                return None
            if self.queued >= self.max_queue:
                return "overload"
            self.queued += 1
            wait_started = time.monotonic()
            try:
                while True:
                    if self.draining:
                        return "draining"
                    if self.inflight < self.max_inflight:
                        self.inflight += 1
                        return None
                    now = time.monotonic()
                    if deadline is not None and now >= deadline:
                        return "deadline"
                    patience = wait_started + self.queue_timeout_s - now
                    if patience <= 0:
                        return "overload"
                    if deadline is not None:
                        patience = min(patience, deadline - now)
                    self._cv.wait(patience)
            finally:
                self.queued -= 1

    def release(self) -> None:
        with self._cv:
            self.inflight -= 1
            self._cv.notify_all()

    def start_drain(self) -> None:
        with self._cv:
            self.draining = True
            self._cv.notify_all()

    def wait_idle(self, timeout: float | None) -> bool:
        """Block until nothing is in flight or queued; True when idle."""
        with self._cv:
            return self._cv.wait_for(
                lambda: self.inflight == 0 and self.queued == 0, timeout
            )


class QueryServer:
    """Serve one query handle over the :mod:`repro.net.protocol` wire.

    Parameters
    ----------
    source:
        Any read handle — :class:`~repro.api.Database`,
        :class:`~repro.api.Snapshot`, or a serving pool.  Mutation
        endpoints additionally require the handle to expose
        ``insert``/``insert_many``/``delete`` (pools do not).
    host, port:
        Bind address; ``port=0`` picks a free port (``.address`` has
        the resolved one).
    max_inflight, max_queue, queue_timeout_s:
        Admission-control bounds: concurrent executions, waiting
        requests beyond that, and how long a deadline-less request may
        wait for a slot before being shed.
    auth_token:
        Shared secret for mutation endpoints.  ``None`` (default)
        disables mutations entirely (403).
    drain_timeout_s:
        How long ``close()`` waits for in-flight requests before
        giving up and unbinding anyway.
    """

    def __init__(self, source, *, host: str = "127.0.0.1", port: int = 0,
                 max_inflight: int = 8, max_queue: int = 16,
                 queue_timeout_s: float = 2.0,
                 auth_token: str | None = None,
                 drain_timeout_s: float = 30.0) -> None:
        self._source = source
        self._auth_token = auth_token
        self._drain_timeout_s = float(drain_timeout_s)
        self._admission = _Admission(max_inflight, max_queue, queue_timeout_s)
        # Serving pools take a per-call timeout=; plain handles do not.
        self._pooled = hasattr(source, "worker_stats")
        self._coalescer = CoalescingScheduler(
            source, call_kwargs=self._pool_kwargs)
        self._closed = False
        self._close_lock = threading.Lock()
        self._shed = {"overload": 0, "deadline": 0, "draining": 0}
        self._served = 0
        self._stats_lock = threading.Lock()
        self._listener = HttpListener(host, port, self._serve)
        EVENTS.emit("query_server_started", level=INFO,
                    host=self.address[0], port=self.address[1],
                    max_inflight=max_inflight, max_queue=max_queue,
                    mutations=auth_token is not None)

    # ------------------------------------------------------------------
    # lifecycle

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``."""
        return self._listener.address

    @property
    def draining(self) -> bool:
        return self._admission.draining

    @property
    def closed(self) -> bool:
        return self._closed

    def describe(self) -> dict:
        """A live snapshot of server health for /varz-style surfaces."""
        adm = self._admission
        with self._stats_lock:
            shed = dict(self._shed)
            served = self._served
        return {
            "address": f"{self.address[0]}:{self.address[1]}",
            "inflight": adm.inflight,
            "queued": adm.queued,
            "max_inflight": adm.max_inflight,
            "max_queue": adm.max_queue,
            "served": served,
            "shed": shed,
            "draining": adm.draining,
            "closed": self._closed,
            "batching": self._coalescer.describe(),
        }

    def close(self) -> None:
        """Graceful drain: shed new work, finish in-flight, unbind, and
        end every connection (an idle keep-alive one included) before
        returning.

        Safe to call from any thread (the CLI calls it from a SIGTERM
        handler) and idempotent.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        EVENTS.emit("query_server_draining", level=INFO,
                    inflight=self._admission.inflight,
                    queued=self._admission.queued)
        self._admission.start_drain()
        # Run every waiting group now: its members hold admission slots
        # and need not wait behind the running calls.
        self._coalescer.drain()
        drained = self._admission.wait_idle(self._drain_timeout_s)
        # Accept until idle: a connection arriving during the drain is
        # shed (503) instead of reset when the socket closes.
        self._listener.close()
        EVENTS.emit("query_server_stopped", level=INFO if drained else WARN,
                    drained=drained, served=self._served)

    def __enter__(self) -> "QueryServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # request plumbing

    def _serve(self, request: Request) -> None:
        # Telemetry is answered here, ahead of admission and of _handle's
        # request accounting (the ledger times _handle as the request).
        path = request.path.split("?", 1)[0].rstrip("/")
        if path in telemetry.PATHS:
            telemetry.answer(request, path, self._source, self)
        else:
            self._handle(request)

    def _handle(self, request: Request) -> None:
        started = time.monotonic()
        endpoint = self._route(request.path)
        deadline = self._parse_deadline(request, started)
        try:
            if endpoint is None:
                doc = protocol.error_doc(NetError(
                    f"unknown path {request.path!r}; see 'paths'"))
                request.send_json(404, dict(doc, paths=_PATHS))
            elif deadline is _BAD_DEADLINE:
                self._send_error(
                    request, 400,
                    ValueError(f"invalid {protocol.DEADLINE_HEADER} header"))
            elif endpoint in ("server", "stats"):
                # Control-plane reads bypass admission: they must stay
                # observable while the data plane is saturated.
                self._dispatch(request, endpoint, self._read_body(request),
                               deadline)
            elif deadline is not None and started >= deadline:
                self._shed_response(request, "deadline")
            elif (endpoint in protocol.WRITE_ENDPOINTS
                  and not self._check_auth(request)):
                pass
            else:
                # The whole request is in hand before it may take a
                # slot: a peer that stalls inside its body holds none.
                body = self._read_body(request)
                reason = self._admission.acquire(deadline)
                if reason is not None:
                    self._shed_response(request, reason)
                    return
                on_net_inflight(self._admission.inflight)
                try:
                    self._dispatch(request, endpoint, body, deadline)
                finally:
                    self._admission.release()
                    on_net_inflight(self._admission.inflight)
        except (BrokenPipeError, ConnectionResetError):
            # The client went away mid-request.  The query (if any)
            # already ran; drop the response and keep the server loop
            # healthy.
            request.close_connection = True
            request.status = 499  # nginx's "client closed request" convention
            if EVENTS.enabled_for(DEBUG):
                EVENTS.emit("net_client_disconnected", level=DEBUG,
                            endpoint=endpoint)
        finally:
            # No status means no response was written: the request died.
            status = request.status or 500
            seconds = time.monotonic() - started
            on_net_request(endpoint or "unknown", status, seconds)
            with self._stats_lock:
                if status < 400:
                    self._served += 1
            if EVENTS.enabled_for(DEBUG):
                EVENTS.emit("net_request", level=DEBUG,
                            endpoint=endpoint or request.path,
                            status=status, wall_ms=seconds * 1e3)

    @staticmethod
    def _route(path: str) -> str | None:
        if not path.startswith("/v1/"):
            return None
        endpoint = path[len("/v1/"):].rstrip("/")
        return endpoint if endpoint in protocol.ENDPOINTS else None

    @staticmethod
    def _parse_deadline(request: Request, started: float):
        raw = request.headers.get(protocol.DEADLINE_HEADER)
        if raw is None:
            return None
        try:
            budget_ms = float(raw)
        except ValueError:
            return _BAD_DEADLINE
        if not np.isfinite(budget_ms):
            return _BAD_DEADLINE
        return started + budget_ms / 1e3

    def _shed_response(self, request: Request, reason: str) -> None:
        status = {"overload": 429, "deadline": 504, "draining": 503}[reason]
        with self._stats_lock:
            self._shed[reason] += 1
        on_net_shed(reason)
        EVENTS.emit("request_shed", level=WARN, reason=reason,
                    inflight=self._admission.inflight,
                    queued=self._admission.queued)
        doc = {"error": f"request shed: {reason}", "error_type": "shed",
               "reason": reason}
        request.send_json(
            status, doc, {"Retry-After": "1"} if reason == "overload" else None)

    @staticmethod
    def _send_error(request: Request, status: int,
                    exc: BaseException) -> None:
        request.send_json(status, protocol.error_doc(exc))

    def _send_neighbors(self, request: Request, results: list) -> None:
        """One result list per query, as one neighbor block.

        The block is the only answer a neighbor list has: float repr
        would dominate a JSON encode of a k=21 result, and at
        coalesced-batch rates that per-response cost is what bounds
        server throughput.
        """
        request.send(200, protocol.encode_neighbor_block(results),
                     protocol.NEIGHBORS_CONTENT_TYPE)

    @staticmethod
    def _read_body(request: Request) -> bytes:
        # A stage of its own, by this name, because the ledger times it
        # (ledger/shims.py: net.server.read_body).  Only a POST carries
        # a body the endpoint reads; any other is read past by the
        # response.
        return request.read_body() if request.command == "POST" else b""

    # ------------------------------------------------------------------
    # endpoint execution

    def _dispatch(self, request: Request, endpoint: str, body: bytes,
                  deadline: float | None) -> None:
        content_type = request.headers.get("Content-Type", "")
        content_type = content_type.split(";")[0].strip()
        try:
            self._execute(request, endpoint, body, content_type, deadline)
        except CoalescedDeadlineError:
            # The request's deadline expired while it waited in a
            # group; it was never executed.  Same 504 + shed
            # accounting as a pre-dispatch deadline shed.
            self._shed_response(request, "deadline")
        except ShardLostError as exc:
            # A pool worker did not compute part of the answer: 504
            # when the request carried a budget, else 503 to retry.
            if deadline is not None:
                request.send_json(504, protocol.error_doc(exc))
            else:
                request.send_json(503, protocol.error_doc(exc),
                                  {"Retry-After": "1"})
        except NotImplementedError as exc:
            self._send_error(request, 405, exc)
        except _CLIENT_ERRORS as exc:
            self._send_error(request, 400, exc)
        except (BrokenPipeError, ConnectionResetError):
            raise
        except Exception as exc:  # pragma: no cover - defense in depth
            EVENTS.emit("query_server_error", level=WARN,
                        endpoint=endpoint, error=repr(exc))
            self._send_error(request, 500, exc)

    def _check_auth(self, request: Request) -> bool:
        """Whether the request may mutate; if not, the refusal is sent."""
        if self._auth_token is None:
            self._send_error(
                request, 403,
                NetError("mutations are disabled: the server was started "
                         "without an auth token"))
            return False
        import hmac  # here, not at the top: it loads OpenSSL via hashlib

        supplied = request.headers.get(protocol.TOKEN_HEADER, "")
        if not hmac.compare_digest(supplied.encode("utf-8"),
                                   self._auth_token.encode("utf-8")):
            self._send_error(
                request, 401,
                NetError(f"missing or invalid {protocol.TOKEN_HEADER}"))
            return False
        return True

    def _pool_kwargs(self, deadline: float | None) -> dict:
        """Per-call kwargs propagating the remaining budget into pools.

        The one statement of "remaining deadline -> a pool's
        ``timeout=``"; the coalescer calls it with a request's deadline,
        or with a group's largest member deadline.
        """
        if not self._pooled or deadline is None:
            return {}
        return {"timeout": max(deadline - time.monotonic(), 1e-3)}

    def _execute(self, request: Request, endpoint: str, body: bytes,
                 content_type: str, deadline: float | None) -> None:
        source = self._source
        pool_kw = self._pool_kwargs(deadline)

        if endpoint == "server":
            request.send_json(200, self._descriptor())
            return

        if endpoint == "stats":
            request.send_json(200, {"stats": self._stats_doc()})
            return

        # Every other endpoint's body is matrix frames (and a mutation's
        # values part), read by protocol.decode_frames.
        if content_type != protocol.BINARY_CONTENT_TYPE:
            raise ValueError(
                f"this endpoint's body is matrix frames, Content-Type "
                f"{protocol.BINARY_CONTENT_TYPE}; got {content_type!r}")
        if endpoint == "window":
            low, high = protocol.decode_frames(body, 2)
            self._send_neighbors(request,
                                 [source.window(low, high, **pool_kw)])
            return

        if endpoint in ("knn", "range"):
            points, arg = protocol.decode_frames(body, 2)
            name = "k" if endpoint == "knn" else "radius"
            if points.ndim == 2 and len(points) == 1:
                # Checked here, in the handles' order and words, so a bad
                # request fails alone instead of poisoning its group.  A
                # lone value goes in as a Python number: per_query's
                # fast path, not its array checks.
                point = as_point(points[0], getattr(source, "dims", None))
                param = per_query(name, _one_value(arg), 1)[0].item()
                results = [self._coalescer.submit(endpoint, point, param,
                                                  deadline)]
            elif endpoint == "knn":
                results = source.knn_batch(points, k=arg, **pool_kw)
            else:
                results = source.range_batch(points, arg, **pool_kw)
            self._send_neighbors(request, results)
            return

        # Every other endpoint answers 200 with one JSON document.
        if endpoint == "lookup":
            (point,) = protocol.decode_frames(body, 1)
            reply = {"values": list(source.lookup(_one_row(point),
                                                  **pool_kw))}

        elif endpoint == "explain":
            if not hasattr(source, "explain"):
                raise NotImplementedError(
                    f"the served handle ({type(source).__name__}) does not "
                    f"support explain")
            point, k = protocol.decode_frames(body, 2)
            reply = {"explain": source.explain(_one_row(point),
                                               k=_one_value(k))}

        else:  # a mutation: its points, then maybe its values part
            self._require_mutable(endpoint)
            points, values = protocol.decode_frames(body, 1, values=True)
            if endpoint == "insert_many":
                inserted = (source.insert_many(points) if values is None
                            else source.insert_many(points, values))
                reply = {"ok": True, "inserted": int(inserted),
                         "size": source.size}
            else:
                if values is not None and len(values) != 1:
                    raise ValueError(f"{endpoint} takes one value, got a "
                                     f"values part of {len(values)}")
                # insert or delete: no values part is no value argument
                getattr(source, endpoint)(_one_row(points), *(values or ()))
                reply = {"ok": True, "size": source.size}
        request.send_json(200, reply)

    def _require_mutable(self, op: str) -> None:
        if not hasattr(self._source, op):
            raise NotImplementedError(
                f"the served handle ({type(self._source).__name__}) does "
                f"not support {op}; serve a Database for mutations")

    def _descriptor(self) -> dict:
        source = self._source
        return {
            "protocol": protocol.PROTOCOL_VERSION,
            "kind": getattr(source, "kind", None),
            "dims": getattr(source, "dims", None),
            "size": getattr(source, "size", None),
            "backend": type(source).__name__,
            "mutations": self._auth_token is not None
            and hasattr(source, "insert"),
            "max_inflight": self._admission.max_inflight,
            "max_queue": self._admission.max_queue,
            "draining": self._admission.draining,
            "batching": self._coalescer.describe(),
        }

    def _stats_doc(self) -> dict:
        stats = self._source.stats()
        if dataclasses.is_dataclass(stats) and not isinstance(stats, type):
            return dataclasses.asdict(stats)
        if isinstance(stats, dict):
            return {
                key: dataclasses.asdict(value)
                if dataclasses.is_dataclass(value)
                and not isinstance(value, type) else value
                for key, value in stats.items()
            }
        return {"stats": repr(stats)}


#: Every path the server answers, listed in its 404.
_PATHS = ([f"/v1/{name}" for name in protocol.ENDPOINTS]
          + list(telemetry.PATHS))

#: Sentinel distinguishing "no deadline header" from "unparseable one".
_BAD_DEADLINE = object()


def _one_row(frame: np.ndarray) -> np.ndarray:
    """A one-row points frame as its point; any other shape unchanged,
    for the handle to refuse in its own words."""
    return frame[0] if frame.ndim == 2 and len(frame) == 1 else frame


def _one_value(frame: np.ndarray):
    """A lone ``k`` or radius as a Python number; any other shape
    unchanged, for ``per_query`` to refuse."""
    return frame.item() if frame.shape in ((), (1,)) else frame
