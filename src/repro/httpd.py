"""The HTTP/1.1 substrate under the query server.

:class:`~repro.net.QueryServer` is the application: it routes a path
(a ``/v1/`` endpoint, or one of the telemetry routes ``/metrics``,
``/healthz``, ``/varz``) and builds a response.  Everything that is
HTTP rather than application is here, on the stdlib's ``http.server``
and nothing else:

* :class:`HttpListener` — the listening socket, its serve thread, the
  bound address, and :meth:`~HttpListener.close`, which the application
  calls once it has finished what it admitted;
* :class:`Request` — one request as the application sees it: the parsed
  request line and headers, :meth:`~Request.read_body`, and the one
  response writer, :meth:`~Request.send`, which records what it sent in
  :attr:`~Request.status`.

**Request-body framing is decided here, before the application runs:**

====================================  =====================================
the request carries                   the substrate
====================================  =====================================
no ``Content-Length``                 serves it with an empty body
``Content-Length: n``, n <= 64 MiB    serves it; ``read_body()`` is n bytes
a malformed or negative length, or    answers 400 itself and closes the
any ``Transfer-Encoding`` (chunked)   connection — the stream cannot be
                                      re-synchronised
a length over :data:`MAX_BODY_BYTES`  answers 413 itself and closes
====================================  =====================================

A refused request never reaches the application, so it cannot hold one
of its admission slots; it leaves an ``http_request_refused`` event.  A
body the application did not read is read past *before* the response is
written when it is at most :data:`MAX_DRAIN_BYTES` — a response ahead of
unread body bytes would have the next request on the keep-alive
connection parsed out of them — and closes the connection when larger.

Connections are HTTP/1.1 keep-alive with ``TCP_NODELAY``; a response
leaves as one buffered segment without the stdlib's ``Server``/``Date``
headers; the listen backlog is 128.  The library has one logging
surface: ``http.server``'s request chatter goes to the event log at
DEBUG (``query_server_log``), and an exception escaping a handler
becomes an ``http_handler_error`` event instead of ``socketserver``'s
stderr traceback.
"""

from __future__ import annotations

import json
import selectors
import socket
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .obs.events import DEBUG, EVENTS, WARN

__all__ = ["HttpListener", "Request", "MAX_BODY_BYTES", "MAX_DRAIN_BYTES"]

#: Upper bound on request bodies; far above any sane batch, low enough
#: that a misbehaving client cannot balloon server memory.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: The largest unread body a response reads past to keep the connection.
MAX_DRAIN_BYTES = 1 << 20


class Request(BaseHTTPRequestHandler):
    """One connection's handler; per request, what the application answers."""

    protocol_version = "HTTP/1.1"
    # Headers and body leave in separate writes; with Nagle on, the
    # follow-up segments sit behind the peer's delayed ACK (~40 ms per
    # response on loopback).
    disable_nagle_algorithm = True
    # Buffer the response side so status + headers + body leave as one
    # segment (one syscall); handle_one_request() flushes after each.
    wbufsize = 64 * 1024

    #: Status of the response to the current request; ``None`` before it.
    status: int | None = None
    _unread = 0

    def _serve(self) -> None:
        self.status, self._unread = None, 0
        refusal = self._frame()
        if refusal is None:
            self.server.handle(self)
            return
        status, reason = refusal
        self.close_connection = True
        EVENTS.emit("http_request_refused", level=WARN, status=status,
                    reason=reason)
        self.send_json(status, {"error": reason, "error_type": "NetError"})

    do_GET = do_POST = _serve  # noqa: N815 (http.server API)

    def _frame(self) -> tuple[int, str] | None:
        """Fix the body length from the headers, or say why not."""
        if self.headers.get("Transfer-Encoding") is not None:
            return 400, ("Transfer-Encoding is not supported; frame the "
                         "body with Content-Length")
        raw = self.headers.get("Content-Length")
        if raw is None:
            return None
        if not (raw.isascii() and raw.strip().isdigit()):
            return 400, f"invalid Content-Length {raw!r}"
        length = int(raw)
        if length > MAX_BODY_BYTES:
            return 413, (f"request body of {length} bytes exceeds the "
                         f"{MAX_BODY_BYTES}-byte limit")
        self._unread = length
        return None

    def read_body(self) -> bytes:
        """The request body (empty when the request carried none)."""
        length, self._unread = self._unread, 0
        return self.rfile.read(length) if length else b""

    def send(self, status: int, body: bytes, content_type: str,
             headers: dict | None = None) -> None:
        """Write the response: the one place the server does."""
        if self._unread > MAX_DRAIN_BYTES:
            self.close_connection = True
        elif self._unread:
            self.rfile.read(self._unread)
        self._unread = 0
        self.status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def send_response(self, code: int, message=None) -> None:
        # Without the stdlib's per-response Server/Date headers — in its
        # own error replies (bad request line, 501) too: both are
        # optional, and at coalesced-batch rates their strftime and the
        # client-side parse are measurable.
        self.log_request(code)
        self.send_response_only(code, message)

    def send_json(self, status: int, doc: dict, headers: dict | None = None,
                  *, pretty: bool = False) -> None:
        """:meth:`send` a JSON document (``pretty``: for people, sorted)."""
        text = (json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n"
                if pretty else json.dumps(doc))
        self.send(status, text.encode("utf-8"), "application/json", headers)

    def log_message(self, format: str, *args) -> None:
        if EVENTS.enabled_for(DEBUG):
            EVENTS.emit("query_server_log", level=DEBUG, message=format % args)


class HttpListener(ThreadingHTTPServer):
    """A bound socket served from a daemon thread.

    ``handle(request)`` is called on a per-connection thread for every
    well-framed GET or POST and answers through the :class:`Request`.
    """

    # The socketserver default backlog (5) resets connections when a
    # fleet of clients connects at once; the application's admission
    # control, not the listen queue, is the concurrency bound.
    request_queue_size = 128
    daemon_threads = True

    def __init__(self, host: str, port: int, handle) -> None:
        super().__init__((host, port), Request)
        self.handle = handle
        self._closing = False
        self._thread = threading.Thread(target=self._accept_loop,
                                        name="repro-query-server",
                                        daemon=True)
        self._thread.start()

    def _accept_loop(self) -> None:
        # serve_forever() notices shutdown() only at its next 0.5 s poll;
        # this loop is woken by close() itself (the timeout is a backstop).
        with selectors.DefaultSelector() as selector:
            selector.register(self, selectors.EVENT_READ)
            while not self._closing:
                if selector.select(0.5) and not self._closing:
                    self._handle_request_noblock()

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (the pick, when asked for port 0)."""
        return self.server_address[:2]

    def close(self) -> None:
        """Stop the accept loop, close the listening socket and join the
        serve thread; open connections keep being served."""
        self._closing = True
        try:  # wake the loop's select with a connection of our own
            socket.create_connection(self.address, timeout=1.0).close()
        except OSError:
            pass
        self._thread.join(timeout=5.0)
        self.server_close()

    def handle_error(self, request, client_address) -> None:
        exc = sys.exc_info()[1]
        # A peer that hangs up mid-request is routine; anything else is
        # a defect in a handler and worth an operator's attention.
        EVENTS.emit("http_handler_error",
                    level=DEBUG if isinstance(exc, ConnectionError) else WARN,
                    client="%s:%s" % client_address[:2], error=repr(exc))
