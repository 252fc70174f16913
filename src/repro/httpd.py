"""HTTP/1.1 framing for both ends of the wire, and the server under the
query server.

:class:`~repro.net.QueryServer` is the application: it routes a path
(a ``/v1/`` endpoint, or one of the telemetry routes ``/metrics``,
``/healthz``, ``/varz``) and builds a response.  Everything that is
HTTP rather than application is here, on ``socketserver`` and nothing
else of the stdlib's HTTP stack:

* :func:`read_head` — the one message-head reader: a start line, then
  header fields up to the blank line.  The server reads requests with
  it and :class:`~repro.net.RemoteDatabase` reads responses with it;
  :func:`body_length` and :func:`read_exact` frame the body after it;
* :class:`HttpListener` — the listening socket, its serve thread, the
  bound address, the thread of each connection, and
  :meth:`~HttpListener.close`, which the application calls once it has
  finished what it admitted and which returns once every connection's
  thread has ended;
* :class:`Request` — one request as the application sees it: the
  method (``command``), ``path`` and ``headers``,
  :meth:`~Request.read_body`, and the one response writer,
  :meth:`~Request.send`, which records what it sent in
  :attr:`~Request.status`.

**A request is framed here, before the application runs:**

=====================================  ====================================
the request carries                    the substrate
=====================================  ====================================
``GET``/``POST`` ``target``            serves it
``HTTP/1.0`` or ``HTTP/1.1``
no ``Content-Length``                  serves it with an empty body
``Content-Length: n``, n <= 64 MiB     serves it; ``read_body()`` is n
(repeated with one value: one length)  bytes
a request line that is not three      answers 400 itself and closes the
words, a malformed version, a header   connection — the stream cannot be
line that is not ``name: value``       re-synchronised
(folded, a control byte, no colon),
a malformed, negative or conflicting
length, any ``Transfer-Encoding``
a length over :data:`MAX_BODY_BYTES`   413, and closes
a line over :data:`MAX_LINE_BYTES`     414 (request line) or 431 (header
or over :data:`MAX_HEADERS` fields     line, field count), and closes
another method; HTTP/2 and up          501; 505; and closes
=====================================  ====================================

A refused request never reaches the application, so it cannot hold one
of its admission slots; it leaves an ``http_request_refused`` event.  A
body the application did not read is read past *before* the response is
written when it is at most :data:`MAX_DRAIN_BYTES` — a response ahead of
unread body bytes would have the next request on the keep-alive
connection parsed out of them — and closes the connection when larger.
A peer that ends the stream inside a head or a body gets no answer.
``Expect: 100-continue`` is answered ``100 Continue`` once the request
is framed.

**A stalled peer is cut off.**  The wait for a request's first byte —
an idle keep-alive connection — is unbounded while the listener is
open, so a client's pooled sockets are never cut; :meth:`~HttpListener.close`
ends that wait.  Once that byte has arrived, each read of the
request's head and body, and the write of its response, must finish
within :data:`MESSAGE_TIMEOUT_S`; when one does not, the connection is
closed unanswered and leaves an ``http_request_timeout`` event.  A body
read that times out reaches the application as a
:class:`ConnectionResetError`, the peer gone.

HTTP/1.1 connections are keep-alive until ``Connection: close``;
HTTP/1.0 ones close after the response unless ``Connection:
keep-alive``.  Sockets run with ``TCP_NODELAY``; a response leaves as
one write (status line, headers and body); the listen backlog is 128.
An exception escaping a handler becomes an ``http_handler_error`` event
instead of ``socketserver``'s stderr traceback.
"""

from __future__ import annotations

import json
import re
import selectors
import socket
import socketserver
import sys
import threading
import time
from http import HTTPStatus

from .obs.events import DEBUG, EVENTS, WARN

__all__ = ["HttpListener", "Request", "FramingError", "read_head",
           "body_length", "read_exact", "MAX_BODY_BYTES", "MAX_DRAIN_BYTES",
           "MAX_LINE_BYTES", "MAX_HEADERS", "MESSAGE_TIMEOUT_S"]

#: Upper bound on request bodies; far above any sane batch, low enough
#: that a misbehaving client cannot balloon server memory.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: The largest unread body a response reads past to keep the connection.
MAX_DRAIN_BYTES = 1 << 20

#: The longest start line or header line, line ending included.
MAX_LINE_BYTES = 64 * 1024

#: The most header fields one message head may carry.
MAX_HEADERS = 100

#: Seconds each read of a request's head and body, and the write of its
#: response, may take once its first byte has arrived.
MESSAGE_TIMEOUT_S = 10.0

_TOKEN = re.compile(r"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")
_CONTROL = re.compile(r"[\x00-\x08\x0a-\x1f\x7f]")
_VERSION = re.compile(r"HTTP/(\d)\.\d")


class FramingError(Exception):
    """A message head or length the reader refuses; ``status`` is what a
    server answers for it (the connection is then closed)."""

    def __init__(self, status: int, reason: str) -> None:
        super().__init__(reason)
        self.status = status
        self.reason = reason


class Fields(dict):
    """Header fields by lower-case name; :meth:`get` takes any case."""

    def get(self, name: str, default=None):
        return super().get(name.lower(), default)


def _line(rfile, too_long: int, what: str) -> bytes:
    line = rfile.readline(MAX_LINE_BYTES + 1)
    if len(line) > MAX_LINE_BYTES:
        raise FramingError(too_long, f"{what} over {MAX_LINE_BYTES} bytes")
    return line


def read_head(rfile) -> tuple[str, Fields] | None:
    """Read one message head from a buffered binary stream.

    Returns the start line and the header fields, or ``None`` when the
    stream ends before a message starts.  A field given twice keeps both
    values, joined by ``", "``; two different ``Content-Length`` values
    are refused.
    Raises :class:`FramingError` for a head that breaks a rule of the
    table above, and :class:`ConnectionResetError` when the stream ends
    inside the head.
    """
    line = _line(rfile, 414, "request line")
    if not line:
        return None
    start = _strip_eol(line).decode("latin-1")
    fields = Fields()
    for count in range(MAX_HEADERS + 1):
        line = _line(rfile, 431, "header line")
        if line in (b"\r\n", b"\n"):
            return start, fields
        if count == MAX_HEADERS:
            raise FramingError(431, f"more than {MAX_HEADERS} header fields")
        if line[:1] in (b" ", b"\t"):
            raise FramingError(400, "folded header lines are not supported")
        text = _strip_eol(line).decode("latin-1")
        name, sep, value = text.partition(":")
        if not sep or not _TOKEN.fullmatch(name):
            raise FramingError(400, f"malformed header line {text[:64]!r}")
        value = value.strip(" \t")
        if _CONTROL.search(value):
            raise FramingError(400, f"control byte in header {name!r}")
        name = name.lower()
        if name in fields:
            if name == "content-length":
                if fields[name] != value:
                    raise FramingError(400, "conflicting Content-Length "
                                            "headers")
                continue
            value = f"{fields[name]}, {value}"
        fields[name] = value


def _strip_eol(line: bytes) -> bytes:
    if line.endswith(b"\r\n"):
        return line[:-2]
    if line.endswith(b"\n"):
        return line[:-1]
    raise ConnectionResetError("the stream ended inside a message head")


def body_length(fields: Fields) -> int:
    """The body length a head declares (0 without ``Content-Length``).

    Raises :class:`FramingError` for ``Transfer-Encoding`` (only
    ``Content-Length`` frames a body here) and for a length that is not
    a decimal number.
    """
    if "transfer-encoding" in fields:
        raise FramingError(400, "Transfer-Encoding is not supported; frame "
                                "the body with Content-Length")
    raw = fields.get("content-length")
    if raw is None:
        return 0
    if not (raw.isascii() and raw.isdigit()):
        raise FramingError(400, f"invalid Content-Length {raw[:64]!r}")
    digits = raw.lstrip("0")
    if len(digits) > 18:  # int() of thousands of digits is refused
        raise FramingError(413, f"Content-Length of {len(digits)} digits")
    return int(digits or "0")


def read_exact(rfile, length: int) -> bytes:
    """``length`` bytes; :class:`ConnectionResetError` if the stream ends
    first."""
    data = rfile.read(length)
    if len(data) != length:
        raise ConnectionResetError(
            f"the stream ended {length - len(data)} byte(s) short of a "
            f"{length}-byte body")
    return data


def connection_closes(version: str, fields: Fields) -> bool:
    """Whether a message ends its connection: ``Connection: close``, or
    HTTP/1.0 without ``Connection: keep-alive``."""
    tokens = {token.strip().lower()
              for token in fields.get("connection", "").split(",")}
    return "close" in tokens or (version == "HTTP/1.0"
                                 and "keep-alive" not in tokens)


class Request(socketserver.StreamRequestHandler):
    """One connection's handler; per request, what the application answers."""

    # Without it a response's segments can sit behind the peer's delayed
    # ACK (~40 ms per response on loopback).
    disable_nagle_algorithm = True

    #: Status of the response to the current request; ``None`` before it.
    status: int | None = None
    command = path = ""
    headers: Fields = Fields()
    close_connection = False
    _unread = 0
    _out = b""

    def handle(self) -> None:
        while not self.close_connection:
            self._serve_one()

    def _serve_one(self) -> None:
        self.status, self._unread = None, 0
        self.command = self.path = ""
        connection = self.connection
        connection.settimeout(None)  # idle between requests: no bound
        try:
            if not self.server._await_request(self):
                self.close_connection = True
                return
            connection.settimeout(MESSAGE_TIMEOUT_S)
            self._frame(*read_head(self.rfile))
            if (self._unread and self.headers.get("expect", "").lower()
                    == "100-continue" and self.request_version != "HTTP/1.0"):
                connection.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
        except FramingError as exc:
            self.close_connection = True
            EVENTS.emit("http_request_refused", level=WARN,
                        status=exc.status, reason=exc.reason)
            self.send_json(exc.status, {"error": exc.reason,
                                        "error_type": "NetError"})
            self._flush()
            return
        except ConnectionResetError:
            self.close_connection = True
            return
        except TimeoutError:
            self._timed_out("head")
            return
        try:
            self.server.handle(self)
        finally:
            self._flush()

    def _flush(self) -> None:
        # The response leaves once the application has returned, so what
        # it counts after send() is counted before the client can see it.
        out, self._out = self._out, b""
        if out:
            try:
                self.connection.sendall(out)
            except TimeoutError:
                self._timed_out("response")

    def _timed_out(self, stage: str) -> None:
        self.close_connection = True
        EVENTS.emit("http_request_timeout", level=WARN, stage=stage,
                    seconds=MESSAGE_TIMEOUT_S)

    def _frame(self, start: str, fields: Fields) -> None:
        """Take the request line and fix the body length, or raise
        :class:`FramingError` saying why not."""
        words = start.split()
        if len(words) != 3:
            raise FramingError(400, f"malformed request line {start[:64]!r}")
        method, target, version = words
        match = _VERSION.fullmatch(version)
        if match is None:
            raise FramingError(400, f"malformed HTTP version {version[:16]!r}")
        self.command, self.path, self.headers = method, target, fields
        self.request_version = version
        self.close_connection = connection_closes(version, fields)
        if match.group(1) != "1":
            raise FramingError(505, f"{version} is not supported; speak "
                                    f"HTTP/1.1")
        if method not in ("GET", "POST"):
            raise FramingError(501, f"unsupported method {method[:16]!r}")
        length = body_length(fields)
        if length > MAX_BODY_BYTES:
            raise FramingError(413, f"request body of {length} bytes exceeds "
                                    f"the {MAX_BODY_BYTES}-byte limit")
        self._unread = length

    def read_body(self) -> bytes:
        """The request body (empty when the request carried none).

        Raises :class:`ConnectionResetError` when the peer ends the
        stream or stalls for :data:`MESSAGE_TIMEOUT_S` inside it.
        """
        length, self._unread = self._unread, 0
        if not length:
            return b""
        try:
            return read_exact(self.rfile, length)
        except TimeoutError:
            self._timed_out("body")
            raise ConnectionResetError(
                "the peer stalled inside a request body") from None

    def send(self, status: int, body: bytes, content_type: str,
             headers: dict | None = None) -> None:
        """Answer the request: the one place the server does.  The
        response leaves in one write once the application returns."""
        if self._unread > MAX_DRAIN_BYTES:
            self.close_connection = True
        elif self._unread:
            self.read_body()
        self._unread = 0
        self.status = status
        if self.command == "HEAD":  # a HEAD response carries no body
            body = b""
        lines = [f"HTTP/1.1 {status} {HTTPStatus(status).phrase}",
                 f"Content-Type: {content_type}",
                 f"Content-Length: {len(body)}"]
        lines += [f"{name}: {value}"
                  for name, value in (headers or {}).items()]
        if self.close_connection:
            lines.append("Connection: close")
        head = "\r\n".join(lines) + "\r\n\r\n"
        self._out = head.encode("latin-1") + body

    def send_json(self, status: int, doc: dict, headers: dict | None = None,
                  *, pretty: bool = False) -> None:
        """:meth:`send` a JSON document (``pretty``: for people, sorted)."""
        text = (json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n"
                if pretty else json.dumps(doc))
        self.send(status, text.encode("utf-8"), "application/json", headers)


class HttpListener(socketserver.ThreadingTCPServer):
    """A bound socket served from a daemon thread.

    ``handle(request)`` is called on a per-connection thread for every
    well-framed GET or POST and answers through the :class:`Request`.
    The listener keeps every connection's thread, so :meth:`close` can
    end them all.
    """

    # The socketserver default backlog (5) resets connections when a
    # fleet of clients connects at once; the application's admission
    # control, not the listen queue, is the concurrency bound.
    request_queue_size = 128
    allow_reuse_address = True

    def __init__(self, host: str, port: int, handle) -> None:
        super().__init__((host, port), Request)
        self.handle = handle
        self._closing = False
        self._lock = threading.Lock()
        self._handlers: set[threading.Thread] = set()
        #: Sockets of the connections waiting for their next request.
        self._idle: set[socket.socket] = set()
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

    def process_request(self, request, client_address) -> None:
        # socketserver keeps no daemon thread, so the listener keeps them.
        thread = threading.Thread(target=self.process_request_thread,
                                  args=(request, client_address),
                                  name="repro-http-connection", daemon=True)
        with self._lock:
            self._handlers = {t for t in self._handlers if t.is_alive()}
            self._handlers.add(thread)
        thread.start()

    def _await_request(self, request: Request) -> bool:
        """Wait, unbounded, for the first byte of the connection's next
        request; ``False`` when the connection is to end instead: the
        peer closed it, or the listener is closing."""
        connection = request.connection
        with self._lock:
            if self._closing:
                return False
            self._idle.add(connection)
        try:
            return bool(request.rfile.peek(1))
        finally:
            with self._lock:
                self._idle.discard(connection)

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (the pick, when asked for port 0)."""
        return self.server_address[:2]

    def close(self) -> None:
        """Stop the accept loop and close the listening socket, then end
        every connection: an idle one at once (its read side is shut),
        a busy one after its response.  Returns once every connection's
        thread has ended, or after :data:`MESSAGE_TIMEOUT_S` at most."""
        with self._lock:
            self._closing = True
        try:  # wake the loop's select with a connection of our own
            socket.create_connection(self.address, timeout=1.0).close()
        except OSError:
            pass
        self._thread.join(timeout=5.0)
        self.server_close()
        with self._lock:
            for connection in self._idle:
                try:
                    connection.shutdown(socket.SHUT_RD)
                except OSError:  # the peer reset it first
                    pass
            handlers = self._handlers - {threading.current_thread()}
        deadline = time.monotonic() + MESSAGE_TIMEOUT_S
        for thread in handlers:
            thread.join(max(0.0, deadline - time.monotonic()))

    def handle_error(self, request, client_address) -> None:
        exc = sys.exc_info()[1]
        # A peer that hangs up mid-request is routine; anything else is
        # a defect in a handler and worth an operator's attention.
        EVENTS.emit("http_handler_error",
                    level=DEBUG if isinstance(exc, ConnectionError) else WARN,
                    client="%s:%s" % client_address[:2], error=repr(exc))
