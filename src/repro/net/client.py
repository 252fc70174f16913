"""The remote query handle: :class:`RemoteDatabase`.

``RemoteDatabase.connect(addr)`` is a drop-in replacement for
``Database.open(path)`` on the query side: it implements the same
:class:`~repro.api.QuerySurface` protocol, returns the same
:class:`~repro.indexes.base.Neighbor` objects, and raises the same
library exceptions (the server ships the exception *type name* in its
400 error document and the client re-raises the local class), so code
written against a local handle moves behind the network with zero
call-site changes.

Transport is a small pool of persistent plain sockets (HTTP/1.1
keep-alive), sized by ``connect(..., pool_size=)``.  A request leaves
as one write; its response is read with the server's own head reader,
:func:`repro.httpd.read_head` (status line, header fields, then
``Content-Length`` body bytes), and a ``Connection: close`` answer
discards the socket.  Connections are created lazily, so a single-threaded
caller still reuses exactly one socket; concurrent threads check out
distinct connections and issue requests in parallel (a thread only
waits when all ``pool_size`` connections are in flight).  Read
requests that fail at the socket layer reconnect and retry once;
mutations never auto-retry (the failure may have landed after the
server applied the write).  Every request body is matrix frames from
:mod:`repro.net.protocol`: ``knn``/``range`` send the points then one
``k`` or radius per row (a single query is a one-row batch),
``window`` its two corners, ``lookup`` its point as a one-row frame and
``explain`` that row then its ``k``; ``insert``, ``insert_many`` and
``delete`` send their points, then their payload values as one JSON
list when there are any.  A neighbor read gets one neighbor block back;
every other answer is a small JSON document.
"""

from __future__ import annotations

import json
import socket
import threading

from ..exceptions import (
    RERAISABLE,
    DeadlineExceededError,
    NetError,
    RemoteError,
    ServerOverloadedError,
)
from ..exec.batch import per_query
from ..geometry import as_point, as_points
from ..httpd import (
    Fields,
    FramingError,
    body_length,
    connection_closes,
    read_exact,
    read_head,
)
from . import protocol

__all__ = ["RemoteDatabase"]


class _Connection:
    """One keep-alive socket to the server, connected on first use.

    It writes a request as one buffer and reads the response with the
    server's own head reader (:func:`repro.httpd.read_head`): the status
    line, the header fields, then ``Content-Length`` body bytes.
    """

    __slots__ = ("_address", "_timeout", "_sock", "_rfile")

    def __init__(self, host: str, port: int, timeout: float) -> None:
        self._address = (host, port)
        self._timeout = timeout
        self._sock = self._rfile = None

    def exchange(self, message: bytes) -> tuple[int, Fields, bytes, bool]:
        """Send ``message``; ``(status, fields, body, closes)`` of the
        response, where ``closes`` says the connection ends with it."""
        if self._sock is None:
            self._sock = socket.create_connection(self._address,
                                                  self._timeout)
            # The request leaves in one write, but a response's segments
            # could otherwise wait on a delayed ACK.
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._rfile = self._sock.makefile("rb")
        self._sock.sendall(message)
        status = 100
        while status < 200:  # skip interim (1xx) responses
            head = read_head(self._rfile)
            if head is None:
                raise ConnectionResetError("the server closed the connection")
            start, fields = head
            version, _, rest = start.partition(" ")
            code = rest[:3]
            if not (version.startswith("HTTP/1.") and code.isdigit()):
                raise FramingError(502, f"malformed status line {start!r}")
            status = int(code)
        body = read_exact(self._rfile, body_length(fields))
        return status, fields, body, connection_closes(version, fields)

    def close(self) -> None:
        if self._sock is not None:
            self._rfile.close()
            self._sock.close()


class _ConnectionPool:
    """A bounded pool of lazily-created keep-alive connections.

    ``acquire`` hands out an idle connection, creates a fresh one while
    fewer than ``size`` exist, and otherwise blocks until a connection
    is released — so ``size`` bounds the client's concurrent in-flight
    requests without costing anything when unused (a single-threaded
    caller only ever creates one socket).
    """

    def __init__(self, host: str, port: int, timeout: float,
                 size: int) -> None:
        if size < 1:
            raise ValueError(f"pool_size must be >= 1, got {size}")
        self._host = host
        self._port = port
        self._timeout = timeout
        self.size = int(size)
        self._cv = threading.Condition()
        self._idle: list[_Connection] = []
        #: Connections currently checked out or idle (<= size).
        self.created = 0
        self._closed = False

    def acquire(self) -> _Connection:
        with self._cv:
            while True:
                if self._closed:
                    raise NetError("this RemoteDatabase is closed")
                if self._idle:
                    return self._idle.pop()
                if self.created < self.size:
                    self.created += 1
                    return _Connection(self._host, self._port, self._timeout)
                self._cv.wait()

    def release(self, conn: _Connection) -> None:
        with self._cv:
            if self._closed:
                _close_quietly(conn)
                return
            self._idle.append(conn)
            self._cv.notify()

    def discard(self, conn: _Connection) -> None:
        """Drop a broken/non-reusable connection; frees its pool slot."""
        _close_quietly(conn)
        with self._cv:
            self.created -= 1
            self._cv.notify()

    def close(self) -> None:
        with self._cv:
            self._closed = True
            idle, self._idle = self._idle, []
            self.created -= len(idle)
            self._cv.notify_all()
        for conn in idle:
            _close_quietly(conn)


def _close_quietly(conn: _Connection) -> None:
    try:
        conn.close()
    except OSError:
        pass


class RemoteDatabase:
    """A network-backed query handle with the local-handle query API.

    Use :meth:`connect`; the constructor is an implementation detail.

    ::

        with RemoteDatabase.connect("localhost:8750") as db:
            neighbors = db.knn([0.1] * db.dims, k=5)
    """

    def __init__(self, host: str, port: int, *, token: str | None,
                 timeout: float, deadline_ms: float | None,
                 pool_size: int = 4) -> None:
        self._host = host
        self._port = port
        self._token = token
        self._timeout = timeout
        self._deadline_ms = deadline_ms
        self._pool = _ConnectionPool(host, port, timeout, pool_size)
        self._host_line = (f"Host: [{host}]:{port}" if ":" in host
                           else f"Host: {host}:{port}")
        self._closed = False
        self._descriptor = self._request_json("GET", "server")
        if self._descriptor.get("protocol") != protocol.PROTOCOL_VERSION:
            self.close()
            raise NetError(
                f"server speaks protocol "
                f"{self._descriptor.get('protocol')!r}, this client speaks "
                f"{protocol.PROTOCOL_VERSION}")

    @classmethod
    def connect(cls, address: str, *, token: str | None = None,
                timeout: float = 10.0, deadline_ms: float | None = None,
                pool_size: int = 4) -> "RemoteDatabase":
        """Open a remote handle to a :class:`~repro.net.QueryServer`.

        Parameters
        ----------
        address:
            ``"host:port"`` or ``"http://host:port"``.
        token:
            Shared secret for mutation endpoints (reads need none).
        timeout:
            Socket-level timeout per request, seconds.
        deadline_ms:
            Default ``X-Repro-Deadline-Ms`` budget attached to every
            query; per-call ``deadline_ms=`` overrides it.
        pool_size:
            Maximum concurrent keep-alive connections.  Connections are
            created lazily, so the default costs nothing single-threaded
            while letting up to 4 threads issue requests in parallel.
        """
        if address.startswith("http://"):
            address = address[len("http://"):]
        elif address.startswith("https://"):
            raise NetError("the repro query protocol is plain HTTP; "
                           "terminate TLS in front of the server")
        address = address.rstrip("/")
        host, sep, port_text = address.rpartition(":")
        if not sep:
            raise NetError(f"address {address!r} is missing a port; "
                           f"expected 'host:port'")
        try:
            port = int(port_text)
        except ValueError:
            raise NetError(f"invalid port in address {address!r}") from None
        return cls(host or "127.0.0.1", port, token=token, timeout=timeout,
                   deadline_ms=deadline_ms, pool_size=pool_size)

    # ------------------------------------------------------------------
    # transport

    def _request(self, method: str, endpoint: str, body: bytes | None,
                 headers: dict, *, retry: bool) -> tuple[int, dict, bytes]:
        """One round trip; returns ``(status, response_headers, body)``
        (the headers by lower-case name)."""
        if self._closed:
            raise NetError("this RemoteDatabase is closed")
        lines = [f"{method} /v1/{endpoint} HTTP/1.1", self._host_line]
        if body is not None:
            lines.append(f"Content-Length: {len(body)}")
        for name, value in headers.items():
            if "\r" in value or "\n" in value:
                raise ValueError(f"invalid {name} header value {value!r}")
            lines.append(f"{name}: {value}")
        message = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        if body:
            message += body
        attempts = 2 if retry else 1
        conn: _Connection | None = self._pool.acquire()
        try:
            for attempt in range(attempts):
                try:
                    status, fields, payload, closes = conn.exchange(message)
                except (OSError, FramingError) as exc:
                    self._pool.discard(conn)
                    conn = None
                    if attempt + 1 < attempts:
                        conn = self._pool.acquire()
                        continue
                    raise NetError(
                        f"request to {self._host}:{self._port}"
                        f"/v1/{endpoint} failed: {exc!r}") from exc
                if closes:
                    self._pool.discard(conn)
                    conn = None
                return status, fields, payload
        finally:
            if conn is not None:
                self._pool.release(conn)
        raise AssertionError("unreachable")  # pragma: no cover

    def _headers(self, content_type: str | None,
                 deadline_ms: float | None) -> dict:
        headers = {}
        if content_type is not None:
            headers["Content-Type"] = content_type
        budget = self._deadline_ms if deadline_ms is None else deadline_ms
        if budget is not None:
            headers[protocol.DEADLINE_HEADER] = f"{float(budget):g}"
        if self._token is not None:
            headers[protocol.TOKEN_HEADER] = self._token
        return headers

    def _call(self, endpoint: str, frames: tuple | None = None,
              values: list | None = None, *, method: str = "POST",
              deadline_ms: float | None = None,
              mutation: bool = False) -> tuple[dict | None, bytes, str]:
        """One request: ``frames`` (arrays) go as matrix frames back to
        back, then ``values``, unless ``None``, as the values part."""
        body = content_type = None
        if frames is not None:
            body = b"".join(map(protocol.encode_matrix, frames))
            if values is not None:  # a value JSON cannot carry fails here
                body += protocol.encode_json(values, values)
            content_type = protocol.BINARY_CONTENT_TYPE
        headers = self._headers(content_type, deadline_ms)
        status, resp_headers, payload = self._request(
            method, endpoint, body, headers, retry=not mutation)
        resp_type = resp_headers.get("content-type", "").split(";")[0]
        if status == 200:
            if resp_type == protocol.JSON_CONTENT_TYPE:
                return json.loads(payload), payload, resp_type
            return None, payload, resp_type
        self._raise_for(status, resp_headers, payload, endpoint)
        raise AssertionError("unreachable")  # pragma: no cover

    def _raise_for(self, status: int, headers: dict, payload: bytes,
                   endpoint: str) -> None:
        try:
            doc = json.loads(payload)
        except (json.JSONDecodeError, UnicodeDecodeError):
            doc = {}
        message = doc.get("error", f"HTTP {status} from /v1/{endpoint}")
        error_type = doc.get("error_type")
        if status in (429, 503):
            retry_after = headers.get("retry-after")
            raise ServerOverloadedError(
                message,
                retry_after=float(retry_after) if retry_after else None)
        if status == 504:
            raise DeadlineExceededError(message)
        if status in (400, 405) and error_type in RERAISABLE:
            raise RERAISABLE[error_type](message)
        raise RemoteError(f"HTTP {status} from /v1/{endpoint}: {message}",
                          remote_type=error_type)

    # ------------------------------------------------------------------
    # descriptor / lifecycle

    def _request_json(self, method: str, endpoint: str) -> dict:
        doc, _, _ = self._call(endpoint, method=method)
        if doc is None:
            raise NetError(f"/v1/{endpoint} returned a non-JSON response")
        return doc

    @property
    def dims(self) -> int:
        return self._descriptor["dims"]

    @property
    def kind(self) -> str:
        return self._descriptor["kind"]

    @property
    def size(self) -> int:
        """Live size, re-fetched from the server."""
        return self._request_json("GET", "server")["size"]

    @property
    def address(self) -> tuple[str, int]:
        return self._host, self._port

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._pool.close()

    def __enter__(self) -> "RemoteDatabase":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (f"<RemoteDatabase {self._host}:{self._port} "
                f"kind={self._descriptor.get('kind')} {state}>")

    # ------------------------------------------------------------------
    # QuerySurface

    def _neighbors(self, endpoint: str, frames: tuple,
                   deadline_ms: float | None):
        """A neighbor read: one result list per query, from its block."""
        _, payload, resp_type = self._call(endpoint, frames=frames,
                                           deadline_ms=deadline_ms)
        if resp_type != protocol.NEIGHBORS_CONTENT_TYPE:
            raise NetError(
                f"unexpected {endpoint} response type {resp_type!r}")
        return protocol.decode_neighbor_block(payload)

    def knn(self, point, k: int = 1, *, deadline_ms: float | None = None):
        point = as_point(point, self.dims)[None]
        return self._neighbors("knn", (point, per_query("k", k, 1)),
                               deadline_ms)[0]

    def knn_batch(self, points, k=1, *, deadline_ms: float | None = None):
        """Batched kNN; ``k`` is a scalar or one value per query row."""
        points = as_points(points, self.dims)
        return self._neighbors(
            "knn", (points, per_query("k", k, len(points))), deadline_ms)

    def range(self, point, radius: float, *,
              deadline_ms: float | None = None):
        point = as_point(point, self.dims)[None]
        return self._neighbors(
            "range", (point, per_query("radius", radius, 1)), deadline_ms)[0]

    def range_batch(self, points, radius, *,
                    deadline_ms: float | None = None):
        """Batched range search; ``radius`` is a scalar or one per row."""
        points = as_points(points, self.dims)
        return self._neighbors(
            "range", (points, per_query("radius", radius, len(points))),
            deadline_ms)

    def window(self, low, high, *, deadline_ms: float | None = None):
        return self._neighbors("window", (as_point(low, self.dims),
                                          as_point(high, self.dims)),
                               deadline_ms)[0]

    def lookup(self, point, *, deadline_ms: float | None = None):
        response, _, _ = self._call(
            "lookup", (as_point(point, self.dims)[None],),
            deadline_ms=deadline_ms)
        return response["values"]

    def stats(self) -> dict:
        return self._request_json("GET", "stats")["stats"]

    def explain(self, point, k: int = 1) -> str:
        response, _, _ = self._call(
            "explain", (as_point(point, self.dims)[None],
                        per_query("k", k, 1)))
        return response["explain"]

    def server_info(self) -> dict:
        """The live service descriptor (protocol, limits, draining...)."""
        return self._request_json("GET", "server")

    # ------------------------------------------------------------------
    # mutations (token-authenticated, never auto-retried)

    def insert(self, point, value=None) -> int:
        response, _, _ = self._call(
            "insert", (as_point(point, self.dims)[None],),
            None if value is None else [value], mutation=True)
        return response["size"]

    def insert_many(self, points, values=None) -> int:
        """Bulk insert; returns the number of points inserted."""
        response, _, _ = self._call(
            "insert_many", (as_points(points, self.dims),),
            None if values is None else list(values), mutation=True)
        return response["inserted"]

    def delete(self, point, value=...) -> int:
        response, _, _ = self._call(
            "delete", (as_point(point, self.dims)[None],),
            None if value is ... else [value], mutation=True)
        return response["size"]
