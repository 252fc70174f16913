"""repro.net under production stress: admission, deadlines, drain.

The query server's contract is not just "answers match" (that is
tests/test_query_surface.py) but *how it fails*: a request whose
deadline already passed is shed with 504 before any index work runs, a
burst beyond ``max_inflight + max_queue`` is shed with 429 and a
``Retry-After`` hint, ``close()`` drains every admitted request to
completion (zero dropped), and a client that hangs up mid-request never
poisons the serving loop.  Shed decisions land in
``repro_shed_requests_total``, and the server's own ``/healthz`` flips
to 503 as soon as it starts draining — and keeps answering fresh
connections until the drain is done.
"""

from __future__ import annotations

import http.client
import json
import math
import socket
import struct
import sys
import threading
import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from repro.api import Database
from repro.exceptions import (
    DeadlineExceededError,
    DimensionalityError,
    KeyNotFoundError,
    NetError,
    RemoteError,
    ServerOverloadedError,
)
from repro import httpd
from repro.httpd import MAX_BODY_BYTES, body_length, read_exact, read_head
from repro.indexes.base import Neighbor
from repro.net import QueryServer, RemoteDatabase
from repro.net.protocol import (
    BINARY_CONTENT_TYPE,
    PROTOCOL_VERSION,
    decode_json,
    decode_matrix,
    decode_neighbor_block,
    encode_json,
    encode_matrix,
    encode_neighbor_block,
)
from repro.obs import REGISTRY
from repro.obs import server as telemetry
from repro.obs.events import EVENTS
from repro.obs.hooks import NET_REQUESTS, SHED_REQUESTS
from repro.storage import FaultPlan
from repro.workloads import uniform_dataset

from .helpers import post, raw_http


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    data = uniform_dataset(200, 6, seed=31)
    path = str(tmp_path_factory.mktemp("net") / "served.srtree")
    with Database.create(path, kind="sr", dims=6, page_size=2048) as db:
        db.insert_many(data)
    db = Database.open(path)
    yield SimpleNamespace(db=db, data=data, path=path)
    db.close()


class _Slow:
    """Query handle that sleeps inside each query (admission probe).

    Forwards everything else to the wrapped Database, so the server
    sees an ordinary non-pooled handle; ``calls`` counts how often a
    query actually dispatched.
    """

    def __init__(self, db, delay_s: float) -> None:
        self._db = db
        self._delay_s = delay_s
        self.calls = 0

    def _query(self, name, *args, **kwargs):
        self.calls += 1
        time.sleep(self._delay_s)
        return getattr(self._db, name)(*args, **kwargs)

    def knn(self, point, k=1, **kwargs):
        return self._query("knn", point, k=k, **kwargs)

    def knn_batch(self, points, k=1, **kwargs):
        return self._query("knn_batch", points, k=k, **kwargs)

    def __getattr__(self, name):
        return getattr(self._db, name)


class _Gated(_Slow):
    """Query handle whose queries wait for ``release``; ``entered`` is
    set once one is running (holds a drain open for exactly as long as
    a test needs)."""

    def __init__(self, db) -> None:
        super().__init__(db, 0.0)
        self.entered = threading.Event()
        self.release = threading.Event()

    def _query(self, name, *args, **kwargs):
        self.entered.set()
        assert self.release.wait(10.0)
        return super()._query(name, *args, **kwargs)


def _addr(server: QueryServer) -> str:
    return "%s:%d" % server.address


def _knn_body(point, k: int) -> bytes:
    """A one-row ``/v1/knn`` body: the point's frame, then its ``k``."""
    return (encode_matrix(np.asarray(point)[None])
            + encode_matrix(np.array([k])))


def assert_neighbors_equal(got, want):
    assert [n.value for n in got] == [n.value for n in want]
    for g, w in zip(got, want):
        assert g.distance == w.distance


# ---------------------------------------------------------------------------
# Deadline propagation
# ---------------------------------------------------------------------------


def test_expired_deadline_shed_before_dispatch(corpus):
    source = _Slow(corpus.db, 0.0)
    before = SHED_REQUESTS.labels(reason="deadline").value
    with QueryServer(source) as server:
        with RemoteDatabase.connect(_addr(server)) as rdb:
            with pytest.raises(DeadlineExceededError):
                rdb.knn(corpus.data[0], k=3, deadline_ms=0.0)
        assert server.describe()["shed"]["deadline"] == 1
    # The shed happened at admission: the index never saw the query.
    assert source.calls == 0
    assert SHED_REQUESTS.labels(reason="deadline").value == before + 1


def test_deadline_budget_propagates_into_pool_timeout(corpus, serving_pool):
    # A served pool gets the request's remaining budget as its per-call
    # timeout=.  A worker slower than the budget degrades that shard
    # (the pool's documented timeout behavior) instead of holding the
    # request open past its deadline, and the client gets a 504, not
    # the degraded shard's empty rows.
    slow = FaultPlan(slow_read_seconds=0.5)
    with serving_pool(corpus.path, workers=1,
                      _fault_plans={0: slow}) as pool:
        with QueryServer(pool) as server:
            with RemoteDatabase.connect(_addr(server)) as rdb:
                started = time.monotonic()
                with pytest.raises(DeadlineExceededError):
                    rdb.knn(corpus.data[0], k=3, deadline_ms=100.0)
                elapsed = time.monotonic() - started
            assert elapsed < 0.5  # did not wait out the worker's sleep


def test_unparseable_deadline_header_is_a_400(corpus):
    with QueryServer(corpus.db) as server:
        conn = http.client.HTTPConnection(*server.address)
        conn.request("POST", "/v1/knn", body=_knn_body(corpus.data[0], 1),
                     headers={"Content-Type": BINARY_CONTENT_TYPE,
                              "X-Repro-Deadline-Ms": "soon"})
        response = conn.getresponse()
        assert response.status == 400
        assert b"X-Repro-Deadline-Ms" in response.read()
        conn.close()


# ---------------------------------------------------------------------------
# Admission control: shedding under a burst
# ---------------------------------------------------------------------------


def test_burst_beyond_capacity_sheds_with_429(corpus):
    source = _Slow(corpus.db, 0.4)
    before = SHED_REQUESTS.labels(reason="overload").value
    with QueryServer(source, max_inflight=1, max_queue=0) as server:
        address = _addr(server)
        barrier = threading.Barrier(4)
        outcomes: list[str] = []
        lock = threading.Lock()

        def one_client() -> None:
            with RemoteDatabase.connect(address) as rdb:
                barrier.wait()
                try:
                    got = rdb.knn(corpus.data[0], k=2)
                    assert [n.value for n in got]
                    outcome = "ok"
                except ServerOverloadedError as exc:
                    assert exc.retry_after == 1.0
                    outcome = "shed"
            with lock:
                outcomes.append(outcome)

        # Burst at 4x max_inflight.
        threads = [threading.Thread(target=one_client) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert outcomes.count("ok") >= 1
        assert outcomes.count("shed") >= 1
        assert len(outcomes) == 4
        shed = outcomes.count("shed")
        assert server.describe()["shed"]["overload"] == shed
    assert SHED_REQUESTS.labels(reason="overload").value == before + shed


def test_queued_request_runs_when_a_slot_frees(corpus):
    # One in flight, one queued: with a queue slot and patience, the
    # second request is admitted when the first finishes — not shed.
    source = _Slow(corpus.db, 0.3)
    with QueryServer(source, max_inflight=1, max_queue=1,
                     queue_timeout_s=5.0) as server:
        address = _addr(server)
        want = corpus.db.knn(corpus.data[0], k=2)
        results: list = []

        def one_client() -> None:
            with RemoteDatabase.connect(address) as rdb:
                results.append(rdb.knn(corpus.data[0], k=2))

        threads = [threading.Thread(target=one_client) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert len(results) == 2
        for got in results:
            assert_neighbors_equal(got, want)
        assert server.describe()["shed"]["overload"] == 0


# ---------------------------------------------------------------------------
# Graceful drain
# ---------------------------------------------------------------------------


def test_drain_finishes_inflight_queries(corpus):
    source = _Slow(corpus.db, 0.5)
    server = QueryServer(source)
    address = _addr(server)
    want = corpus.db.knn_batch(corpus.data[:4], k=3)
    rdb = RemoteDatabase.connect(address)
    result: dict = {}

    def work() -> None:
        result["got"] = rdb.knn_batch(corpus.data[:4], k=3)

    thread = threading.Thread(target=work)
    thread.start()
    time.sleep(0.15)  # the batch is now inside the 0.5 s query
    server.close()  # drain must wait it out, not cut it off
    thread.join(timeout=10.0)
    assert not thread.is_alive()

    # Zero dropped: the in-flight batch completed with full results.
    assert len(result["got"]) == 4
    for got, expect in zip(result["got"], want):
        assert_neighbors_equal(got, expect)
    rdb.close()

    # The listener is gone: fresh connections are refused outright.
    with pytest.raises(NetError):
        RemoteDatabase.connect(address)


def test_draining_server_sheds_with_503(corpus):
    before = SHED_REQUESTS.labels(reason="draining").value
    with QueryServer(corpus.db) as server:
        with RemoteDatabase.connect(_addr(server)) as rdb:
            # Flip the admission gate without unbinding the listener —
            # exactly the window close() opens before the accept loop
            # stops.
            server._admission.start_drain()
            with pytest.raises(ServerOverloadedError):
                rdb.knn(corpus.data[0], k=1)
            # Control-plane reads stay available while draining.
            assert rdb.server_info()["draining"] is True
        assert server.describe()["shed"]["draining"] == 1
    assert SHED_REQUESTS.labels(reason="draining").value == before + 1


def test_drain_keeps_answering_fresh_connections(corpus):
    # Regression: close() stopped the accept loop before waiting for the
    # in-flight query, so a fresh connection during the drain got no
    # answer at all (reset when the socket closed) — neither the 503
    # health check a load balancer needs nor the 503 shed.
    source = _Gated(corpus.db)
    server = QueryServer(source)
    result: dict = {}

    def query() -> None:
        with RemoteDatabase.connect(_addr(server)) as rdb:
            result["got"] = rdb.knn(corpus.data[0], k=2)

    inflight = threading.Thread(target=query)
    closer = threading.Thread(target=server.close)
    inflight.start()
    try:
        assert source.entered.wait(10.0)
        closer.start()
        while not server.draining:
            time.sleep(0.005)
        health = raw_http(server.address,
                          b"GET /healthz HTTP/1.1\r\nHost: test\r\n"
                          b"Connection: close\r\n\r\n", timeout=3.0)
        shed = raw_http(server.address, _knn_request(
            corpus, extra=b"Connection: close\r\n"), timeout=3.0)
    finally:
        source.release.set()
        inflight.join(timeout=10.0)
        closer.join(timeout=10.0)
    assert health.startswith(b"HTTP/1.1 503 ")
    assert b"draining for shutdown" in health
    assert shed.startswith(b"HTTP/1.1 503 ")
    assert b"request shed: draining" in shed
    # The in-flight query still finished, in full.
    assert_neighbors_equal(result["got"], corpus.db.knn(corpus.data[0], k=2))
    assert source.calls == 1


def test_close_on_an_idle_server_does_not_wait_for_a_poll(corpus):
    # Regression: close() waited out the accept loop's 0.5 s poll.
    for _ in range(3):
        server = QueryServer(corpus.db)
        time.sleep(0.02)  # the accept loop is asleep in its select
        started = time.monotonic()
        server.close()
        assert time.monotonic() - started < 0.1


@pytest.mark.parametrize("call_ms", [0.0, 5.0])
def test_close_leaves_no_thread_or_socket(corpus, call_ms):
    # A 5 ms call makes the concurrent reads queue behind it and run as
    # groups; grouping, like a lone read, starts no thread of its own.
    before = set(threading.enumerate())
    server = QueryServer(_Slow(corpus.db, call_ms / 1e3), max_inflight=4)
    with RemoteDatabase.connect(_addr(server), pool_size=4) as rdb:
        readers = [threading.Thread(target=rdb.knn, args=(point,),
                                    kwargs={"k": 2})
                   for point in corpus.data[:4]]
        for reader in readers:
            reader.start()
        for reader in readers:
            reader.join(timeout=10.0)
    started = [thread for thread in threading.enumerate()
               if thread not in before and thread.name.startswith("repro-")]
    assert [thread.name for thread in started
            if thread.name != "repro-http-connection"] == ["repro-query-server"]
    server.close()
    assert [thread for thread in started if thread.is_alive()] == []
    assert server._listener.fileno() == -1
    server.close()  # idempotent


def test_close_ends_a_connection_idle_in_a_client_pool(corpus):
    # The client keeps its connection for the next call; the server's
    # handler thread waits on it for a next request.  close() shuts that
    # wait down: no connection's thread is alive once it returns.
    before = set(threading.enumerate())
    server = QueryServer(corpus.db)
    rdb = RemoteDatabase.connect(_addr(server))
    try:
        rdb.knn(corpus.data[0], k=2)
        assert rdb._pool.created == 1  # kept, idle
        server.close()
        assert [thread.name for thread in threading.enumerate()
                if thread not in before] == []
    finally:
        rdb.close()
        server.close()


def test_close_racing_callers_leaves_no_connection_thread(corpus):
    # Four callers keep four connections busy and idle by turns while the
    # server closes under them, with the interpreter switching threads
    # often; whatever each call got, no connection's thread is alive once
    # close() has returned.
    before = set(threading.enumerate())
    server = QueryServer(corpus.db, max_inflight=4)
    rdb = RemoteDatabase.connect(_addr(server), pool_size=4)
    stop = threading.Event()

    def call() -> None:
        while not stop.is_set():
            try:
                rdb.knn(corpus.data[0], k=2)
            except Exception:  # noqa: BLE001 - refused or cut by the close
                pass

    interval = sys.getswitchinterval()
    callers = [threading.Thread(target=call) for _ in range(4)]
    try:
        sys.setswitchinterval(1e-5)
        for caller in callers:
            caller.start()
        time.sleep(0.1)
        server.close()
        left = [thread.name for thread in threading.enumerate()
                if thread not in before and thread not in callers]
    finally:
        sys.setswitchinterval(interval)
        stop.set()
        for caller in callers:
            caller.join(timeout=10.0)
        rdb.close()
        server.close()
    assert not any(caller.is_alive() for caller in callers)
    assert left == []


# ---------------------------------------------------------------------------
# Client misbehavior
# ---------------------------------------------------------------------------


def test_client_disconnect_does_not_poison_the_server(corpus):
    source = _Slow(corpus.db, 0.3)
    with QueryServer(source) as server:
        sock = socket.create_connection(server.address)
        body = _knn_body(corpus.data[0], 2)
        sock.sendall(b"POST /v1/knn HTTP/1.1\r\n"
                     b"Host: test\r\n"
                     b"Content-Type: " + BINARY_CONTENT_TYPE.encode() +
                     b"\r\n"
                     b"Content-Length: " + str(len(body)).encode() +
                     b"\r\n\r\n" + body)
        sock.close()  # hang up while the query is still running
        time.sleep(0.5)

        # The serving loop is healthy: a well-behaved client gets the
        # right answer immediately afterwards.
        with RemoteDatabase.connect(_addr(server)) as rdb:
            want = corpus.db.knn(corpus.data[0], k=2)
            assert_neighbors_equal(rdb.knn(corpus.data[0], k=2), want)


def test_malformed_requests_are_client_errors(corpus):
    with QueryServer(corpus.db) as server:
        # Unknown endpoint namespace -> 404.
        status, _ = post(server.address, "teleport", {})
        assert status == 404

    # Library exceptions re-raise client-side as the same class.
    with QueryServer(corpus.db) as server:
        with RemoteDatabase.connect(_addr(server)) as rdb:
            with pytest.raises(DimensionalityError):
                rdb.knn(np.zeros(3), k=1)
            with pytest.raises(TypeError, match="kk"):
                rdb.knn(corpus.data[0], kk=3)
    # Refused by the client's signature, before any round trip: handle
    # and server are closed, yet the error is the keyword's.
    with pytest.raises(TypeError, match="algorithm"):
        rdb.knn(corpus.data[0], algorithm="best-first")


@pytest.mark.parametrize("endpoint, doc", [
    ("knn", {"point": [0.5] * 6, "k": 2}),
    ("range", {"point": [0.5] * 6, "radius": 0.3}),
    ("window", {"low": [0.0] * 6, "high": [1.0] * 6}),
    ("lookup", {"point": [0.5] * 6}),
    ("explain", {"point": [0.5] * 6, "k": 2}),
    ("insert", {"point": [0.5] * 6, "value": "v"}),
    ("insert_many", {"points": [[0.5] * 6], "values": ["v"]}),
    ("delete", {"point": [0.5] * 6})])
def test_a_json_neighbor_read_is_refused_naming_the_frames(corpus, endpoint,
                                                          doc):
    # Every request body is matrix frames (protocol 4): a JSON document
    # is refused with the content type it should have had, a mutation's
    # included, and nothing is written.
    with QueryServer(corpus.db, auth_token="t") as server:
        status, error_type, error = _error(post(server.address, endpoint,
                                                doc, token="t"))
    assert (status, error_type) == (400, "ValueError")
    assert BINARY_CONTENT_TYPE in error
    assert corpus.db.size == len(corpus.data)


@pytest.mark.parametrize("endpoint", ["knn_batch", "range_batch"])
def test_the_batch_endpoints_are_gone(corpus, endpoint):
    # A batch is a many-row body on /v1/knn or /v1/range.
    with QueryServer(corpus.db) as server:
        status, text = post(server.address, endpoint,
                            (corpus.data[:3], np.full(3, 2)))
    assert status == 404
    assert f"/v1/{endpoint}" not in json.loads(text)["paths"]


# ---------------------------------------------------------------------------
# Request framing (repro.httpd), over raw sockets
# ---------------------------------------------------------------------------


def _knn_request(corpus, length: bytes | None = None,
                 extra: bytes = b"") -> bytes:
    body = _knn_body(corpus.data[0], 2)
    if length is None:
        length = str(len(body)).encode()
    return (b"POST /v1/knn HTTP/1.1\r\nHost: test\r\n"
            b"Content-Type: " + BINARY_CONTENT_TYPE.encode() + b"\r\n"
            + extra +
            b"Content-Length: " + length + b"\r\n\r\n" + body)


@pytest.mark.parametrize("length, status", [
    (b"-1", 400), (b"abc", 400), (b"%d" % (MAX_BODY_BYTES + 1), 413)])
def test_unframeable_body_is_refused_and_closed(corpus, capfd, length,
                                                status):
    # Regression: `Content-Length: -1` blocked in rfile.read(-1) holding
    # an admission slot; `abc` died in int() with no response and a
    # socketserver traceback on stderr.
    with QueryServer(corpus.db) as server:
        emitted = EVENTS.emitted
        started = time.monotonic()
        raw = raw_http(server.address, _knn_request(corpus, length),
                       timeout=1.0)
        assert time.monotonic() - started < 1.0
        assert raw.startswith(b"HTTP/1.1 %d " % status)
        assert raw.count(b"HTTP/1.1 ") == 1  # then EOF: it closed
        assert server.describe()["inflight"] == 0
        assert EVENTS.emitted == emitted + 1
        event = EVENTS.tail(1)[0]
        assert event["event"] == "http_request_refused"
        assert event["status"] == status
    assert capfd.readouterr().err == ""


def test_refused_requests_hold_no_admission_slot(corpus):
    # Regression: max_inflight hundred-byte unauthenticated requests
    # wedged the data plane; every later query was shed 429.
    with QueryServer(corpus.db, max_inflight=2, max_queue=0) as server:
        socks = []
        try:
            for _ in range(2):
                sock = socket.create_connection(server.address, timeout=5.0)
                sock.sendall(_knn_request(corpus, b"-1"))
                socks.append(sock)
            for sock in socks:  # still open: at the parent, still reading
                assert sock.recv(65536).startswith(b"HTTP/1.1 400 ")
            raw = raw_http(server.address, _knn_request(
                corpus, extra=b"Connection: close\r\n"))
        finally:
            for sock in socks:
                sock.close()
        assert raw.startswith(b"HTTP/1.1 200 ")
        assert server.describe()["shed"]["overload"] == 0


def test_unread_body_is_read_past_before_the_response(corpus):
    # Regression: a GET's body was left unread, so the next request on
    # the connection was parsed as `helloGET ...` and answered 501.
    with QueryServer(corpus.db) as server:
        raw = raw_http(
            server.address,
            b"GET /v1/stats HTTP/1.1\r\nHost: test\r\n"
            b"Content-Length: 5\r\n\r\nhello"
            b"GET /v1/stats HTTP/1.1\r\nHost: test\r\n"
            b"Connection: close\r\n\r\n")
    assert raw.count(b"HTTP/1.1 ") == 2
    assert raw.count(b"HTTP/1.1 200 ") == 2


def test_chunked_body_is_refused_not_parsed(corpus):
    # The substrate frames bodies by Content-Length only: a chunked
    # POST is one 4xx on a connection that is then closed, never a
    # chunk-size line parsed as the next request.
    with QueryServer(corpus.db) as server:
        raw = raw_http(
            server.address,
            b"POST /v1/knn HTTP/1.1\r\nHost: test\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            b"5\r\nhello\r\n0\r\n\r\n")
    assert raw.startswith(b"HTTP/1.1 400 ")
    head, _, body = raw.partition(b"\r\n\r\n")
    (length,) = [int(line.split(b":")[1]) for line in head.split(b"\r\n")
                 if line.lower().startswith(b"content-length:")]
    assert len(body) == length  # nothing after the one response


def test_a_stalled_body_holds_no_admission_slot(corpus):
    # Regression: the body was read after admission, so one peer that
    # sent a head and stalled inside its body held the only slot, and a
    # well-formed query on a second connection was shed with 429.
    with QueryServer(corpus.db, max_inflight=1, max_queue=0) as server:
        with socket.create_connection(server.address, timeout=5.0) as peer:
            peer.sendall(b"POST /v1/knn HTTP/1.1\r\nHost: test\r\n"
                         b"Content-Type: " + BINARY_CONTENT_TYPE.encode() +
                         b"\r\n"
                         b"Content-Length: 100\r\n\r\n")
            time.sleep(0.2)  # its handler is now waiting for the body
            with RemoteDatabase.connect(_addr(server)) as rdb:
                got = rdb.knn(corpus.data[0], k=2)
        assert_neighbors_equal(got, corpus.db.knn(corpus.data[0], k=2))
        assert server.describe()["shed"]["overload"] == 0


def _handler_threads() -> list[threading.Thread]:
    return [thread for thread in threading.enumerate()
            if "process_request_thread" in thread.name]


@pytest.mark.parametrize("stage, payload", [
    ("head", b"POST /v1/knn HTTP/1.1\r\nHost: test\r\n"),
    ("body", b"POST /v1/knn HTTP/1.1\r\nHost: test\r\n"
             b"Content-Length: 100\r\n\r\nRPM1")])
def test_a_stalled_request_is_closed_after_the_bound(corpus, monkeypatch,
                                                     stage, payload):
    monkeypatch.setattr(httpd, "MESSAGE_TIMEOUT_S", 0.3)
    handlers = _handler_threads()
    with QueryServer(corpus.db, max_inflight=1, max_queue=0) as server:
        started = time.monotonic()
        raw = raw_http(server.address, payload, timeout=5.0)
        assert raw == b""  # closed unanswered, and not by raw_http's timeout
        assert 0.3 <= time.monotonic() - started < 3.0
        described = server.describe()
        assert described["inflight"] == described["queued"] == 0
        (event,) = [event for event in EVENTS.tail(20)
                    if event["event"] == "http_request_timeout"][-1:]
        assert event["stage"] == stage and event["seconds"] == 0.3
        for _ in range(100):  # its handler thread ends just after the close
            left = [thread for thread in _handler_threads()
                    if thread not in handlers]
            if not left:
                break
            time.sleep(0.02)
        assert left == []


def test_an_idle_keep_alive_connection_is_not_cut(corpus, monkeypatch):
    # The bound starts at a request's first byte: a pooled connection
    # may sit idle for longer and still be served.
    monkeypatch.setattr(httpd, "MESSAGE_TIMEOUT_S", 0.2)
    request = b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n"
    with QueryServer(corpus.db) as server:
        with socket.create_connection(server.address, timeout=5.0) as sock:
            rfile = sock.makefile("rb")
            for _ in range(2):
                sock.sendall(request)
                status, fields = read_head(rfile)
                read_exact(rfile, body_length(fields))
                assert status.startswith("HTTP/1.1 200 ")
                time.sleep(0.5)
            rfile.close()


# ---------------------------------------------------------------------------
# Authentication
# ---------------------------------------------------------------------------


def test_mutations_disabled_without_a_token(corpus):
    with QueryServer(corpus.db) as server:  # no auth_token
        with RemoteDatabase.connect(_addr(server)) as rdb:
            assert rdb.server_info()["mutations"] is False
            with pytest.raises(RemoteError, match="403"):
                rdb.insert(np.full(6, 0.5))


def test_token_gates_mutations_not_reads(tmp_path):
    path = str(tmp_path / "mut.srtree")
    with Database.create(path, kind="sr", dims=4) as db:
        db.insert_many(np.random.default_rng(7).random((16, 4)))
    with Database.open(path) as db:
        with QueryServer(db, auth_token="s3cret") as server:
            address = _addr(server)
            # Wrong token -> 401; the index is untouched.
            with RemoteDatabase.connect(address, token="wrong") as rdb:
                with pytest.raises(RemoteError, match="401"):
                    rdb.insert(np.full(4, 0.5))
                assert rdb.size == 16

            # No token at all: reads work, writes 401.
            with RemoteDatabase.connect(address) as rdb:
                assert len(rdb.knn(np.full(4, 0.5), k=3)) == 3
                with pytest.raises(RemoteError, match="401"):
                    rdb.delete(np.full(4, 0.5))

            # The right token mutates; size tracks live.
            with RemoteDatabase.connect(address, token="s3cret") as rdb:
                assert rdb.insert(np.full(4, 0.25), value="probe") == 17
                assert rdb.lookup(np.full(4, 0.25)) == ["probe"]
                batch = np.random.default_rng(8).random((5, 4))
                # insert_many returns the *inserted count*, matching
                # Database.insert_many (the size is 22 afterwards).
                assert rdb.insert_many(batch) == 5
                assert rdb.size == 22
                assert rdb.delete(np.full(4, 0.25), value="probe") == 21


def test_payload_values_mean_over_the_wire_what_they_mean_locally(tmp_path):
    # No values part is "no value": insert stores None, delete removes a
    # copy whatever its value; a values part [null] is the value None.
    path = str(tmp_path / "values.srtree")
    p, q = np.full(4, 0.25), np.full(4, 0.75)
    with Database.create(path, kind="sr", dims=4) as db, \
            QueryServer(db, auth_token="t") as server, \
            RemoteDatabase.connect(_addr(server), token="t") as rdb:
        assert rdb.insert(p) == 1
        assert rdb.insert(p, value="kept") == 2
        assert db.lookup(p) == [None, "kept"]
        assert rdb.delete(p, value=None) == 1
        assert db.lookup(p) == ["kept"]
        with pytest.raises(KeyNotFoundError):
            rdb.delete(p, value=None)
        assert rdb.delete(p) == 0  # whatever its value
        rdb.insert_many([q, q], values=[None, 7])
        assert sorted(db.lookup(q), key=repr) == [7, None]
        with pytest.raises(KeyNotFoundError):
            rdb.delete(q, value="absent")
        assert db.size == 2


def test_numpy_payload_values_are_python_scalars_on_every_handle(tmp_path):
    # np.arange values used to be stored as np.int64 locally and refused
    # remotely; both handles now store (and answer with) plain ints.
    points = np.array([[0.1, 0.1], [0.5, 0.5], [0.9, 0.9]])
    extra = np.full(2, 0.3)
    with Database.create(str(tmp_path / "local.srtree"), kind="sr",
                         dims=2) as local, \
            Database.create(str(tmp_path / "served.srtree"), kind="sr",
                            dims=2) as served, \
            QueryServer(served, auth_token="t") as server, \
            RemoteDatabase.connect(_addr(server), token="t") as rdb:
        for handle in (local, rdb):
            assert handle.insert_many(points, values=np.arange(3)) == 3
            handle.insert(extra, value=np.int64(7))
        for handle in (local, served, rdb):
            hits = handle.knn(points[1], k=4)
            assert sorted(hit.value for hit in hits) == [0, 1, 2, 7]
            assert {type(hit.value) for hit in hits} == {int}
            assert [type(v) for v in handle.lookup(extra)] == [int]
    assert decode_json(encode_json(
        [np.int64(1), np.float32(0.5), np.bool_(True)], ()))[0] == [1, 0.5, True]


def test_a_value_json_cannot_carry_is_refused_before_the_round_trip(
        tmp_path):
    path = str(tmp_path / "refused.srtree")
    with Database.create(path, kind="sr", dims=2) as db, \
            QueryServer(db, auth_token="t") as server, \
            RemoteDatabase.connect(_addr(server), token="t") as rdb:
        served = server.describe()["served"]
        for call in (lambda: rdb.insert([0.5, 0.5], value=object()),
                     lambda: rdb.insert_many([[0.5, 0.5]], values=[object()]),
                     lambda: rdb.delete([0.5, 0.5], value={1, 2})):
            with pytest.raises(NetError, match="not JSON-representable"):
                call()
        assert server.describe()["served"] == served  # nothing was sent
        assert db.size == 0


# ---------------------------------------------------------------------------
# Transport details: codecs, keep-alive, metrics, telemetry
# ---------------------------------------------------------------------------


def _error(status_and_text):
    """``(status, error_type, error)`` of a raw request's answer."""
    status, text = status_and_text
    doc = json.loads(text)
    return status, doc["error_type"], doc["error"]


def _refusal(call):
    """``(400, class name, message)`` a server should answer for what
    ``call`` raises locally."""
    with pytest.raises(Exception) as info:
        call()
    return 400, type(info.value).__name__, str(info.value)


@pytest.mark.parametrize("method,arg", [("knn_batch", "k"),
                                        ("range_batch", "radius")])
def test_batch_reads_take_matrix_frames_only(corpus, method, arg):
    # A batch body is the points then one k or radius per row, sent to
    # the single-query endpoint; a JSON body is refused with the content
    # type it should have had.
    endpoint = method.removesuffix("_batch")
    queries = corpus.data[:6]
    value = 3 if arg == "k" else 0.4
    with QueryServer(corpus.db) as server:
        status, text = post(server.address, endpoint,
                            {"points": queries.tolist(), arg: value})
        assert status == 400
        assert BINARY_CONTENT_TYPE in json.loads(text)["error"]
        # Points alone: the per-row frame is missing.
        status, error_type, error = _error(
            post(server.address, endpoint, (queries,)))
        assert (status, error_type) == (400, "NetError")
        assert "truncated" in error


@pytest.mark.parametrize("method,name,values", [
    ("knn_batch", "k", [1, 2]),
    ("range_batch", "radius", [0.1, 0.2]),
])
def test_per_row_frame_of_another_length_is_per_querys_refusal(
        corpus, method, name, values):
    # Six rows (one batched call) and one row (checked before it may
    # join a group) alike.
    local = getattr(corpus.db, method)
    with QueryServer(corpus.db) as server:
        for queries in (corpus.data[:6], corpus.data[:1]):
            want = _refusal(lambda: local(queries, values))
            assert want[1] == "ValueError" and "per-query" in want[2]
            got = _error(post(server.address, method.removesuffix("_batch"),
                              (queries, np.asarray(values))))
            assert got == want


def test_trailing_bytes_after_the_frames_are_a_400(tmp_path):
    data = uniform_dataset(40, 4, seed=12)
    path = str(tmp_path / "trail.srtree")
    with Database.create(path, kind="sr", dims=4) as db:
        db.insert_many(data)
        frames = encode_matrix(data[:3]) + encode_matrix(np.full(3, 2))
        with QueryServer(db, auth_token="t") as server:
            status, error_type, error = _error(
                post(server.address, "knn", frames + b"junk"))
            assert (status, error_type) == (400, "NetError")
            assert "4 byte(s) after the last of 2 matrix frame(s)" in error
            status, error_type, _ = _error(post(
                server.address, "insert_many",
                encode_matrix(data[:3]) + b"junk", token="t"))
            assert (status, error_type) == (400, "NetError")
            assert db.size == len(data)
            # The same frames without the junk are answered.
            assert post(server.address, "knn", frames)[0] == 200


@pytest.mark.parametrize("part", [b"{values", b"[" * 100_000, b"1" * 5000,
                                  b"\xff"])
def test_a_values_part_that_is_not_json_is_a_400(tmp_path, part):
    # Not JSON, nested past the recursion limit, an integer past the
    # digit limit, not UTF-8: a NetError, never a 500.
    with Database.create(str(tmp_path / "v.srtree"), kind="sr",
                         dims=2) as db, \
            QueryServer(db, auth_token="t") as server:
        status, error_type, error = _error(post(
            server.address, "insert", encode_matrix(np.full((1, 2), 0.5))
            + struct.pack("<I", len(part)) + part, token="t"))
        assert (status, error_type) == (400, "NetError")
        assert "JSON part is not JSON" in error
        assert db.size == 0


@pytest.mark.parametrize("radius", [None, [1, 2], -1.0, "far"])
def test_range_radius_is_refused_as_database_refuses_it(corpus, serving_pool,
                                                        radius):
    # A radius a frame can carry is sent raw; the client refuses the
    # others before the round trip, with the same words.
    point = corpus.data[0]
    want = _refusal(lambda: corpus.db.range(point, radius))
    with serving_pool(corpus.path, workers=1) as pool:
        for source in (corpus.db, pool):
            with QueryServer(source) as server:
                with RemoteDatabase.connect(_addr(server)) as rdb:
                    got = _refusal(lambda: rdb.range(point, radius))
                assert got == want, type(source).__name__
                if not isinstance(radius, str | None):
                    got = _error(post(server.address, "range", (
                        point[None], np.asarray(radius, dtype=float))))
                    assert got == want, type(source).__name__


# ---------------------------------------------------------------------------
# The decoders against a lying peer
# ---------------------------------------------------------------------------


def _block(prelude: bytes, distances, points) -> bytes:
    """A neighbor block from its parts, whatever they say."""
    return (b"RPN1" + struct.pack("<I", len(prelude)) + prelude
            + encode_matrix(np.asarray(distances, dtype=np.float64))
            + encode_matrix(np.asarray(points, dtype=np.float64)))


def _prelude(doc) -> bytes:
    return json.dumps(doc).encode()


LYING_BLOCKS = {
    "counts_beyond_the_rows": _block(
        _prelude({"counts": [3], "values": [[0, 1, 2]]}),
        [0.1, 0.2], np.zeros((2, 4))),
    "values_shorter_than_counts": _block(
        _prelude({"counts": [2], "values": [[0]]}),
        [0.1, 0.2], np.zeros((2, 4))),
    "no_counts": _block(_prelude({"values": [[0]]}), [0.1], np.zeros((1, 4))),
    "prelude_a_list": _block(_prelude([[1], [[0]]]), [0.1], np.zeros((1, 4))),
    "prelude_not_json": _block(b"{counts", [0.1], np.zeros((1, 4))),
    "prelude_nested_past_the_recursion_limit": _block(
        b"[" * 100_000, [0.1], np.zeros((1, 4))),
    "one_dimensional_points": _block(
        _prelude({"counts": [2], "values": [[0, 1]]}),
        [0.1, 0.2], np.zeros(2)),
    "extra_distance_rows": _block(
        _prelude({"counts": [1], "values": [[0]]}),
        [0.1, 0.2, 0.3], np.zeros((1, 4))),
    "bytes_after_the_points": _block(
        _prelude({"counts": [1], "values": [[0]]}),
        [0.1], np.zeros((1, 4))) + b"\0",
}


@pytest.mark.parametrize("name", sorted(LYING_BLOCKS))
def test_neighbor_block_that_does_not_add_up_is_a_net_error(name):
    with pytest.raises(NetError):
        decode_neighbor_block(LYING_BLOCKS[name])


def test_honest_neighbor_block_round_trips(corpus):
    results = corpus.db.knn_batch(corpus.data[:3], k=[1, 2, 3]) + [[]]
    for got, want in zip(decode_neighbor_block(encode_neighbor_block(results)),
                         results):
        assert_neighbors_equal(got, want)
    assert decode_neighbor_block(encode_neighbor_block([[]])) == [[]]


def _per_value_encode(results) -> bytes:
    """The neighbor-block encoder before the one-dump one: a
    ``json.dumps`` per value and a numpy array per point."""
    def checked(value):
        try:
            json.dumps(value)
        except (TypeError, ValueError):
            raise NetError(
                f"payload value {value!r} is not JSON-representable; the "
                f"network protocol carries JSON payload values only"
            ) from None
        return value

    counts = [len(r) for r in results]
    values = [[checked(n.value) for n in r] for r in results]
    flat = [n for r in results for n in r]
    distances = np.fromiter((n.distance for n in flat), dtype=np.float64,
                            count=sum(counts))
    points = (np.stack([np.asarray(n.point, np.float64) for n in flat])
              if flat else np.empty((0, 0), dtype=np.float64))
    prelude = json.dumps({"counts": counts, "values": values}).encode()
    return (b"RPN1" + struct.pack("<I", len(prelude)) + prelude
            + encode_matrix(distances) + encode_matrix(points))


def test_neighbor_block_encodes_byte_equal_to_the_per_value_encoder(corpus):
    results = corpus.db.knn_batch(corpus.data[:4], k=[1, 5, 21, 2]) + [[]]
    odd = [Neighbor(np.float64(0.5), corpus.data[0].astype(np.float32), v)
           for v in (None, "s", 1.5, float("nan"), [1, {"a": (2, 3)}],
                     {"k": None}, True, -(2**70))]
    for case in (results, [[]], [], [[], []], [odd], [odd[:1], [], odd]):
        assert encode_neighbor_block(case) == _per_value_encode(case)


@pytest.mark.parametrize("value", [object(), b"bytes", {1, 2}, [1, object()]])
def test_neighbor_block_refuses_a_value_json_cannot_carry(value):
    point = np.zeros(3)
    results = [[Neighbor(0.0, point, 1)], [Neighbor(0.1, point, 2),
                                          Neighbor(0.2, point, value)]]
    with pytest.raises(NetError) as want:
        _per_value_encode(results)
    with pytest.raises(NetError) as got:
        encode_neighbor_block(results)
    assert str(got.value) == str(want.value)


def test_decoded_points_are_writable_and_independent(corpus):
    results = corpus.db.knn_batch(corpus.data[:2], k=3)
    decoded = decode_neighbor_block(encode_neighbor_block(results))
    first, second = decoded[0][0].point, decoded[0][1].point
    want = second.copy()
    first[:] = -1.0  # a caller may scribble on an answer
    assert np.array_equal(second, want)
    assert all(type(n.distance) is float for row in decoded for n in row)


@pytest.mark.parametrize("shape", [(2**62, 4), (2**63, 2), (2**63, 0)])
def test_matrix_frame_with_an_overflowing_shape_is_a_net_error(shape):
    frame = (struct.pack("<4sBBH", b"RPM1", 0, len(shape), 0)
             + struct.pack(f"<{len(shape)}Q", *shape) + bytes(64))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NetError):
            decode_matrix(frame)


@pytest.mark.parametrize("dtype", ["<f8", "<f4", "<i8"])
@pytest.mark.parametrize("shape", [(), (3,), (2, 3), (2, 0, 3)])
def test_matrix_frame_round_trips_shape_and_dtype(shape, dtype):
    # Regression: a 0-d array went out as shape (1,).
    array = np.arange(math.prod(shape)).astype(dtype).reshape(shape)
    for sent in (array, array.T):  # the transpose is not C-contiguous
        got, end = decode_matrix(encode_matrix(sent))
        assert (got.shape, got.dtype) == (sent.shape, sent.dtype)
        assert np.array_equal(got, sent)
        assert end == len(encode_matrix(sent))


def test_keep_alive_reuses_one_connection(corpus):
    with QueryServer(corpus.db) as server:
        with RemoteDatabase.connect(_addr(server)) as rdb:
            rdb.knn(corpus.data[0], k=1)
            pool = rdb._pool
            assert pool.created == 1
            for i in range(5):
                rdb.knn(corpus.data[i], k=1)
            # Sequential calls reuse one pooled HTTP/1.1 connection;
            # the pool never had to open a second.
            assert pool.created == 1
        assert server.describe()["served"] >= 7  # descriptor + 6 queries


class _Scripted:
    """A server that answers each request it reads with the next scripted
    reply: raw response bytes, or ``None`` to close the connection
    without one.  ``requests`` holds the request lines it read."""

    def __init__(self, *replies) -> None:
        self.replies = list(replies)
        self.requests: list[str] = []
        self.closing = False
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.address = "%s:%d" % self.sock.getsockname()[:2]
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self) -> None:
        while self.replies:
            conn, _ = self.sock.accept()
            if self.closing:
                conn.close()
                return
            with conn, conn.makefile("rb") as rfile:
                while self.replies and (head := read_head(rfile)):
                    read_exact(rfile, body_length(head[1]))
                    self.requests.append(head[0])
                    reply = self.replies.pop(0)
                    if reply is None:
                        break
                    conn.sendall(reply)

    def close(self) -> None:
        # Closing the socket does not wake a blocked accept(): a
        # connection of its own does.
        self.closing = True
        socket.create_connection(self.sock.getsockname()[:2],
                                 timeout=1.0).close()
        self.thread.join(timeout=5.0)
        assert not self.thread.is_alive()
        self.sock.close()


def _reply(doc: dict, extra: bytes = b"") -> bytes:
    body = json.dumps(doc).encode()
    return (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n" + extra
            + b"Content-Length: %d\r\n\r\n" % len(body) + body)


_DESCRIPTOR = _reply({"protocol": PROTOCOL_VERSION, "dims": 2,
                      "kind": "srtree"})


def test_client_refuses_a_server_of_another_protocol():
    # A protocol-3 server still parses JSON bodies; this client sends
    # none, so it refuses the server before any call.
    peer = _Scripted(_reply({"protocol": PROTOCOL_VERSION - 1, "dims": 2}))
    try:
        with pytest.raises(NetError, match="server speaks protocol 3"):
            RemoteDatabase.connect(peer.address)
    finally:
        peer.close()


def test_client_retries_a_read_once_on_a_dropped_connection():
    peer = _Scripted(_DESCRIPTOR, None, _reply({"stats": {"pages": 3}}))
    try:
        with RemoteDatabase.connect(peer.address) as rdb:
            assert rdb.stats() == {"pages": 3}
        assert peer.requests == ["GET /v1/server HTTP/1.1"] + [
            "GET /v1/stats HTTP/1.1"] * 2
    finally:
        peer.close()


def test_client_never_retries_a_mutation():
    peer = _Scripted(_DESCRIPTOR, None, _reply({"ok": True, "size": 1}))
    try:
        with RemoteDatabase.connect(peer.address, token="t") as rdb:
            with pytest.raises(NetError, match="insert failed"):
                rdb.insert([0.5, 0.5])
        assert peer.requests == ["GET /v1/server HTTP/1.1",
                                 "POST /v1/insert HTTP/1.1"]
    finally:
        peer.close()


def test_client_drops_a_connection_the_server_closes():
    peer = _Scripted(_reply({"protocol": PROTOCOL_VERSION, "dims": 2},
                            b"Connection: close\r\n"),
                     _reply({"stats": {}}))
    try:
        with RemoteDatabase.connect(peer.address) as rdb:
            assert rdb._pool.created == 0  # discarded, not kept idle
            assert rdb.stats() == {}
    finally:
        peer.close()


def test_client_skips_interim_responses_and_refuses_malformed_ones():
    malformed = b"HTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n"
    peer = _Scripted(b"HTTP/1.1 100 Continue\r\n\r\n" + _DESCRIPTOR,
                     malformed, malformed)
    try:
        with RemoteDatabase.connect(peer.address) as rdb:
            assert rdb.dims == 2
            with pytest.raises(NetError, match="malformed status line"):
                rdb.stats()
    finally:
        peer.close()


def _requests_total() -> float:
    return sum(value for key, value in REGISTRY.flatten().items()
               if key.startswith("repro_net_requests_total"))


def _get_json(server: QueryServer, path: str) -> tuple[int, dict]:
    conn = http.client.HTTPConnection(*server.address, timeout=10)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def test_request_metrics_and_telemetry_surface(corpus):
    before = NET_REQUESTS.labels(endpoint="knn", status="200").value
    server = QueryServer(corpus.db)
    try:
        status, doc = _get_json(server, "/healthz")
        assert status == 200
        assert doc["checks"][-1]["check"] == "query_server[0]"

        with RemoteDatabase.connect(_addr(server)) as rdb:
            rdb.knn(corpus.data[0], k=2)
        assert NET_REQUESTS.labels(endpoint="knn",
                                   status="200").value == before + 1

        requests = _requests_total()
        _status, doc = _get_json(server, "/varz")
        snapshot = [entry for entry in doc["snapshots"]
                    if entry["handle"] == "query_server[0]"]
        assert snapshot and snapshot[0]["served"] >= 1
        assert snapshot[0]["draining"] is False
        # The telemetry routes are not query requests.
        assert _requests_total() == requests
    finally:
        server.close()

    # A draining/closed query server flips /healthz to unhealthy, so
    # load balancers stop routing to it.
    healthy, doc = telemetry.health(corpus.db, server)
    assert not healthy
    assert doc["checks"][-1]["detail"] == "draining for shutdown"


def test_stats_and_explain_over_the_wire(corpus):
    with QueryServer(corpus.db) as server:
        with RemoteDatabase.connect(_addr(server)) as rdb:
            stats = rdb.stats()
            assert stats["kind"] == "srtree"
            text = rdb.explain(corpus.data[0], k=3)
            assert "knn" in text.lower() or "k-nn" in text.lower()
