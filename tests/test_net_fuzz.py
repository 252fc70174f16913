"""Generated raw requests against the HTTP framing under ``QueryServer``.

Hypothesis writes whole requests byte by byte — request lines, header
sets (duplicates, conflicting lengths, folded lines, NUL and non-ASCII
bytes, 64 KiB lines, 101 headers), bodies that stop short of their
``Content-Length`` or run past it, and a second request pipelined in
the same write — and sends each over a raw socket
(``tests/helpers.py:raw_http``), shutting the sending side after it.

The oracle, for every request:

* every response is well framed (status line, headers, exactly
  ``Content-Length`` body bytes, nothing after the last) and is a 4xx,
  the substrate's 501/505 refusal, or the server's own answer — never a
  500, and never an exception escaping a handler;
* the server answers and closes within the timeout: no hang;
* no admission slot is left held: ``describe()["inflight"] == 0``;
* no response is parsed out of a body: there are never more responses
  than requests sent.

Every defect the fuzzer has found is a named regression test below it.

The second fuzzer writes the one request shape every body has: matrix
frames on ``/v1/knn``, ``/v1/range``, ``/v1/window``, ``/v1/lookup``
and ``/v1/explain``, with 0, 1, 2 or 33 rows, NaN/inf coordinates, ``k``
and radii, a wrong ``D``, a per-row frame of another length,
truncation, trailing bytes, shape and length lies, a JSON body, and
``X-Repro-Deadline-Ms`` values.  Half of them arrive while a lone
``knn`` is held open with a good request queued behind it, so a one-row
body may join that request's group.  Its oracle is the served
``Database`` over the same corpus: a 200 whose answer equals what
``Database`` answers for the decoded frames, or a 400 naming the class
``Database`` raises (a 504 only for a spent deadline); the groupmates
are answered correctly, no slot is left held, and a good request on
the same keep-alive connection is answered after it.

The third writes ``/v1/insert``, ``/v1/insert_many`` and
``/v1/delete`` bodies the same way — points, then no values part, a
``null``, a string or a row's own value — damaged as above, or by a
values list of the wrong length or a values part that is not a list.
Each starts from a fresh copy of one corpus, and its oracle is a second
``Database`` given the same call: the same answer or refusal, and
afterwards the same size and the same values at every corpus point and
every point of the request.

The fourth points the same damages at a serving-pool worker's pipe,
which speaks the wire's formats: a well-formed request (a JSON part,
then ``knn``, ``range`` or ``window`` frames) cut short, with a bad
magic, an unknown dtype code, a lying shape word, trailing bytes, a
frame missing or one too many, or an op no worker knows.  Its oracle:
the worker answers one error part naming ``NetError`` — never a block,
a traceback or a lost shard — stays alive, and then answers the request
undamaged as ``Database`` does.

``make test-net`` runs all four deeper (``--hypothesis-profile=deep``).
"""

from __future__ import annotations

import json
import re
import struct
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import Database
from repro.exceptions import NetError
from repro.geometry import as_points
from repro.net import QueryServer
from repro.net.protocol import (
    BINARY_CONTENT_TYPE,
    decode_json,
    decode_matrix,
    decode_neighbor_block,
    encode_json,
    encode_matrix,
)
from repro.obs.events import EVENTS, WARN
from repro.workloads import uniform_dataset

from .helpers import raw_http

DIMS = 3
#: A one-row ``/v1/knn`` body: the point's frame, then its k.
KNN_BODY = (encode_matrix(np.full((1, DIMS), 0.5))
            + encode_matrix(np.array([2])))
#: A JSON document where a request line should be.
JSON_LINE = json.dumps({"point": [0.5] * DIMS, "k": 2}).encode()
#: A whole request, as a body: answered twice if a body is ever parsed.
EMBEDDED = b"GET /v1/stats HTTP/1.1\r\nHost: fuzz\r\n\r\n"
PIPELINED = b"GET /v1/server HTTP/1.1\r\nHost: fuzz\r\n\r\n"
#: What a body that runs past its length carries beyond it.
OVERRUN = b"XYZ"

#: Statuses the substrate may answer beside 4xx: an unsupported method
#: (501) or HTTP version (505); a spent deadline header sheds with 504.
SUBSTRATE_5XX = {501, 504, 505}
#: Events that mean a defect: an exception escaped a handler or an
#: endpoint.
DEFECT_EVENTS = {"http_handler_error", "query_server_error"}


class _Holdable:
    """The served ``Database``, whose next ``knn`` call can be held open
    (``hold()`` returns the event that releases it)."""

    def __init__(self, db) -> None:
        self._db = db
        self._gate: threading.Event | None = None
        self.entered = threading.Event()

    def __getattr__(self, name):
        return getattr(self._db, name)

    def hold(self) -> threading.Event:
        self.entered.clear()
        self._gate = threading.Event()
        return self._gate

    def knn(self, *args, **kwargs):
        gate, self._gate = self._gate, None
        if gate is not None:
            self.entered.set()
            assert gate.wait(10.0)
        return self._db.knn(*args, **kwargs)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("fuzz") / "fuzz.srtree")
    data = uniform_dataset(60, DIMS, seed=7)
    with Database.create(path, kind="sr", dims=DIMS, page_size=2048) as db:
        db.insert_many(data)
    db = Database.open(path)
    source = _Holdable(db)
    server = QueryServer(source)
    yield SimpleNamespace(db=db, data=data, source=source, server=server)
    server.close()
    db.close()


@pytest.fixture(scope="module")
def server(served):
    return served.server


def _budget(examples: int) -> settings:
    deep = settings.get_current_profile_name() == "deep"
    return settings(max_examples=10 * examples if deep else examples,
                    deadline=None, derandomize=not deep,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.data_too_large])


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

methods = st.one_of(
    st.sampled_from([b"GET", b"POST", b"PUT", b"HEAD", b"DELETE",
                     b"OPTIONS", b"get", b"G\x00T", b"P\xc3\x96ST"]),
    st.binary(max_size=8))
targets = st.one_of(
    st.sampled_from([b"/v1/knn", b"/v1/stats", b"/v1/server", b"/healthz",
                     b"/metrics", b"/varz", b"/v1/nope", b"*",
                     b"/v1/stats?x=1", b"//v1/stats", b"/\xff\xfe",
                     b"/v1/knn\x00"]),
    st.binary(max_size=16))
versions = st.sampled_from([b"HTTP/1.1", b"HTTP/1.0", b"HTTP/0.9",
                            b"HTTP/2.0", b"HTTP/1.x", b"HTTP/11",
                            b"http/1.1", b"HTTP/1.1 extra"])


def _one_line(data: bytes) -> bytes:
    """``data`` with no line ending in it: one line of the head."""
    return data.replace(b"\n", b"").replace(b"\r", b"")


@st.composite
def request_lines(draw) -> bytes:
    # Half are well formed, so what follows the line gets exercised too.
    kind = draw(st.sampled_from(["good"] * 5 + ["three", "three", "two",
                                                "raw", "long"]))
    if kind == "good":
        return b" ".join([draw(st.sampled_from([b"GET", b"POST"])),
                          draw(st.sampled_from([b"/v1/knn", b"/v1/stats",
                                                b"/healthz"])),
                          draw(st.sampled_from([b"HTTP/1.1"] * 3
                                               + [b"HTTP/1.0"]))])
    if kind == "raw":
        return _one_line(draw(st.binary(max_size=40)))
    if kind == "long":
        return b"GET /" + b"a" * (64 * 1024) + b" HTTP/1.1"
    words = [draw(methods), draw(targets)]
    if kind == "three":
        words.append(draw(versions))
    return b" ".join(words)


good_headers = st.sampled_from([
    b"Host: fuzz",
    b"Content-Type: application/json",
    b"Content-Type: " + BINARY_CONTENT_TYPE.encode(),
    b"Connection: keep-alive",
    b"Connection: Keep-Alive, close",
    b"Expect: 100-continue",
    b"Expect: nonsense",
    b"X-Repro-Deadline-Ms: 5000",
    b"X-Repro-Token: secret",
    b"X-Latin: caf\xe9",
])
bad_headers = st.one_of(
    st.sampled_from([
        b"X-Repro-Deadline-Ms: 0",
        b"X-Repro-Deadline-Ms: nan",
        b"\tfolded continuation",
        b" folded continuation",
        b"X-Nul: a\x00b",
        b"X-\x00Name: v",
        b"X-\xffName: \xfe",
        b"NoColonHere",
        b"Host : spaced",
        b": empty-name",
        b"X-Long: " + b"a" * (64 * 1024),
        b"X-CR: a\rb",
    ]),
    st.builds(lambda name, value: name + b": " + value,
              st.binary(min_size=1, max_size=12).map(_one_line),
              st.binary(max_size=24).map(_one_line)))
#: Lengths that do not frame a body: each is refused, never guessed at.
bad_lengths = st.sampled_from([
    b"abc", b"-1", b"+5", b"5, 5", b"0x10", b"", b"\xb2",
    b"1" + b"0" * 5000, b"99999999999"])


@st.composite
def raw_requests(draw) -> tuple[bytes, int]:
    """One generated request (maybe followed by a pipelined one) and the
    most responses it may get."""
    line = draw(request_lines())
    headers = draw(st.lists(good_headers, max_size=4))
    if draw(st.integers(0, 2)) == 0:
        headers += draw(st.lists(bad_headers, min_size=1, max_size=2))
    if draw(st.integers(0, 9)) == 0:
        headers += [b"X-Many-%d: v" % i for i in range(101)]
    body = draw(st.one_of(
        st.sampled_from([b"", KNN_BODY, EMBEDDED, b"hello\r\n\r\n"]),
        st.binary(max_size=64)))
    framing = draw(st.sampled_from(
        ["exact", "exact", "none", "short", "long", "conflict", "twice",
         "lie", "chunked"]))
    sent, most = body, 1
    if framing in ("exact", "long"):
        headers.append(b"Content-Length: %d" % len(body))
    elif framing == "short":  # the body stops short of its length
        headers.append(b"Content-Length: %d" % (len(body) + 7))
    elif framing == "conflict":  # were the other one believed, the rest
        # of the body would be read as a request
        headers += [b"Content-Length: %d" % len(body), b"Content-Length: %d"
                    % draw(st.integers(0, max(len(body) - 1, 0)))]
    elif framing == "twice":
        headers += [b"Content-Length: %d" % len(body)] * 2
    elif framing == "lie":
        headers.append(b"Content-Length: " + draw(bad_lengths))
    elif framing == "chunked":
        headers.append(draw(st.sampled_from([
            b"Transfer-Encoding: chunked", b"Transfer-Encoding: identity"])))
    if framing == "long":
        sent, most = body + OVERRUN, 2  # the overrun reads as a request
    elif framing == "none":  # the body is requests: a head takes 2 "\n"s
        most += body.count(b"\n") // 2
    order = draw(st.permutations(range(len(headers))))
    payload = b"".join([line, b"\r\n"]
                       + [headers[i] + b"\r\n" for i in order]
                       + [b"\r\n", sent])
    if draw(st.booleans()):
        payload, most = payload + PIPELINED, most + 1
    return payload, most


# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------

_STATUS_LINE = re.compile(rb"HTTP/1\.[01] (\d{3}) [^\r\n]*\Z")


def responses(raw: bytes) -> list[tuple[int, dict, bytes]]:
    """The final responses in ``raw``, in order; asserts each is framed
    and that nothing follows the last one."""
    found, offset = [], 0
    while offset < len(raw):
        end = raw.find(b"\r\n\r\n", offset)
        assert end >= 0, f"unframed bytes after a response: {raw[offset:]!r}"
        lines = raw[offset:end].split(b"\r\n")
        match = _STATUS_LINE.match(lines[0])
        assert match, f"not a status line: {lines[0]!r}"
        status = int(match.group(1))
        offset = end + 4
        if status == 100:  # the interim answer to Expect: 100-continue
            continue
        headers = {}
        for line in lines[1:]:
            name, sep, value = line.partition(b":")
            assert sep, f"not a header line: {line!r}"
            headers[name.strip().lower()] = value.strip()
        length = int(headers[b"content-length"])
        body = raw[offset:offset + length]
        assert len(body) == length, f"short body: {raw[offset:]!r}"
        offset += length
        found.append((status, headers, body))
    return found


def check(server, payload: bytes, most: int) -> list:
    """Send ``payload`` and hold the server to the oracle; returns the
    responses."""
    before = EVENTS.emitted
    raw = raw_http(server.address, payload, timeout=5.0, half_close=True)
    got = responses(raw)
    for status, _headers, body in got:
        assert status < 500 or status in SUBSTRATE_5XX, (status, body)
    assert len(got) <= most, [status for status, _, _ in got]
    described = server.describe()
    assert (described["inflight"], described["queued"]) == (0, 0)
    emitted = EVENTS.emitted - before
    defects = [event for event in
               (EVENTS.tail(emitted, level=WARN) if emitted else [])
               if event["event"] in DEFECT_EVENTS]
    assert not defects, defects
    return got


@_budget(150)
@given(request=raw_requests())
def test_generated_requests_meet_the_oracle(server, request):
    check(server, *request)


# ---------------------------------------------------------------------------
# Named regression seeds: what the fuzzer found, and the rules it pins
# ---------------------------------------------------------------------------


def _knn(*headers: bytes, body: bytes = KNN_BODY) -> bytes:
    return b"".join([b"POST /v1/knn HTTP/1.1\r\nHost: fuzz\r\n",
                     b"Content-Type: %s\r\n" % BINARY_CONTENT_TYPE.encode()]
                    + [h + b"\r\n" for h in headers] + [b"\r\n", body])


def _statuses(got) -> list[int]:
    return [status for status, _, _ in got]


def test_well_formed_requests_answer_200(server):
    got = check(server, _knn(b"Content-Length: %d" % len(KNN_BODY))
                + PIPELINED, 2)
    assert _statuses(got) == [200, 200]


def test_conflicting_content_lengths_are_400_and_close(server):
    # Found on the http.server substrate: the first of two lengths won,
    # so the rest of the body was parsed as a second request.
    body = b"{}" + EMBEDDED
    got = check(server, _knn(b"Content-Length: 2",
                             b"Content-Length: %d" % len(body), body=body), 1)
    assert _statuses(got) == [400]
    assert got[0][1][b"connection"] == b"close"


def test_equal_duplicate_content_lengths_are_one_length(server):
    got = check(server, _knn(*[b"Content-Length: %d" % len(KNN_BODY)] * 2),
                1)
    assert _statuses(got) == [200]


def test_content_length_of_thousands_of_digits_is_refused(server):
    # Found on the http.server substrate: int() refused a 5 000-digit
    # length, and the exception escaped the handler with no response.
    got = check(server, _knn(b"Content-Length: 1" + b"0" * 5000), 1)
    assert _statuses(got) == [413]
    got = check(server, _knn(b"Content-Length: " + b"0" * 5000 + b"5",
                             body=b"hello"), 1)
    assert _statuses(got) == [400]  # served: five bytes, not a frame


@pytest.mark.parametrize("line, status", [
    (b"GET /healthz", 400),
    (b"\x00", 400),
    (b"GET  HTTP/1.1", 400),
    (JSON_LINE, 400),
    (b"GET /healthz HTTP/1.x", 400),
    (b"GET /healthz HTTP/0.9", 505),
    (b"GET /healthz HTTP/2.0", 505),
])
def test_request_line_that_is_not_http_1_is_refused_framed(server, line,
                                                           status):
    # Found on the http.server substrate: a request line that was not
    # three words with an HTTP/1.x version (`GET /healthz`, one word, a
    # JSON body read as a request line, HTTP/0.9 or 2.0) was answered
    # HTTP/0.9-style: a bare body, no status line and no framing.
    got = check(server, line + b"\r\n\r\n" + PIPELINED, 2)
    assert _statuses(got) == [status]
    assert got[0][1][b"connection"] == b"close"


def test_unreadable_header_line_does_not_end_the_head(server):
    # Found on the http.server substrate: a header line it could not
    # read (`\x00: `) ended the header block, so the Content-Length
    # after it was ignored and the body was answered as a second request.
    got = check(server, b"GET /v1/knn HTTP/1.1\r\n\x00: \r\n"
                + b"Content-Length: %d\r\n\r\n" % len(EMBEDDED)
                + EMBEDDED, 1)
    assert _statuses(got) == [400]


def test_body_stopping_short_is_never_executed(server):
    # The peer ended the stream inside the body: nothing is answered
    # from a partial body.
    got = check(server, _knn(b"Content-Length: %d" % (len(KNN_BODY) + 7)), 1)
    assert got == []


def test_long_request_line_is_414_and_close(server):
    got = check(server, b"GET /" + b"a" * (64 * 1024) + b" HTTP/1.1\r\n\r\n"
                + PIPELINED, 2)
    assert _statuses(got) == [414]


def test_long_header_line_is_431_and_close(server):
    got = check(server, b"GET /healthz HTTP/1.1\r\nX-Long: "
                + b"a" * (64 * 1024) + b"\r\n\r\n" + PIPELINED, 2)
    assert _statuses(got) == [431]


def test_a_hundred_and_one_headers_is_431_and_close(server):
    many = b"".join(b"X-Many-%d: v\r\n" % i for i in range(101))
    got = check(server, b"GET /healthz HTTP/1.1\r\n" + many + b"\r\n"
                + PIPELINED, 2)
    assert _statuses(got) == [431]
    hundred = b"".join(b"X-Many-%d: v\r\n" % i for i in range(100))
    got = check(server, b"GET /healthz HTTP/1.1\r\n" + hundred + b"\r\n", 1)
    assert _statuses(got) == [200]


@pytest.mark.parametrize("method", [b"PUT", b"HEAD", b"DELETE", b"get"])
def test_other_methods_are_501_and_close(server, method):
    got = check(server, method + b" /v1/stats HTTP/1.1\r\n\r\n" + PIPELINED,
                2)
    assert _statuses(got) == [501]
    assert got[0][1][b"connection"] == b"close"


def test_expect_100_continue_is_answered_first(server):
    raw = raw_http(server.address, _knn(
        b"Expect: 100-continue", b"Content-Length: %d" % len(KNN_BODY)),
        half_close=True)
    assert raw.startswith(b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 ")


@pytest.mark.parametrize("header", [b" folded", b"X-Nul: a\x00b",
                                    b"NoColonHere", b"Host : spaced"])
def test_malformed_header_lines_are_400_and_close(server, header):
    got = check(server, b"GET /healthz HTTP/1.1\r\n" + header + b"\r\n\r\n"
                + PIPELINED, 2)
    assert _statuses(got) == [400]


@pytest.mark.parametrize("version, closes", [
    (b"HTTP/1.1", False), (b"HTTP/1.0", True)])
def test_keep_alive_by_version(server, version, closes):
    got = check(server, b"GET /healthz " + version + b"\r\n\r\n"
                + PIPELINED, 2)
    assert _statuses(got) == ([200] if closes else [200, 200])
    got = check(server, b"GET /healthz " + version
                + b"\r\nConnection: keep-alive\r\n\r\n" + PIPELINED, 2)
    assert _statuses(got) == [200, 200]
    got = check(server, b"GET /healthz " + version
                + b"\r\nConnection: close\r\n\r\n" + PIPELINED, 2)
    assert _statuses(got) == [200]


# ---------------------------------------------------------------------------
# Generated neighbor-read bodies: matrix frames against the Database oracle
# ---------------------------------------------------------------------------

#: The point of the good request that follows every generated one on
#: its connection, the points of the two queries a held call keeps
#: busy, and the k of all three.
GOOD_POINT = np.full(DIMS, 0.25)
MATES = np.array([[0.1, 0.2, 0.3], [0.9, 0.8, 0.7]])
GOOD_K = 4
KS = {"<i8": [1, 2, 5, 21, 60, 61, 2**62, 2**63 - 1, 0, -1, -2**63],
      "<f8": [1.0, 3.0, 2.5, np.nan, np.inf, -np.inf, 1e300]}
RADII = {"<f8": [0.0, -0.0, 0.1, 0.3, 1.0, np.inf, 1e308, -1.0, np.nan],
         "<i8": [0, 1, -1, 2**62]}
#: Deadline header values beside none at all.
DEADLINES = ["5000", "1e300", "0", "-5", "nan", "inf", "-inf", "soon",
             "1e400", ""]


def _coordinates(draw, shape, dtype: str) -> np.ndarray:
    """Points of ``shape`` in the unit cube, one coordinate maybe spoilt."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if dtype == "<i8":
        array, specials = rng.integers(0, 2, shape), [-1, 2]
    else:
        array, specials = rng.random(shape), [np.nan, np.inf, -np.inf, 2.0]
    return _spoilt(draw, array.astype(dtype), specials)


def _per_row(draw, shape, dtype: str, values: list) -> np.ndarray:
    """One drawn ``k`` or radius of ``values`` for every row, one maybe
    another."""
    array = np.full(shape, draw(st.sampled_from(values)), dtype=dtype)
    return _spoilt(draw, array, values)


def _spoilt(draw, array: np.ndarray, specials: list) -> np.ndarray:
    if array.size and draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, array.size - 1))
        array.flat[at] = draw(st.sampled_from(specials))
    return array


def _mostly(draw, usual, *others):
    """``usual`` seven times in eight (and when shrinking), else one of
    ``others``."""
    if draw(st.integers(0, 7)) < 7:
        return usual
    return draw(st.sampled_from(others))


#: The corpus every generated mutation starts from.
MUTABLE_DATA = uniform_dataset(40, DIMS, seed=11)
#: The endpoints each generated-body test sends to.
READS = ("knn", "knn", "range", "window", "lookup", "explain")
MUTATIONS = ("insert", "insert_many", "delete")
#: Payload values a values part carries beside a corpus row's own.
VALUES = [None, "s", 3, "row"]


def _rows(draw, shape, dtype: str) -> np.ndarray:
    """Points of ``shape``; a mutation's ``(n, DIMS)`` float64 points are
    often corpus rows, so a delete finds what it names."""
    if (len(shape) == 2 and shape[1:] == (DIMS,) and dtype == "<f8"
            and draw(st.booleans())):
        at = draw(st.lists(st.integers(0, len(MUTABLE_DATA) - 1),
                           min_size=shape[0], max_size=shape[0]))
        return MUTABLE_DATA[at].copy()
    return _coordinates(draw, shape, dtype)


@st.composite
def frame_requests(draw, endpoints=READS):
    """``(endpoint, body, content_type, deadline, behind)``: one request's
    frames (and a mutation's values part), whole or damaged, its two
    headers, and whether it arrives behind a held ``knn``."""
    endpoint = draw(st.sampled_from(endpoints))
    dims = _mostly(draw, DIMS, DIMS - 1, DIMS + 1, 0)
    dtype = _mostly(draw, "<f8", "<f4", "<i8")
    values = None  # no values part
    if endpoint == "window":
        low, high = np.sort(_coordinates(draw, (2, dims), dtype), axis=0)
        frames = list(_mostly(draw, (low, high), (high, low)))
    elif endpoint in ("knn", "range"):
        q = draw(st.sampled_from([1, 1, 1, 0, 2, 33]))
        first = _coordinates(draw, _mostly(
            draw, (q, dims), (dims,), (1, 1, dims), ()), dtype)
        rows = _mostly(draw, q, q + 1, max(q - 1, 0), 1)
        table, usual, other = ((KS, "<i8", "<f8") if endpoint == "knn"
                               else (RADII, "<f8", "<i8"))
        per_dtype = _mostly(draw, usual, other)
        frames = [first, _per_row(draw, _mostly(draw, (rows,), (), (rows, 1)),
                                  per_dtype, table[per_dtype])]
    elif endpoint == "insert_many":
        n = draw(st.sampled_from([1, 2, 5, 0]))
        frames = [_rows(draw, _mostly(draw, (n, dims), (dims,),
                                      (1, 1, dims), ()), dtype)]
        if draw(st.booleans()):
            values = draw(st.lists(st.sampled_from(VALUES), min_size=n,
                                   max_size=n))
    else:  # one point: lookup, explain, insert, delete
        frames = [_rows(draw, _mostly(draw, (1, dims), (dims,), (2, dims),
                                      (1, 1, dims), ()), dtype)]
        if endpoint == "explain":
            per_dtype = _mostly(draw, "<i8", "<f8")
            frames.append(_per_row(draw, _mostly(draw, (1,), (), (2,)),
                                   per_dtype, KS[per_dtype]))
        elif endpoint in MUTATIONS and draw(st.booleans()):
            values = [draw(st.sampled_from(VALUES))]
    parts = [encode_matrix(frame) for frame in frames]
    damage = None  # one body in four is damaged
    if draw(st.integers(0, 3)) == 3:
        damage = draw(st.sampled_from(
            ["cut", "trail", "shape", "ndim", "flip", "one_frame", "json"]
            + ["values_length", "values_not_list"] * (endpoint in MUTATIONS)))
    if damage == "values_length":  # one value too many or too few
        values = _mostly(draw, (values or []) + ["extra"], (values or [])[:-1])
    elif damage == "values_not_list":
        values = draw(st.sampled_from([{"values": values}, 5, "x", None]))
    if endpoint in MUTATIONS and (values is not None or damage
                                  == "values_not_list"):
        parts.append(encode_json(values, ()))
    body = b"".join(parts)
    starts = np.cumsum([0] + [len(part) for part in parts[:len(frames)]])
    if damage == "cut":
        body = body[:draw(st.integers(0, len(body) - 1))]
    elif damage == "trail":
        body += draw(st.binary(min_size=1, max_size=8))
    elif damage == "shape":  # one shape word of any frame lies
        at = draw(st.integers(0, len(frames) - 1))
        frame = frames[at]
        if frame.ndim:
            word = starts[at] + 8 + 8 * draw(st.integers(0, frame.ndim - 1))
            lie = draw(st.sampled_from([0, 1, 2**32, 2**63, 2**64 - 1]
                                       + [n + 1 for n in frame.shape]))
            body = body[:word] + struct.pack("<Q", lie) + body[word + 8:]
    elif damage == "ndim":
        at = starts[draw(st.integers(0, len(frames) - 1))]
        body = (body[:at + 5] + bytes([draw(st.integers(0, 255))])
                + body[at + 6:])
    elif damage == "flip":
        at = draw(st.integers(0, len(body) - 1))
        body = body[:at] + bytes([draw(st.integers(0, 255))]) + body[at + 1:]
    elif damage == "one_frame":
        body = parts[0]
    elif damage == "json":
        body = JSON_LINE
    content_type = _mostly(draw, BINARY_CONTENT_TYPE,
                           BINARY_CONTENT_TYPE + "; v=1", "application/json",
                           None)
    return (endpoint, body, content_type, _mostly(draw, None, *DEADLINES),
            endpoint not in MUTATIONS and draw(st.booleans()))


def _request(endpoint: str, body: bytes, content_type: str | None = None,
             deadline: str | None = None, last: bool = False) -> bytes:
    headers = [b"POST /v1/%s HTTP/1.1" % endpoint.encode(), b"Host: fuzz",
               b"Content-Length: %d" % len(body), b"X-Repro-Token: t"]
    if content_type is not None:
        headers.append(b"Content-Type: " + content_type.encode())
    if deadline is not None:
        headers.append(b"X-Repro-Deadline-Ms: " + deadline.encode())
    if last:
        headers.append(b"Connection: close")
    return b"\r\n".join(headers) + b"\r\n\r\n" + body


def _frames(*arrays) -> bytes:
    return b"".join(encode_matrix(np.asarray(a)) for a in arrays)


def _good(point=GOOD_POINT, last: bool = False) -> bytes:
    return _request("knn", _frames(point[None], [GOOD_K]),
                    BINARY_CONTENT_TYPE, last=last)


def _decoded(body: bytes, content_type, count: int, values: bool) -> list:
    """The ``count`` frames of ``body``, then with ``values`` its values
    part (``None`` when absent), as the protocol defines them."""
    if (content_type or "").split(";")[0] != BINARY_CONTENT_TYPE:
        raise ValueError("not a frames body")
    parts, offset = [], 0
    for _ in range(count):
        frame, offset = decode_matrix(body, offset)
        parts.append(frame)
    if values:
        part = None
        if offset < len(body):
            part, offset = decode_json(body, offset)
            if not isinstance(part, list):
                raise NetError("a values part that is not a list")
        parts.append(part)
    if offset != len(body):
        raise NetError("bytes after the frames")
    return parts


def _row(frame: np.ndarray):
    """A ``(1, D)`` frame is the point it holds; any other shape is what
    the handle is handed."""
    return frame[0] if frame.ndim == 2 and len(frame) == 1 else frame


def _explained(text: str) -> list[str]:
    """An EXPLAIN report without what two runs may differ in: the wall
    time, and where each page came from."""
    return [text.split(" — ")[0]] + [line for line in text.splitlines()
                                      if line.startswith("nodes visited")]


def _database(db, endpoint: str, body: bytes, content_type):
    """What ``Database`` answers for the frames of ``body``: its result
    lists (a neighbor read), its JSON answer (any other), or the name of
    the class it raises."""
    try:
        if endpoint in MUTATIONS:
            points, values = _decoded(body, content_type, 1, values=True)
            if endpoint == "insert_many":
                inserted = (db.insert_many(points) if values is None
                            else db.insert_many(points, values))
                return {"ok": True, "inserted": inserted, "size": db.size}
            if values is None:
                getattr(db, endpoint)(_row(points))
            elif len(values) != 1:
                raise ValueError("not one value")
            else:
                getattr(db, endpoint)(_row(points), values[0])
            return {"ok": True, "size": db.size}
        if endpoint == "lookup":
            (point,) = _decoded(body, content_type, 1, values=False)
            return {"values": db.lookup(_row(point))}
        first, second = _decoded(body, content_type, 2, values=False)
        if endpoint == "explain":
            k = second.item() if second.shape in ((), (1,)) else second
            return _explained(db.explain(_row(first), k=k))
        if endpoint == "window":
            return [db.window(first, second)]
        if endpoint == "knn":
            return db.knn_batch(first, k=second)
        return db.range_batch(first, second)
    except Exception as exc:
        return type(exc).__name__


def _same_lists(got, want, data: np.ndarray) -> None:
    """``got`` answers as ``want`` does: the same distances and values
    in the same order, each neighbor the corpus row its value names."""
    assert len(got) == len(want)
    for got_list, want_list in zip(got, want):
        assert [n.distance for n in got_list] == [n.distance for n in want_list]
        assert [n.value for n in got_list] == [n.value for n in want_list]
        for n in got_list:
            assert np.array_equal(n.point, data[n.value])


def _meets_oracle(oracle, endpoint, body, content_type, deadline, answer):
    """``answer`` is what ``oracle.db`` answers for the same request:
    refused as it refuses, or answered as it answers."""
    status, _, payload = answer
    try:
        budget = None if deadline is None else float(deadline)
    except ValueError:
        budget = np.nan
    if budget is not None and not np.isfinite(budget):
        assert status == 400, payload
        assert json.loads(payload)["error_type"] == "ValueError"
        return
    if budget is not None and budget <= 0:
        assert status == 504, payload
        return
    want = _database(oracle.db, endpoint, body, content_type)
    if isinstance(want, str):
        assert status == (405 if want == "NotImplementedError" else 400), (
            want, payload)
        assert json.loads(payload)["error_type"] == want
        return
    assert status == 200, (want, payload)
    if endpoint == "explain":
        assert _explained(json.loads(payload)["explain"]) == want
    elif endpoint in ("lookup", *MUTATIONS):
        assert json.loads(payload) == want
    else:
        got = decode_neighbor_block(payload)
        _same_lists(got, want, oracle.data)
        if endpoint != "window":  # the per-row frame had one value per row
            _, offset = decode_matrix(body)
            per_row = decode_matrix(body, offset)[0]
            assert per_row.shape in ((), (len(got),)), per_row.shape


def _wait_for(condition, timeout: float = 5.0) -> None:
    limit = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < limit, "condition never held"
        time.sleep(0.001)


def _pending(server) -> int:
    return server.describe()["batching"]["pending"]


def _behind_a_held_knn(served, payload: bytes) -> tuple[bytes, list]:
    """Send ``payload`` while a lone ``knn`` is held open and a good
    request waits behind it; its raw answer, and both groupmates'."""
    answers: dict = {}

    def start(slot: int, data: bytes) -> threading.Thread:
        def send() -> None:
            answers[slot] = raw_http(served.server.address, data,
                                     timeout=10.0, half_close=True)
        thread = threading.Thread(target=send)
        thread.start()
        return thread

    gate = served.source.hold()
    threads = []
    try:
        threads.append(start(0, _good(MATES[0], last=True)))
        assert served.source.entered.wait(5.0)  # it runs alone, held
        threads.append(start(1, _good(MATES[1], last=True)))
        _wait_for(lambda: _pending(served.server) == 1)  # it waits
        threads.append(start(2, payload))
        # The payload joins the group, or is answered at once and the
        # good request after it on its connection joins instead.
        _wait_for(lambda: _pending(served.server) == 2)
    finally:
        gate.set()
        for thread in threads:
            thread.join(10.0)
    return answers[2], [answers[0], answers[1]]


@_budget(100)
@given(request=frame_requests())
# Seeds, each the request that refutes one missing check: a bad point
# or k checked before the request may join a group, a per-row frame of
# another length, and bytes after the last frame.
@example(request=("knn", _frames([[np.nan, 0.5, 0.5]], [2]),
                  BINARY_CONTENT_TYPE, None, True))
@example(request=("knn", _frames([[0.5, 0.5]], [2]),
                  BINARY_CONTENT_TYPE, None, True))
@example(request=("knn", _frames([[0.5] * DIMS], [0]),
                  BINARY_CONTENT_TYPE, None, True))
@example(request=("range", _frames(np.full((2, DIMS), 0.5), [0.3]),
                  BINARY_CONTENT_TYPE, None, False))
@example(request=("knn", _frames([[0.5] * DIMS], [2]) + b"\x00",
                  BINARY_CONTENT_TYPE, None, False))
def test_generated_frames_meet_the_database_oracle(served, request):
    endpoint, body, content_type, deadline, behind = request
    payload = (_request(endpoint, body, content_type, deadline)
               + _good(last=True))
    if behind:
        raw, mates = _behind_a_held_knn(served, payload)
        for point, mate in zip(MATES, mates):
            (status, _, block), = responses(mate)
            assert status == 200, block
            _same_lists(decode_neighbor_block(block),
                        [served.db.knn(point, k=GOOD_K)], served.data)
    else:
        raw = raw_http(served.server.address, payload, timeout=10.0,
                       half_close=True)
    got = responses(raw)
    assert len(got) == 2, got  # the connection stayed in step
    _meets_oracle(served, endpoint, body, content_type, deadline, got[0])
    status, _, block = got[1]
    assert status == 200, block
    _same_lists(decode_neighbor_block(block),
                [served.db.knn(GOOD_POINT, k=GOOD_K)], served.data)
    described = served.server.describe()
    assert (described["inflight"], described["queued"]) == (0, 0)


# ---------------------------------------------------------------------------
# Generated mutation bodies: the same frames, and a second Database
# ---------------------------------------------------------------------------


class _Fresh:
    """The served handle: a fresh copy of the mutation corpus for every
    generated request (``renew()``), so each is judged on its own."""

    def __init__(self) -> None:
        self._db = None

    def __getattr__(self, name):
        return getattr(self._db, name)

    def renew(self):
        if self._db is not None:
            self._db.close()
        self._db = _mutation_corpus()
        return self._db


def _mutation_corpus():
    """The corpus rows (values: row indices), and two more copies of
    rows 0 and 1 valued ``None`` and ``"s"``."""
    db = Database.create(None, kind="sr", dims=DIMS, page_size=2048)
    db.insert_many(MUTABLE_DATA)
    db.insert(MUTABLE_DATA[0], None)
    db.insert(MUTABLE_DATA[1], "s")
    return db


@pytest.fixture(scope="module")
def mutable():
    source = _Fresh()
    source.renew()
    server = QueryServer(source, auth_token="t")
    yield SimpleNamespace(source=source, server=server)
    server.close()
    source.close()


def _probes(body: bytes) -> list:
    """The points whose stored values are compared after a mutation: the
    corpus, and the request's own points when its first frame has any."""
    probes = list(MUTABLE_DATA)
    try:
        probes += list(as_points(decode_matrix(body)[0], DIMS))
    except Exception:
        pass
    return probes


@_budget(100)
@given(request=frame_requests(MUTATIONS))
# Seeds, each the request that refutes one slip: a values part ignored,
# an absent value read as None, and a values part of two for one point.
@example(request=("insert", _frames([MUTABLE_DATA[2]])
                  + encode_json(["s"], ()), BINARY_CONTENT_TYPE, None, False))
@example(request=("delete", _frames([MUTABLE_DATA[2]]),
                  BINARY_CONTENT_TYPE, None, False))
@example(request=("delete", _frames([MUTABLE_DATA[0]])
                  + encode_json([None, None], ()), BINARY_CONTENT_TYPE, None,
                  False))
def test_generated_mutations_meet_the_database_oracle(mutable, request):
    # The oracle is a second Database given the same call: the answer is
    # its answer or its refusal, and afterwards both hold the same points
    # with the same values.
    endpoint, body, content_type, deadline, _ = request
    db = mutable.source.renew()
    raw = raw_http(mutable.server.address,
                   _request(endpoint, body, content_type, deadline)
                   + _good(last=True), timeout=10.0, half_close=True)
    got = responses(raw)
    assert len(got) == 2, got  # the connection stayed in step
    with _mutation_corpus() as oracle:
        _meets_oracle(SimpleNamespace(db=oracle, data=MUTABLE_DATA),
                      endpoint, body, content_type, deadline, got[0])
        assert db.size == oracle.size
        for point in _probes(body):
            assert db.lookup(point) == oracle.lookup(point)
    status, _, block = got[1]
    assert status == 200, block
    (neighbors,) = decode_neighbor_block(block)
    assert ([n.distance for n in neighbors]
            == [n.distance for n in db.knn(GOOD_POINT, k=GOOD_K)])
    described = mutable.server.describe()
    assert (described["inflight"], described["queued"]) == (0, 0)


# ---------------------------------------------------------------------------
# A serving-pool worker's pipe: the same frames, damaged, at a live worker
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def piped(tmp_path_factory, serving_pool):
    """A one-worker pool over the fuzz corpus, and a Database over the
    same file as its oracle."""
    path = str(tmp_path_factory.mktemp("pipe") / "pipe.srtree")
    data = uniform_dataset(60, DIMS, seed=7)
    with Database.create(path, kind="sr", dims=DIMS, page_size=2048) as db:
        db.insert_many(data)
    db = Database.open(path)
    pool = serving_pool(path, workers=1)
    yield SimpleNamespace(db=db, data=data, pool=pool, pid=pool._pids[0])
    pool.close()
    db.close()


#: What is done to a well-formed pool request before it is sent.
PIPE_DAMAGES = ["cut", "magic", "dtype", "shape", "trail", "missing",
                "extra", "op"]


@st.composite
def pipe_requests(draw):
    """``(op, frames, body)``: a well-formed pool request's op and
    frames, and its bytes with one damage done."""
    op = draw(st.sampled_from(["knn", "range", "window"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if op == "window":
        frames = list(np.sort(rng.random((2, DIMS)), axis=0))
    else:
        q = draw(st.sampled_from([1, 2, 5]))
        per_row = (rng.integers(1, 10, q) if op == "knn"
                   else rng.uniform(0.0, 0.5, q))
        frames = [rng.random((q, DIMS)), per_row]
    head = encode_json({"op": op, "block_size": None}, ())
    parts = [encode_matrix(frame) for frame in frames]
    at = draw(st.integers(0, len(parts) - 1))
    frame = parts[at]
    damage = draw(st.sampled_from(PIPE_DAMAGES))
    if damage == "magic":
        magic = draw(st.binary(min_size=4, max_size=4).filter(
            lambda m: m != b"RPM1"))
        parts[at] = magic + frame[4:]
    elif damage == "dtype":
        parts[at] = frame[:4] + bytes([draw(st.integers(3, 255))]) + frame[5:]
    elif damage == "shape":  # one shape word lies
        word = 8 + 8 * draw(st.integers(0, frames[at].ndim - 1))
        (true,) = struct.unpack_from("<Q", frame, word)
        lie = draw(st.sampled_from([0, 1, true - 1, true + 1, 2**32, 2**63,
                                    2**64 - 1]).filter(lambda n: n != true))
        parts[at] = frame[:word] + struct.pack("<Q", lie) + frame[word + 8:]
    elif damage == "missing":
        del parts[at]
    elif damage == "extra":
        parts.append(frame)
    elif damage == "op":
        head = encode_json({"op": draw(st.sampled_from(
            ["nearest", "", None, 5, "KNN"])), "block_size": None}, ())
    body = head + b"".join(parts)
    if damage == "cut":
        body = body[:draw(st.integers(0, len(body) - 1))]
    elif damage == "trail":
        body += draw(st.binary(min_size=1, max_size=8))
    return op, frames, body


@_budget(30)
@given(request=pipe_requests())
def test_a_worker_refuses_damaged_frames_and_serves_on(piped, request):
    # The worker reads its pipe with the server's reader: a damaged
    # request gets one error part naming NetError — no block, no
    # traceback, no lost shard — the worker lives, and the request
    # undamaged is then answered as the Database answers it.
    op, frames, body = request
    pool = piped.pool
    conn = pool._conns[0]
    with pool._mu:
        conn.send_bytes(body)
        assert conn.poll(10.0), "the worker did not answer"
        reply = conn.recv_bytes()
    doc, end = decode_json(reply)
    assert end == len(reply), "a damaged request was answered with a block"
    assert doc["error_type"] == "NetError", doc
    assert not {"traceback", "degraded"} & set(doc)
    assert pool._pids[0] == piped.pid and pool.respawned_workers == 0
    if op == "window":
        got, want = [pool.window(*frames)], [piped.db.window(*frames)]
    elif op == "knn":
        got, want = pool.knn_batch(*frames), piped.db.knn_batch(*frames)
    else:
        got, want = pool.range_batch(*frames), piped.db.range_batch(*frames)
    _same_lists(got, want, piped.data)
