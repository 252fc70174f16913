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
``make test-net`` runs it deeper (``--hypothesis-profile=deep``).
"""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database
from repro.net import QueryServer
from repro.net.protocol import BINARY_CONTENT_TYPE
from repro.obs.events import EVENTS, WARN
from repro.workloads import uniform_dataset

from .helpers import raw_http

DIMS = 3
KNN_BODY = json.dumps({"point": [0.5] * DIMS, "k": 2}).encode()
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


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("fuzz") / "fuzz.srtree")
    with Database.create(path, kind="sr", dims=DIMS, page_size=2048) as db:
        db.insert_many(uniform_dataset(60, DIMS, seed=7))
    db = Database.open(path)
    server = QueryServer(db)
    yield server
    server.close()
    db.close()


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
    return b"".join([b"POST /v1/knn HTTP/1.1\r\nHost: fuzz\r\n"]
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
    assert _statuses(got) == [400]  # served: five bytes that are not JSON


@pytest.mark.parametrize("line, status", [
    (b"GET /healthz", 400),
    (b"\x00", 400),
    (b"GET  HTTP/1.1", 400),
    (KNN_BODY, 400),
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
    # from a partial body (a prefix of a JSON document may parse).
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
