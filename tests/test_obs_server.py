"""Tests for the telemetry routes (repro.obs.server) on the query port."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.api import Database
from repro.net import QueryServer, protocol
from repro.obs import REGISTRY, render, slo_ms
from repro.obs import server as telemetry

from .helpers import raw_http


def _get(server: QueryServer, path: str) -> tuple[int, dict[str, str], bytes]:
    url = "http://%s:%d%s" % (*server.address, path)
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


@pytest.fixture
def db(tmp_path, tiny_cloud):
    path = tmp_path / "telemetry.db"
    with Database.create(path, dims=tiny_cloud.shape[1]) as handle:
        for point in tiny_cloud:
            handle.insert(point)
    with Database.open(path) as handle:
        yield handle


class TestEndpoints:
    def test_metrics_byte_identical_to_render(self, db):
        db.knn(db.index.iter_points().__next__()[0], k=3)
        with QueryServer(db) as srv:
            status, headers, body = _get(srv, "/metrics")
            # Scrapes are not query requests: the registry did not move.
            assert body == render(REGISTRY).encode("utf-8")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "version=0.0.4" in headers["Content-Type"]

    def test_metrics_parses_as_prometheus_text(self, db):
        db.knn(db.index.iter_points().__next__()[0], k=3)
        with QueryServer(db) as srv:
            _status, _headers, body = _get(srv, "/metrics")
        text = body.decode("utf-8")
        assert text.endswith("\n")
        samples = 0
        for line in text.splitlines():
            if line.startswith("# HELP ") or line.startswith("# TYPE "):
                continue
            name, _, value = line.rpartition(" ")
            assert name, line
            float(value)  # every sample line ends in a parseable number
            samples += 1
        assert samples > 0

    def test_varz_document(self, db):
        with QueryServer(db) as srv:
            status, headers, body = _get(srv, "/varz")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        doc = json.loads(body)
        assert set(doc) >= {"metrics", "flight_recorder", "events",
                            "snapshots"}
        assert doc["flight_recorder"]["capacity"] > 0
        assert doc["flight_recorder"]["slo_ms"] == slo_ms()
        snapshot, server_entry = doc["snapshots"]
        assert snapshot["handle"] == "database[0]"
        assert snapshot["epoch"] >= 0
        assert server_entry["handle"] == "query_server[0]"

    def test_unknown_path_is_404(self, db):
        with QueryServer(db) as srv:
            status, _headers, body = _get(srv, "/nope")
        assert status == 404
        paths = json.loads(body)["paths"]
        assert "/metrics" in paths
        assert paths == ([f"/v1/{name}" for name in protocol.ENDPOINTS]
                         + list(telemetry.PATHS))

    def test_keep_alive_answers_a_second_request(self, db):
        # Regression: the telemetry copy spoke HTTP/1.0 and closed after
        # every response, so each scrape was a new TCP connection.
        with QueryServer(db) as srv:
            raw = raw_http(
                srv.address,
                b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n"
                b"GET /healthz HTTP/1.1\r\nHost: test\r\n"
                b"Connection: close\r\n\r\n")
        assert raw.count(b"HTTP/1.1 200 ") == 2


class TestHealthz:
    def test_healthy_with_no_watched_handles(self, db):
        # A snapshot has no health state of its own: only the server's.
        with db.snapshot() as snap, QueryServer(snap) as srv:
            status, _headers, body = _get(srv, "/healthz")
        assert status == 200
        doc = json.loads(body)
        assert doc["status"] == "ok"
        assert [check["check"] for check in doc["checks"]] == [
            "query_server[0]"]

    def test_poisoned_store_flips_to_503(self, db):
        with QueryServer(db) as srv:
            status, _headers, _body = _get(srv, "/healthz")
            assert status == 200
            db.index.store._poison("simulated post-commit failure")
            status, _headers, body = _get(srv, "/healthz")
        assert status == 503
        doc = json.loads(body)
        assert doc["status"] == "unhealthy"
        check, server_check = doc["checks"]
        assert check["check"] == "database[0]"
        assert check["ok"] is False
        assert check["detail"] == "store poisoned"
        assert server_check["ok"] is True

    def test_a_watched_pool_is_in_varz_and_has_no_health_check(
            self, tmp_path, tiny_cloud, serving_pool):
        path = tmp_path / "pool.db"
        with Database.create(path, dims=tiny_cloud.shape[1]) as handle:
            handle.insert_many(tiny_cloud)
        with serving_pool(path, workers=2) as pool, QueryServer(pool) as srv:
            status, _h, body = _get(srv, "/healthz")
            assert status == 200
            # The pool adds no check; the server's own is the only one.
            assert [check["check"] for check in json.loads(body)["checks"]
                    ] == ["query_server[0]"]
            status, _h, body = _get(srv, "/varz")
        assert status == 200
        entry, server_entry = json.loads(body)["snapshots"]
        assert entry == {"handle": "pool[0]", "workers": 2,
                         "degraded_queries": 0}
        assert server_entry["handle"] == "query_server[0]"

    def test_health_combines_multiple_handles(self, db):
        with QueryServer(db) as srv:
            healthy, doc = telemetry.health(db, srv)
            assert healthy and doc["status"] == "ok"
            db.index.store._poison("boom")
            healthy, doc = telemetry.health(db, srv)
        assert not healthy
        assert doc["checks"][0]["ok"] is False
        assert doc["checks"][1]["ok"] is True
