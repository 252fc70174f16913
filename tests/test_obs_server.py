"""Tests for the HTTP telemetry endpoint (repro.obs.server)."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.api import Database
from repro.obs import REGISTRY, TelemetryServer, render

from .helpers import raw_http


def _get(url: str) -> tuple[int, dict[str, str], bytes]:
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
        with TelemetryServer() as srv:
            status, headers, body = _get(srv.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "version=0.0.4" in headers["Content-Type"]
        assert body == render(REGISTRY).encode("utf-8")

    def test_metrics_parses_as_prometheus_text(self, db):
        db.knn(db.index.iter_points().__next__()[0], k=3)
        with TelemetryServer() as srv:
            _status, _headers, body = _get(srv.url + "/metrics")
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
        with TelemetryServer() as srv:
            srv.watch_database(db)
            status, headers, body = _get(srv.url + "/varz")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        doc = json.loads(body)
        assert set(doc) >= {"metrics", "flight_recorder", "events",
                            "snapshots"}
        assert doc["flight_recorder"]["capacity"] > 0
        (snapshot,) = doc["snapshots"]
        assert snapshot["handle"] == "database[0]"
        assert snapshot["epoch"] >= 0

    def test_unknown_path_is_404(self):
        with TelemetryServer() as srv:
            status, _headers, body = _get(srv.url + "/nope")
        assert status == 404
        assert "/metrics" in json.loads(body)["paths"]

    def test_ephemeral_port_and_url(self):
        with TelemetryServer() as srv:
            assert srv.port > 0
            assert srv.url == f"http://127.0.0.1:{srv.port}"

    def test_keep_alive_answers_a_second_request(self):
        # Regression: the telemetry copy spoke HTTP/1.0 and closed after
        # every response, so each scrape was a new TCP connection.
        with TelemetryServer() as srv:
            raw = raw_http(
                (srv.host, srv.port),
                b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n"
                b"GET /healthz HTTP/1.1\r\nHost: test\r\n"
                b"Connection: close\r\n\r\n")
        assert raw.count(b"HTTP/1.1 200 ") == 2

    def test_stop_is_idempotent(self):
        srv = TelemetryServer().start()
        srv.stop()
        srv.stop()


class TestHealthz:
    def test_healthy_with_no_watched_handles(self):
        with TelemetryServer() as srv:
            status, _headers, body = _get(srv.url + "/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "ok"

    def test_poisoned_store_flips_to_503(self, db):
        with TelemetryServer() as srv:
            srv.watch_database(db)
            status, _headers, _body = _get(srv.url + "/healthz")
            assert status == 200
            db.index.store._poison("simulated post-commit failure")
            status, _headers, body = _get(srv.url + "/healthz")
        assert status == 503
        doc = json.loads(body)
        assert doc["status"] == "unhealthy"
        (check,) = doc["checks"]
        assert check["ok"] is False
        assert check["detail"] == "store poisoned"

    def test_a_watched_pool_is_in_varz_and_has_no_health_check(
            self, tmp_path, tiny_cloud, serving_pool):
        path = tmp_path / "pool.db"
        with Database.create(path, dims=tiny_cloud.shape[1]) as handle:
            handle.insert_many(tiny_cloud)
        with serving_pool(path, workers=2) as pool, \
                TelemetryServer() as srv:
            srv.watch_pool(pool)
            status, _h, body = _get(srv.url + "/healthz")
            assert status == 200
            assert json.loads(body)["checks"] == []
            status, _h, body = _get(srv.url + "/varz")
        assert status == 200
        (entry,) = json.loads(body)["snapshots"]
        assert entry == {"handle": "pool[0]", "workers": 2,
                         "degraded_queries": 0}

    def test_health_combines_multiple_handles(self, db):
        srv = TelemetryServer()
        srv.watch_database(db)
        healthy, doc = srv.health()
        assert healthy and doc["status"] == "ok"
        db.index.store._poison("boom")
        healthy, doc = srv.health()
        assert not healthy
        assert doc["checks"][0]["ok"] is False
