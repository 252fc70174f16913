"""Observability: metrics registry, query tracing, and EXPLAIN.

The paper's whole argument is *observed cost* — disk reads split by
tree level, CPU time, leaf-access ratios.  This package turns those
one-off measurements into a first-class layer:

* :mod:`repro.obs.registry` — named counters, gauges, and fixed-bucket
  histograms with label support, exportable as JSON
  (:meth:`~repro.obs.registry.MetricsRegistry.to_dict`) and Prometheus
  text exposition format (:func:`~repro.obs.prometheus.render`);
* :mod:`repro.obs.tracer` — a span-based tracer (``with
  trace.span("knn", k=21): ...``) recording wall time, per-node visit
  events (page id, level, MINDIST, pruned-vs-descended verdict), and
  page fetches, at zero overhead while disabled;
* :mod:`repro.obs.explain` — replays a recorded span into a readable
  per-level tree walk with pruning efficiency and buffer hit ratios;
* :mod:`repro.obs.hooks` — the metric catalog and the ``on_*`` hook
  functions the storage/index/search layers call;
* :mod:`repro.obs.events` — the structured event log (``EVENTS``):
  level-filtered one-line JSON events with per-query ids, ring-buffered
  and optionally sunk to stderr/a file/a callable;
* :mod:`repro.obs.flightrec` — the flight recorder (``FLIGHT``): an
  always-on ring of the last N query records, tail-sampled after a
  breach of the latency objective (``set_slo_ms``);
* :mod:`repro.obs.server` — the ``/metrics``, ``/healthz`` and ``/varz``
  routes, answered by :class:`~repro.net.QueryServer` on its own port.

Quickstart::

    from repro import SRTree
    from repro.obs import trace, explain, render, REGISTRY

    tree = SRTree(dims=16); tree.load(data)

    trace.enable()
    with trace.span("knn", k=21) as span:
        tree.nearest(data[0], k=21)
    print(explain(span))          # per-level visit/prune breakdown
    print(render(REGISTRY))       # Prometheus scrape payload

See ``docs/OBSERVABILITY.md`` for the metric name catalog and the CLI
surfaces (``repro stats``, ``repro query --explain``).
"""

from .events import EVENTS, EventLog
from .explain import ExplainError, explain, level_breakdown
from .flightrec import FLIGHT, FlightRecorder, QueryRecord
from .hooks import (
    metrics_enabled,
    observed_query,
    set_metrics_enabled,
    set_slo_ms,
    slo_ms,
)
from .prometheus import render
from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
    get_registry,
)
from .tracer import NodeVisit, PageFetch, Span, Tracer, trace

__all__ = [
    "Counter",
    "EVENTS",
    "EventLog",
    "ExplainError",
    "FLIGHT",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NodeVisit",
    "PageFetch",
    "QueryRecord",
    "REGISTRY",
    "Span",
    "Tracer",
    "explain",
    "get_registry",
    "level_breakdown",
    "metrics_enabled",
    "observed_query",
    "render",
    "set_metrics_enabled",
    "set_slo_ms",
    "slo_ms",
    "trace",
]
