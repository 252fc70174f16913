"""Names, units, bounds and sizes: the one place the ledger's vocabulary lives.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 ledger/run.py --write-benchmark-json``) and a test keeps the
two in step, so a later issue quotes a name from here and nowhere else.
"""

from __future__ import annotations

import os

# -- fixed parameters of every workload (the paper's set-up) -----------------
DIMS = 16
K = 21  # the paper's k
PAGE_SIZE = 8192
INDEX_KIND = "sr"
RUN_SECONDS = 10
# The stored points are the same on every run; --seed draws the queries and the
# insert stream.  An insertion-built SR-tree's page counts swing by a tenth from
# one random corpus to the next, which no useful regression bound survives.
CORPUS_SEED = 1997
SETUP_REPEATS = 3  # set-up runs this many times per run; setup_s is the median
WARMUP_SHARE = 0.05  # untimed warm-up, as a share of the nominal call count
SMOKE_SCALE = 0.05  # --smoke runs every workload at this share of its nominal calls
TRACE_SHARE = 0.5  # a traced run's untraced pass measures for this share of --seconds
CLIENTS = min(2, os.cpu_count() or 1)  # client threads / pool workers / connections

# Nominal call counts are what a run executes when no ``--seconds`` is given
# (the fixed-count mode in which every counter repeats exactly).  They were
# sized on a 2-core box so the timed window takes about RUN_SECONDS.
WORKLOADS = {
    "uniform_single": {
        "why": "uniform 16-d points where pruning fails: scalar search, MINDIST "
               "and the storage read path do all the work, net and exec none",
        "points": 5000,
        "queries": 1024,
        "calls": 450,
    },
    "uniform_batch": {
        "why": "the same index through knn_batch: the block engine and vectorised "
               "kernels work, the scalar path does not; 16-query calls (not the "
               "default 64) only to fit 100 calls in the window",
        "points": 5000,
        "queries": 1024,
        # Sized by the window, not by a caller: the repo's DEFAULT_BLOCK_SIZE is 64,
        # but at 4 ms a query only 16-query calls leave >= 100 calls in 10 s with
        # room for a slow run (32 left 80).  The price is amortisation: one run
        # each measured 4.4 ms of CPU a query at 16 against 3.9 ms at 32.
        "batch": 16,
        "calls": 140,
    },
    "uniform_pool": {
        "why": "the same 16-query blocks as uniform_batch, one per worker and call, "
               "behind the process pool's scatter, pickle, pipe and gather: pool "
               "hand-off is the only difference",
        "points": 5000,
        "queries": 1024,
        "block": 16,  # queries per worker and call
        "calls": 130,
    },
    "cluster_remote": {
        "why": "cheap clustered queries on an index that fits the buffer, over HTTP "
               "to a child server: codec, parse, admission and socket dominate; "
               "pages_per_query is the cold pass (steady state reads none)",
        "clusters": 40,
        "per_cluster": 90,
        "queries": 2000,
        "calls": 3500,  # per client
    },
    "cluster_mixed_wal": {
        "why": "one insert per four queries under WAL group commit on an index "
               "far larger than the buffer: a read gain that taxes writers shows",
        "clusters": 60,
        "per_cluster": 200,
        "queries": 2000,
        "calls": 5000,  # 1000 cycles of 1 insert + 4 queries
    },
}

MIXED_CYCLE = 5  # calls per cycle in cluster_mixed_wal: slot 0 inserts, 1-4 query
# WAL flush policy of cluster_mixed_wal: group commit, fsync on every 64th commit.
# With an fsync per commit the builder's disk decided the numbers: its fsync
# swung between 0.4 and 6 ms from one run to the next.
SYNC_EVERY = 64

# -- end-to-end metrics: (name, unit, better, bound) -------------------------
# The bound is the share of the parent's median by which the metric may worsen.
# No latency or throughput is in this list.  The issue asked for ops_s,
# call_p50/p90_ms and insert_p50/p90_ms here, with 10 % bounds, and added: "a
# timing metric that does not repeat within a tenth ... is moved to the
# per-layer list and the reason recorded -- it must not stay end-to-end."  On
# the builder's shared 2-core box none of them does: over seven studies of ten
# runs each the inter-quartile distance of ops_s was 4-31 % of the median, of
# the p50s 4-26 %, of the p90s 4-40 %, against a largest allowed bound of 25 %.
# CPU time (the paper's metric: user + system of the generator and its
# children) was then tried as the noise-robust stand-in and is no steadier,
# 3-27 % over three studies: the box reports no steal time, so a neighbour
# shows up as the same instructions taking longer, not as time off the
# processor.  The slow spells last from ten seconds to minutes, so a longer
# window, the fastest of ten one-second slices, low quantiles and a
# calibration kernel did not help enough either (ledger/README.md has the
# numbers).  All six are the api.* per-layer metrics below, and an untraced
# run still prints them, marked unbounded.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("pages_per_query", "count", "lower", 0.10),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("space_amp", "ratio", "lower", 0.05),
]

# -- per-layer metrics: (name, unit, better); a layer is a module under src/repro
PER_LAYER = [
    ("api.facade_self_us_per_call", "us", "lower"),
    ("api.ops_s", "1/s", "higher"),
    ("api.cpu_ms_per_op", "ms", "lower"),
    ("api.call_p50_ms", "ms", "lower"),
    ("api.call_p90_ms", "ms", "lower"),
    ("api.insert_p50_ms", "ms", "lower"),
    ("api.insert_p90_ms", "ms", "lower"),
    ("api.call_p99_ms", "ms", "lower"),
    ("search.self_ms_per_query", "ms", "lower"),
    ("search.heap_ms_per_query", "ms", "lower"),
    ("search.nodes_per_query", "count", "lower"),
    ("search.leaf_read_ratio", "ratio", "lower"),
    ("geometry.mindist_ms_per_query", "ms", "lower"),
    ("geometry.mindist_calls_per_query", "count", "lower"),
    ("geometry.cross_dist_ms_per_query", "ms", "lower"),
    ("geometry.distance_computations_per_query", "count", "lower"),
    ("storage.read_self_ms_per_query", "ms", "lower"),
    ("storage.pagefile_read_ms_per_query", "ms", "lower"),
    ("storage.decode_ms_per_query", "ms", "lower"),
    ("storage.decode_us_per_page", "us", "lower"),
    ("storage.buffer_hit_ratio", "ratio", "higher"),
    ("storage.pagefile_reads_per_query", "count", "lower"),
    ("storage.txn_self_ms_per_insert", "ms", "lower"),
    ("storage.wal_commit_ms_per_insert", "ms", "lower"),
    ("storage.encode_ms_per_insert", "ms", "lower"),
    ("storage.wal_bytes_per_insert", "bytes", "lower"),
    ("storage.page_writes_per_insert", "count", "lower"),
    ("storage.checkpoints", "count", "lower"),
    ("storage.checkpoint_ms_max", "ms", "lower"),
    ("indexes.insert_self_ms", "ms", "lower"),
    ("indexes.splits_per_insert", "count", "lower"),
    ("indexes.reinserts_per_insert", "count", "lower"),
    ("exec.batch_self_ms_per_query", "ms", "lower"),
    ("exec.batch_nodes_per_query", "count", "lower"),
    ("exec.pool_worker_busy_ms_per_call", "ms", "lower"),
    ("exec.pool_handoff_ms_per_call", "ms", "lower"),
    ("exec.pool_imbalance", "ratio", "lower"),
    ("exec.pool_speedup_vs_batch", "ratio", "higher"),
    ("exec.pool_spawn_s", "s", "lower"),
    ("exec.pool_degraded_queries", "count", "lower"),
    ("exec.pool_respawns", "count", "lower"),
    ("net.client_encode_us", "us", "lower"),
    ("net.client_decode_us", "us", "lower"),
    ("net.request_bytes", "bytes", "lower"),
    ("net.response_bytes", "bytes", "lower"),
    ("net.server_request_ms", "ms", "lower"),
    ("net.server_execute_ms", "ms", "lower"),
    ("net.server_overhead_ms", "ms", "lower"),
    ("net.admission_wait_ms", "ms", "lower"),
    ("net.wire_ms", "ms", "lower"),
    ("net.local_execute_ms", "ms", "lower"),
    ("net.one_client_ops_s", "1/s", "higher"),
    ("net.shed_total", "count", "lower"),
    ("obs.overhead_ratio", "ratio", "lower"),
    ("ledger.trace_overhead_ratio", "ratio", "lower"),
    ("ledger.span_coverage", "ratio", "higher"),
]

# Metrics read from public counters: with one client and a fixed call count
# (no --seconds) they must repeat exactly; --check-repeat fails if one does not.
COUNTERS = (
    "search.nodes_per_query", "search.leaf_read_ratio",
    "geometry.distance_computations_per_query", "storage.buffer_hit_ratio",
    "storage.pagefile_reads_per_query", "storage.wal_bytes_per_insert",
    "storage.page_writes_per_insert", "storage.checkpoints",
    "indexes.splits_per_insert", "indexes.reinserts_per_insert",
    "exec.batch_nodes_per_query", "pages_per_query", "space_amp",
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
BOUNDS = {name: bound for name, _, _, bound in END_TO_END}


def benchmark_json() -> dict:
    """The document the builder's contract asks for, and nothing more."""
    return {
        "command": ["python3", "ledger/run.py"],
        "paths": ["ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": body["why"]} for name, body in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }
