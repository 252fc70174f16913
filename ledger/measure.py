"""One workload, one run: the end-to-end metrics or the per-layer metrics.

End-to-end metrics are measured with nothing patched.  The per-layer run
first drives an untraced pass (public counters, and the baseline for the
tracing overhead), then installs the shims, reopens the workload and
replays exactly the same calls under the recorder.
"""

from __future__ import annotations

import gc
import json
import shutil
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

import repro
from repro.obs.hooks import set_metrics_enabled

from . import shims, spec
from .driver import Window, percentile, run_closed_loop, supports
from .env import cpu_seconds, peak_rss_mb
from .spans import Recorder, Rollup, write_trace
from .workloads import WORKLOADS, BlockClient, QueryClient

READ_KINDS = ("knn", "knn_block")


class Run:
    """What one run reports: metrics, check results and the stamp's details."""

    def __init__(self) -> None:
        self.metrics: dict[str, float] = {}
        self.samples: dict[str, int] = {}  # sample counts printed beside percentiles
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.informational: dict[str, float] = {}  # printed, not in the result
        self.details: dict = {}


def _stop(seconds: float | None, calls: int) -> dict:
    return {"max_calls": calls} if seconds is None else {"seconds": seconds}


def _delta(after: dict, before: dict) -> dict:
    return {key: after[key] - before[key] for key in after}


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def _fresh(cls, seed: int, workdir: Path, src: Path, smoke: bool):
    shutil.rmtree(workdir, ignore_errors=True)
    return cls(seed, workdir, src=src, smoke=smoke)


def _account(run: Run, workload, window: Window) -> None:
    """Fold one window's failures and wrong answers into the run."""
    wrong, notes = workload.verify()
    run.attempted += window.attempted_ops
    run.failed += window.failed_ops + wrong
    run.notes += notes + window.errors
    if wrong:
        run.notes.append(f"{wrong} answers differ from the oracle")


def _pct_ms(samples, pct: float) -> float:
    """A percentile in ms, or 0 with too few samples to support it."""
    if not supports(len(samples), pct):
        return 0.0
    return percentile(samples, pct) * 1e3


def timings(window: Window, cpu: float) -> tuple[dict, dict]:
    """Throughput, CPU cost and call latencies of one window, and sample counts.

    ``cpu`` is the CPU time the generator and its children spent in the window.
    """
    reads = window.latencies_of(*READ_KINDS)
    inserts = window.latencies_of("insert")
    values = {
        "api.ops_s": _per(window.completed_ops, window.wall),
        "api.cpu_ms_per_op": _per(cpu, window.completed_ops) * 1e3,
        "api.call_p50_ms": _pct_ms(reads, 50),
        "api.call_p90_ms": _pct_ms(reads, 90),
        "api.insert_p50_ms": _pct_ms(inserts, 50),
        "api.insert_p90_ms": _pct_ms(inserts, 90),
    }
    samples = {name: len(inserts if "insert" in name else reads)
               for name in values if name.endswith("_ms")}  # the percentiles
    return values, samples


def _check_fits_buffer(run: Run, workload, spent: dict) -> None:
    lookups = spent["q_buffer_hits"] + spent["q_buffer_misses"]
    ratio = _per(spent["q_buffer_hits"], lookups)
    run.details["window_buffer_hit_ratio"] = ratio
    if workload.remote and ratio < 0.99:
        run.failed += 1
        run.notes.append(f"cluster_remote must fit the buffer pool: window hit "
                         f"ratio {ratio:.4f} < 0.99; shrink the point count")


# ----------------------------------------------------------------------
# end to end
# ----------------------------------------------------------------------


def end_to_end(name: str, seed: int, seconds: float | None, smoke: bool,
               out: Path, src: Path) -> Run:
    run = Run()
    cls = WORKLOADS[name]
    setups = []
    workload = None
    try:
        for _ in range(1 if smoke else spec.SETUP_REPEATS):
            if workload is not None:
                workload.close()
                workload = None
                gc.collect()  # or peak_rss_mb depends on when the collector last ran
            began = perf_counter()
            workload = _fresh(cls, seed, out / "work" / name, src, smoke)
            workload.build()
            workload.open()
            setups.append(perf_counter() - began)
        before = workload.counters()
        children = workload.child_pids()
        cpu_before = cpu_seconds(children)
        window = run_closed_loop(workload.clients, first=workload.warmup_calls,
                                 **_stop(seconds, workload.nominal_calls))
        cpu = cpu_seconds(children) - cpu_before
        spent = _delta(workload.counters(), before)
        rss = peak_rss_mb(children)
        stored, user = workload.stored_bytes(), workload.user_bytes()
        _account(run, workload, window)
        _check_fits_buffer(run, workload, spent)
        run.details.update(workload.describe())
    finally:
        if workload is not None:
            workload.close()

    queries = window.ops_of(*READ_KINDS)
    m = run.metrics
    m["setup_s"] = statistics.median(setups)
    m["pages_per_query"] = (workload.cold_pages_per_query if workload.remote
                            else _per(spent["q_page_reads"], queries))
    m["peak_rss_mb"] = rss
    m["space_amp"] = stored / user
    # Latency and throughput are per-layer metrics (see spec.END_TO_END for
    # why); an untraced run prints them from its full window, unbounded.
    run.informational, run.samples = timings(window, cpu)
    run.details.update(window_s=window.wall, calls=len(window.latencies),
                       calls_per_client=window.calls_per_client,
                       setup_runs_s=setups,
                       fail_ratio=_per(run.failed, run.attempted))
    return run


# ----------------------------------------------------------------------
# per layer
# ----------------------------------------------------------------------


def _alternate_obs(client, first: int, blocks: int, block: int) -> float:
    """``obs.overhead_ratio``: metrics on vs off, in alternating blocks."""
    spent = {False: 0.0, True: 0.0}
    at = first
    try:
        for step in range(2 * blocks):
            enabled = bool(step % 2)
            set_metrics_enabled(enabled)
            window = run_closed_loop([client], first=at, max_calls=block)
            spent[enabled] += sum(window.latencies)
            at += block
    finally:
        set_metrics_enabled(True)
    return spent[True] / spent[False] - 1.0 if spent[False] else 0.0


def _pool_metrics(m: dict, workload, window: Window) -> None:
    busiest, handoff, imbalance = [], [], []
    for wall, times in zip(window.latencies, workload.block_times):
        busy = [ms for ms, _ in times]
        if not busy:
            continue
        busiest.append(max(busy))
        handoff.append(wall * 1e3 - max(busy))
        imbalance.append(max(busy) / (sum(busy) / len(busy)))
    m["exec.pool_worker_busy_ms_per_call"] = float(np.mean(busiest))
    m["exec.pool_handoff_ms_per_call"] = float(np.mean(handoff))
    m["exec.pool_imbalance"] = float(np.mean(imbalance))
    m["exec.pool_spawn_s"] = workload.spawn_s


def _batch_ops_s(workload, stop: dict) -> float:
    """The same query blocks through a local ``Database.knn_batch``."""
    with repro.Database.open(workload.path) as db:
        client = BlockClient(db, workload.queries, workload.size["block"],
                             lambda handle, block: handle.knn_batch(block, spec.K))
        run_closed_loop([client], max_calls=2)
        window = run_closed_loop([client], first=2, **stop)
    return _per(window.completed_ops, window.wall)


def _local_replay(m: dict, workload, calls: int) -> None:
    """cluster_remote's queries through a local handle: execute cost, obs cost."""
    with repro.Database.open(workload.path) as db:
        client = QueryClient(db, workload.queries)
        run_closed_loop([client], max_calls=workload.warmup_calls)
        window = run_closed_loop([client], first=workload.warmup_calls,
                                 max_calls=calls)
        m["net.local_execute_ms"] = float(np.mean(window.latencies)) * 1e3
        m["obs.overhead_ratio"] = _alternate_obs(
            client, workload.warmup_calls, blocks=10, block=max(10, calls // 20))


def per_layer(name: str, seed: int, seconds: float | None, smoke: bool,
              out: Path, src: Path) -> Run:
    run = Run()
    m = run.metrics = {metric: 0.0 for metric, _, _ in spec.PER_LAYER}
    cls = WORKLOADS[name]
    workload = _fresh(cls, seed, out / "work" / name, src, smoke)
    share = None if seconds is None else seconds * spec.TRACE_SHARE
    recorder = Recorder()
    try:
        workload.build()

        # -- pass 1: untraced; counters and the overhead baseline ---------
        workload.open()
        first = workload.warmup_calls
        stop = _stop(share, max(1, workload.nominal_calls // 10))
        before = workload.counters()
        children = workload.child_pids()
        cpu_before = cpu_seconds(children)
        plain = run_closed_loop(workload.clients, first=first, **stop)
        cpu = cpu_seconds(children) - cpu_before
        spent = _delta(workload.counters(), before)
        calls = min(plain.calls_per_client)
        if name == "uniform_single":
            m["obs.overhead_ratio"] = _alternate_obs(
                workload.clients[0], first + calls, blocks=6, block=10)
        elif name == "uniform_pool":
            _pool_metrics(m, workload, plain)
        elif name == "cluster_remote":
            solo = run_closed_loop(workload.clients[:1], first=first + calls,
                                   **_stop(share and share / 2, calls))
            m["net.one_client_ops_s"] = _per(solo.completed_ops, solo.wall)
            _local_replay(m, workload, calls)
        _account(run, workload, plain)
        _check_fits_buffer(run, workload, spent)
        workload.close()
        if name == "uniform_pool":
            m["exec.pool_speedup_vs_batch"] = _per(
                _per(plain.completed_ops, plain.wall),
                _batch_ops_s(workload, _stop(share and share / 2, calls)))

        # -- pass 2: the same calls under the recorder ----------------------
        shims.install(recorder, shims.ENGINE, shims.POOL, shims.CLIENT)
        workload.open(traced=True)
        recorder.clear()
        began = perf_counter()
        traced = run_closed_loop(workload.clients, first=first, max_calls=calls)
        ended = perf_counter()
        recorder.uninstall()  # the answer checks below run unobserved
        _account(run, workload, traced)
        workload.close()
    finally:
        workload.close()
        recorder.uninstall()

    columns = recorder.columns()
    local = Rollup(columns)
    roots = local.check_sums()
    engine = local
    if workload.remote:
        with open(workload.trace_out) as dumped:
            engine = Rollup(json.load(dumped), since=began, until=ended)
        engine.check_sums()

    queries = traced.ops_of(*READ_KINDS)
    plain_queries = plain.ops_of(*READ_KINDS)
    inserts = traced.ops_of("insert")
    plain_inserts = plain.ops_of("insert")
    under = {"uniform_batch": "api.Database.knn_batch", "uniform_pool": "exec.pool.knn",
             "cluster_remote": "net.server.request"}.get(name, "api.Database.knn")

    def ms_per_query(seconds_total: float) -> float:
        return _per(seconds_total, queries) * 1e3

    m["api.facade_self_us_per_call"] = _per(engine.self_total("api"),
                                            engine.count("api")) * 1e6
    measured, run.samples = timings(plain, cpu)
    m.update(measured)
    m["api.call_p99_ms"] = _pct_ms(plain.latencies_of(*READ_KINDS), 99)
    heap = engine.total("search.heap", under)
    m["search.self_ms_per_query"] = ms_per_query(
        engine.self_total("search", under) - engine.self_total("search.heap", under))
    m["search.heap_ms_per_query"] = ms_per_query(heap)
    lookups = spent["q_buffer_hits"] + spent["q_buffer_misses"]
    m["search.nodes_per_query"] = _per(lookups, plain_queries)
    m["search.leaf_read_ratio"] = _per(_per(spent["q_leaf_reads"], plain_queries),
                                         workload.leaves)
    m["geometry.mindist_ms_per_query"] = ms_per_query(engine.total("geometry.mindist", under))
    m["geometry.mindist_calls_per_query"] = _per(engine.count("geometry.mindist", under), queries)
    m["geometry.cross_dist_ms_per_query"] = ms_per_query(
        engine.total("geometry.cross_distances", under))
    m["geometry.distance_computations_per_query"] = _per(
        spent["q_distance_computations"], plain_queries)
    m["storage.read_self_ms_per_query"] = ms_per_query(engine.self_total("storage.read", under))
    m["storage.pagefile_read_ms_per_query"] = ms_per_query(
        engine.self_total("storage.pagefile", under))
    m["storage.decode_ms_per_query"] = ms_per_query(engine.total("storage.decode", under))
    m["storage.decode_us_per_page"] = _per(engine.total("storage.decode"),
                                           engine.count("storage.decode")) * 1e6
    m["storage.buffer_hit_ratio"] = _per(spent["q_buffer_hits"], lookups)
    m["storage.pagefile_reads_per_query"] = _per(spent["q_page_reads"], plain_queries)
    if inserts:
        m["storage.txn_self_ms_per_insert"] = _per(local.self_total("storage.txn"), inserts) * 1e3
        m["storage.wal_commit_ms_per_insert"] = _per(local.total("storage.wal_commit"), inserts) * 1e3
        m["storage.encode_ms_per_insert"] = _per(local.total("storage.encode"), inserts) * 1e3
        m["storage.wal_bytes_per_insert"] = _per(spent["wal_bytes"], spent["wal_growths"])
        m["storage.page_writes_per_insert"] = _per(spent["page_writes"], plain_inserts)
        m["storage.checkpoints"] = float(spent["checkpoints"])
        m["storage.checkpoint_ms_max"] = local.longest("storage.checkpoint") * 1e3
        m["indexes.insert_self_ms"] = _per(local.self_total("indexes.insert"), inserts) * 1e3
        m["indexes.splits_per_insert"] = _per(spent["splits"], plain_inserts)
        m["indexes.reinserts_per_insert"] = _per(spent["reinserts"], plain_inserts)
    m["exec.batch_self_ms_per_query"] = ms_per_query(engine.self_total("exec", under)
                                                     - engine.self_total("exec.pool", under))
    if name in ("uniform_batch", "uniform_pool"):
        m["exec.batch_nodes_per_query"] = m["search.nodes_per_query"]
    if name == "uniform_pool":
        m["exec.pool_degraded_queries"] = float(spent["degraded"])
        m["exec.pool_respawns"] = float(spent["respawns"])
    if workload.remote:
        requests = len(traced.latencies)
        m["net.client_encode_us"] = _per(local.self_total("net.client.encode"), requests) * 1e6
        m["net.client_decode_us"] = _per(local.total("net.client.decode"), requests) * 1e6
        m["net.request_bytes"] = float(local.values("net.client.round_trip").mean())
        m["net.response_bytes"] = float(local.values("net.client.decode").mean())
        m["net.server_request_ms"] = _per(spent["request_seconds"], spent["request_count"]) * 1e3
        m["net.server_execute_ms"] = _per(spent["query_seconds"], spent["query_count"]) * 1e3
        m["net.server_overhead_ms"] = m["net.server_request_ms"] - m["net.server_execute_ms"]
        m["net.admission_wait_ms"] = _per(engine.total("net.server.admission"), requests) * 1e3
        m["net.wire_ms"] = _per(local.total("net.client.round_trip")
                                - engine.total("net.server.request"), requests) * 1e3
        m["net.shed_total"] = float(spent["shed"])
    m["ledger.trace_overhead_ratio"] = _per(_per(traced.wall, traced.completed_ops),
                                            _per(plain.wall, plain.completed_ops)) - 1.0
    m["ledger.span_coverage"] = local.coverage()

    layers = {}
    for rollup in {id(local): local, id(engine): engine}.values():
        for span_name, row in rollup.table().items():
            layer = span_name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + row["self_s"]
    if workload.remote:
        # The client's round-trip span covers the server's whole request.
        layers["net"] -= engine.total("net.server.request")
    total = sum(layers.values())
    run.details.update(workload.describe())
    run.details.update(
        traced_calls=len(traced.latencies), untraced_calls=len(plain.latencies),
        traced_root_s=roots, spans=len(columns["name"]),
        layer_self_share={layer: _per(s, total) for layer, s in sorted(layers.items())},
        layers_seen=sorted(layers), fail_ratio=_per(run.failed, run.attempted))
    write_trace(out / f"trace_{name}.json", columns, local,
                extra={"workload": name, "seed": seed,
                       "server_rollup": engine.table() if workload.remote else None})
    return run
