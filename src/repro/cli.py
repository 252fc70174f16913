"""Command-line interface: build, query, and inspect indexes from files.

Usage (also via ``python -m repro``)::

    # Generate a workload (NumPy .npy file of shape (N, D)).
    python -m repro generate --family cluster --size 10000 --dims 16 \\
        --out data.npy

    # Build an on-disk index over it (every page sealed with a CRC32).
    python -m repro build --kind srtree --data data.npy --out images.srtree

    # Crash-safe build: WAL-journaled inserts.
    python -m repro build --kind srtree --data data.npy --out images.srtree \\
        --durability wal

    # After a crash: replay the write-ahead log, then check integrity.
    python -m repro recover --index images.srtree
    python -m repro verify --index images.srtree

    # Inspect its structure.
    python -m repro info --index images.srtree

    # Query it: the k nearest neighbors of a point.
    python -m repro query --index images.srtree --point 0.1,0.2,... -k 21
    python -m repro query --index images.srtree --row 123 --data data.npy

    # EXPLAIN the traversal: per-level visit/prune breakdown.
    python -m repro query --index images.srtree --row 123 --data data.npy \\
        --explain

    # Serve the query API over HTTP, then query it remotely.
    python -m repro serve --index images.srtree --port 8750
    python -m repro query --remote localhost:8750 --point 0.1,0.2,... -k 21

    # Exercise an index and dump the metrics registry (Prometheus text).
    python -m repro stats --index images.srtree --queries 20 --format prom

The query command also reports the paper's cost metric (pages read by
the cold query); see ``docs/OBSERVABILITY.md`` for the metric catalog
and the tracing API behind ``--explain``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from .analysis import describe
from .api import Database
from .exceptions import IndexError_, ReproError, StorageError
from .indexes import INDEX_KINDS
from .obs import REGISTRY, explain, render, trace
from .workloads import cluster_dataset, histogram_dataset, uniform_dataset

__all__ = ["main"]

_BUILDABLE = sorted(k for k in INDEX_KINDS)
_FAMILIES = ("uniform", "cluster", "real")
_STATS_FORMATS = ("prom", "json", "text")


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, FileNotFoundError, KeyError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SR-tree reproduction: build, query, and inspect "
                    "high-dimensional disk indexes.",
    )
    sub = parser.add_subparsers(required=True)

    generate = sub.add_parser("generate", help="generate a workload .npy file")
    generate.add_argument("--family", choices=_FAMILIES, default="uniform")
    generate.add_argument("--size", type=int, default=10000,
                          help="number of points")
    generate.add_argument("--dims", type=int, default=16)
    generate.add_argument("--clusters", type=int, default=100,
                          help="cluster count (cluster family only)")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", required=True, help="output .npy path")
    generate.set_defaults(handler=_cmd_generate)

    build = sub.add_parser("build", help="build an on-disk index from a .npy file")
    build.add_argument("--kind", choices=_BUILDABLE, default="srtree")
    build.add_argument("--data", required=True, help="(N, D) .npy of points")
    build.add_argument("--out", required=True, help="output index file")
    build.add_argument("--page-size", type=int, default=8192)
    build.add_argument("--durability", choices=("none", "wal"), default="none",
                       help="'wal' commits every insert through a "
                            "write-ahead log")
    build.set_defaults(handler=_cmd_build)

    info = sub.add_parser("info", help="describe a saved index")
    info.add_argument("--index", required=True)
    info.set_defaults(handler=_cmd_info)

    query = sub.add_parser(
        "query",
        help="k-NN query against a saved index or a running server",
    )
    where = query.add_mutually_exclusive_group(required=True)
    where.add_argument("--index", help="saved index file")
    where.add_argument("--remote", metavar="HOST:PORT",
                       help="query a running 'repro serve' instance "
                            "instead of a local file")
    query.add_argument("-k", type=int, default=21)
    point = query.add_mutually_exclusive_group(required=True)
    point.add_argument("--point", help="comma-separated coordinates")
    point.add_argument("--row", type=int,
                       help="row of --data to use as the query point")
    query.add_argument("--data", help=".npy file for --row queries")
    query.add_argument("--deadline-ms", type=float, default=None,
                       help="latency budget sent as X-Repro-Deadline-Ms "
                            "(--remote only)")
    query.add_argument("--explain", action="store_true",
                       help="trace the traversal and print a per-level "
                            "visit/prune breakdown (EXPLAIN)")
    query.set_defaults(handler=_cmd_query)

    # stats, slow and events exercise an index the same way first.
    exercise = argparse.ArgumentParser(add_help=False)
    exercise.add_argument("--queries", type=int, default=20,
                          help="cold sample k-NN queries to run (default 20)")
    exercise.add_argument("-k", type=int, default=21)
    exercise.add_argument("--seed", type=int, default=0)

    stats = sub.add_parser(
        "stats", parents=[exercise],
        help="exercise an index and dump the metrics registry",
        description="Runs a batch of cold k-NN queries against a saved "
                    "index to populate the metrics registry, then dumps "
                    "the registry (Prometheus text by default).  Without "
                    "--index, dumps whatever the current process has "
                    "recorded (empty in a fresh CLI invocation).",
    )
    stats.add_argument("--index", help="saved index file to exercise")
    stats.add_argument("--format", choices=_STATS_FORMATS, default="prom",
                       help="output format: Prometheus text exposition, "
                            "JSON, or a flat name=value listing")
    stats.set_defaults(handler=_cmd_stats)

    serve = sub.add_parser(
        "serve",
        help="serve an index's query API over HTTP (repro.net)",
        description="Opens a saved index and serves the full query "
                    "surface (/v1/knn, /v1/range, /v1/window, /v1/lookup, "
                    "/v1/explain, /v1/stats; every body is matrix frames) "
                    "over HTTP/1.1 with admission control and deadline "
                    "propagation, until SIGTERM/Ctrl-C — both trigger a "
                    "graceful drain (in-flight requests finish, late "
                    "arrivals are shed with 503).  /metrics, /healthz "
                    "and /varz are answered on the same port.  "
                    "Coalescing is always on, with no timer and no "
                    "flag: a one-row knn/range request runs at once "
                    "when none of its kind is running, and those that "
                    "arrive meanwhile are answered by one batched "
                    "call when it returns.  With --workers > 1 "
                    "the index is served through a ServingPool of "
                    "worker processes; with --token, mutation endpoints "
                    "(/v1/insert, /v1/insert_many, /v1/delete: points, "
                    "then values as one JSON list) are enabled for "
                    "clients presenting the token (single-handle "
                    "Database serving only).  Query it with "
                    "'repro query --remote HOST:PORT' or "
                    "repro.RemoteDatabase.  See docs/SERVING.md.",
    )
    serve.add_argument("--index", required=True, help="saved index file")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8750,
                         help="listen port (default 8750; 0 = ephemeral)")
    serve.add_argument("--workers", type=int, default=1,
                         help="serve through a pool of this many worker "
                              "processes (default 1 = a single Database "
                              "handle, which also enables mutations with "
                              "--token)")
    serve.add_argument("--max-inflight", type=int, default=8,
                         help="admission control: concurrent requests "
                              "(default 8)")
    serve.add_argument("--max-queue", type=int, default=16,
                         help="admission control: queued requests beyond "
                              "the in-flight bound; overflow sheds with "
                              "429 (default 16)")
    serve.add_argument("--token", default=None,
                         help="shared secret enabling mutation endpoints "
                              "(omit to serve read-only)")
    serve.add_argument("--timeout", type=float, default=None,
                         help="default per-call worker deadline in "
                              "seconds (pool serving only)")
    serve.add_argument("--slo-ms", type=float, default=None,
                         help="latency objective in ms (default 100)")
    # Telemetry is answered on the query port; this flag is accepted,
    # hidden and as 0 alone, because ledger/workloads.py passes it.
    serve.add_argument("--telemetry-port", type=_telemetry_port,
                       help=argparse.SUPPRESS)
    serve.add_argument("--duration", type=float, default=None,
                         help="serve this many seconds, then drain and "
                              "exit (default: until SIGTERM/Ctrl-C)")
    serve.set_defaults(handler=_cmd_serve)

    slow = sub.add_parser(
        "slow", parents=[exercise],
        help="slowest queries seen by the flight recorder",
        description="Runs cold sample k-NN queries against a saved "
                    "index (like 'stats'), then prints the flight "
                    "recorder's slowest-query table: wall time, pages "
                    "read split by level, buffer hits, and — for "
                    "queries tail-sampled after a latency-objective "
                    "breach — whether full trace detail was captured.",
    )
    slow.add_argument("--index", required=True, help="saved index file")
    slow.add_argument("-n", "--top", type=int, default=10,
                      help="how many of the slowest queries to show")
    slow.add_argument("--slo-ms", type=float, default=None,
                      help="latency objective in ms: slower queries "
                           "are flagged slow (default 100)")
    slow.add_argument("--format", choices=("table", "json"),
                      default="table")
    slow.set_defaults(handler=_cmd_slow)

    events = sub.add_parser(
        "events", parents=[exercise],
        help="dump the structured event log",
        description="Prints the in-process event ring as one-line JSON "
                    "events.  With --index, first exercises the index "
                    "with cold sample k-NN queries (recording at "
                    "--level, default debug) so there is something to "
                    "show.",
    )
    events.add_argument("--index", help="saved index file to exercise")
    events.add_argument("--tail", type=int, default=None, metavar="N",
                        help="print only the last N events")
    events.add_argument("--level", default="debug",
                        choices=("debug", "info", "warn", "error"),
                        help="minimum level to record and print")
    events.set_defaults(handler=_cmd_events)

    recover = sub.add_parser(
        "recover",
        help="replay a crashed index's write-ahead log",
        description="Runs WAL recovery against an index file: committed "
                    "transactions left in <index>.wal are replayed into "
                    "the data file, torn tails are discarded, and the "
                    "log is truncated.  Safe to run on a clean file "
                    "(reports nothing to do).",
    )
    recover.add_argument("--index", required=True, help="index data file")
    recover.set_defaults(handler=_cmd_recover)

    verify = sub.add_parser(
        "verify",
        help="check an index's structural and checksum integrity",
        description="Opens a saved index (running WAL recovery first), "
                    "reads every stored point (which verifies the CRC32 "
                    "trailer of each page), and runs the family's "
                    "structural invariant checks.  "
                    "Exits 1 on damage.",
    )
    verify.add_argument("--index", required=True, help="index data file")
    verify.set_defaults(handler=_cmd_verify)

    return parser


def _cmd_generate(args) -> int:
    if args.family == "uniform":
        data = uniform_dataset(args.size, args.dims, seed=args.seed)
    elif args.family == "real":
        data = histogram_dataset(args.size, bins=args.dims, seed=args.seed)
    else:
        per_cluster = max(1, args.size // args.clusters)
        data = cluster_dataset(args.clusters, per_cluster, args.dims,
                               seed=args.seed)
    np.save(args.out, data)
    print(f"wrote {data.shape[0]} x {data.shape[1]} {args.family} points "
          f"to {args.out}")
    return 0


def _cmd_build(args) -> int:
    data = np.load(args.data)
    if data.ndim != 2:
        raise ValueError(f"{args.data} does not hold an (N, D) point array")
    start = time.perf_counter()
    # --out replaces: a tree appended to an earlier build's pages would
    # leak them (and lay this build's page size over the old one's).
    with Database.create(args.out, kind=args.kind, dims=data.shape[1],
                         durability=args.durability, overwrite=True,
                         page_size=args.page_size) as db:
        db.insert_many(data)
        elapsed = time.perf_counter() - start
    suffix = " (WAL)" if args.durability == "wal" else ""
    print(f"built {args.kind} over {data.shape[0]} x {data.shape[1]} points "
          f"in {elapsed:.2f}s -> {args.out}{suffix}")
    return 0


def _cmd_info(args) -> int:
    with Database.open(args.index) as db:
        print(describe(db.index))
    return 0


def _query_point(args) -> np.ndarray:
    if args.point is not None:
        return np.array([float(x) for x in args.point.split(",")])
    if not args.data:
        raise ValueError("--row requires --data")
    return np.load(args.data)[args.row]


def _cmd_query(args) -> int:
    if args.remote is not None:
        return _cmd_query_remote(args)
    with Database.open(args.index) as db:
        index = db.index
        point = _query_point(args)
        index.store.drop_cache()
        before = index.stats.snapshot()
        start = time.perf_counter()
        if args.explain:
            trace.enable()
            with trace.span("knn", k=args.k) as span:
                neighbors = index.nearest(point, k=args.k)
        else:
            span = None
            neighbors = index.nearest(point, k=args.k)
        elapsed = (time.perf_counter() - start) * 1e3
        cost = index.stats.since(before)
        for n in neighbors:
            print(f"{n.distance:.6f}  {n.value!r}")
        print(f"-- {len(neighbors)} neighbors, {cost.page_reads} page reads "
              f"({cost.node_reads} node + {cost.leaf_reads} leaf), "
              f"{elapsed:.2f} ms")
        if span is not None:
            print()
            print(explain(span))
            trace.disable()
    return 0


def _cmd_query_remote(args) -> int:
    from .exceptions import NetError
    from .net import RemoteDatabase

    point = _query_point(args)
    try:
        with RemoteDatabase.connect(args.remote,
                                    deadline_ms=args.deadline_ms) as db:
            start = time.perf_counter()
            neighbors = db.knn(point, k=args.k)
            elapsed = (time.perf_counter() - start) * 1e3
            for n in neighbors:
                print(f"{n.distance:.6f}  {n.value!r}")
            print(f"-- {len(neighbors)} neighbors from {args.remote} "
                  f"({db.kind}, {db.dims}d), {elapsed:.2f} ms round trip")
            if args.explain:
                print()
                print(db.explain(point, k=args.k))
    except NetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _telemetry_port(raw: str) -> int:
    if int(raw) != 0:
        raise argparse.ArgumentTypeError(
            f"{raw} is refused: /metrics, /healthz and /varz are served "
            f"on the query port (--port)")
    return 0


def _cmd_serve(args) -> int:
    import signal
    import threading

    from .exec import ServingPool
    from .net import QueryServer
    from .obs.hooks import set_slo_ms

    if args.slo_ms is not None:
        set_slo_ms(args.slo_ms)
    if args.workers > 1:
        source = ServingPool(args.index, workers=args.workers,
                             timeout=args.timeout)
        mode = f"{args.workers} worker processes"
    else:
        source = Database.open(args.index)
        mode = "single handle"
    stop = threading.Event()
    # SIGTERM (and Ctrl-C below) trigger the same graceful drain:
    # in-flight requests finish, late arrivals are shed with 503.
    previous = signal.signal(signal.SIGTERM, lambda *_: stop.set())
    try:
        server = QueryServer(
            source,
            host=args.host,
            port=args.port,
            max_inflight=args.max_inflight,
            max_queue=args.max_queue,
            auth_token=args.token,
        )
        try:
            host, port = server.address
            mutations = "enabled" if args.token else "disabled"
            print(f"serving {args.index} at http://{host}:{port}/v1 "
                  f"({mode}, mutations {mutations})")
            print(f"telemetry at http://{host}:{port}  "
                  f"(/metrics /healthz /varz)")
            print("Ctrl-C or SIGTERM drains and exits")
            try:
                if args.duration is not None:
                    stop.wait(args.duration)
                else:
                    stop.wait()
            except KeyboardInterrupt:
                pass
            print("draining...")
        finally:
            server.close()
    finally:
        signal.signal(signal.SIGTERM, previous)
        source.close()
    print("drained; bye")
    return 0


def _cmd_stats(args) -> int:
    if args.index:
        _exercise(args)
    _print_registry(args.format)
    return 0


def _exercise(args) -> None:
    """Open ``--index`` and run cold sample k-NN queries so the registry
    has something to say (stats/slow/events)."""
    with Database.open(args.index) as db:
        index = db.index
        if args.queries < 1 or index.size == 0:
            return
        k = min(args.k, index.size)
        for point in _sample_stored_points(index, args.queries, args.seed):
            index.store.drop_cache()
            index.nearest(point, k=k)


def _sample_stored_points(index, count: int, seed: int) -> np.ndarray:
    """Reservoir-sample ``count`` stored points to use as query points."""
    rng = np.random.default_rng(seed)
    reservoir: list[np.ndarray] = []
    for i, (point, _value) in enumerate(index.iter_points()):
        if len(reservoir) < count:
            reservoir.append(point)
        else:
            j = int(rng.integers(0, i + 1))
            if j < count:
                reservoir[j] = point
        if i >= 20 * count:
            break
    base = len(reservoir)  # > 0: the caller returns early on an empty index
    while len(reservoir) < count:
        reservoir.append(reservoir[len(reservoir) % base])
    return np.vstack(reservoir[:count])


def _cmd_slow(args) -> int:
    from .obs import FLIGHT, set_slo_ms, slo_ms

    if args.slo_ms is not None:
        set_slo_ms(args.slo_ms)
    _exercise(args)
    slowest = FLIGHT.slowest(args.top)
    if args.format == "json":
        print(json.dumps([rec.to_dict() for rec in slowest], indent=2,
                         sort_keys=True))
        return 0
    if not slowest:
        print("flight recorder is empty (no queries recorded)")
        return 0
    print(f"{'qid':>6}  {'op':<14} {'k':>4} {'wall ms':>9} {'pages':>6} "
          f"{'node':>5} {'leaf':>5} {'bufhit':>6}  flags")
    for rec in slowest:
        flags = []
        if rec.slow:
            flags.append("slow")
        if rec.traced:
            flags.append("traced")
        print(f"{rec.query_id:>6}  {rec.op:<14} "
              f"{rec.k if rec.k is not None else '-':>4} "
              f"{rec.wall_ms:>9.3f} {rec.page_reads:>6} "
              f"{rec.node_reads:>5} {rec.leaf_reads:>5} "
              f"{rec.buffer_hits:>6}  {','.join(flags) or '-'}")
    pct = FLIGHT.percentiles()
    print(f"-- {FLIGHT.recorded} recorded, {FLIGHT.slow_queries} slow "
          f"(> {slo_ms()} ms); "
          f"p50 {pct['p50']:.3f} ms  p95 {pct['p95']:.3f} ms  "
          f"p99 {pct['p99']:.3f} ms")
    return 0


def _cmd_events(args) -> int:
    from .obs import EVENTS

    EVENTS.configure(min_level=args.level)
    if args.index:
        _exercise(args)
    for event in EVENTS.tail(args.tail, level=args.level):
        print(json.dumps(event, sort_keys=True, default=str))
    return 0


def _cmd_recover(args) -> int:
    from .storage import open_existing, wal_path

    log = wal_path(args.index)
    had_log = os.path.exists(log) and os.path.getsize(log) > 0
    pagefile, _wal, report, _meta = open_existing(args.index,
                                                  durability="none")
    pagefile.close()
    if had_log:
        print(report)
    else:
        print(f"{args.index}: no write-ahead log to replay (clean shutdown)")
    return 0


def _cmd_verify(args) -> int:
    try:
        with Database.open(args.index) as db:
            points = sum(1 for _ in db.index.iter_points())
            db.verify()
            height = db.index.height
    except (StorageError, IndexError_) as exc:
        print(f"{args.index}: FAILED -- {exc}", file=sys.stderr)
        return 1
    print(f"{args.index}: OK (checksummed pages, {points} points, "
          f"height {height}, invariants hold)")
    return 0


def _print_registry(fmt: str) -> None:
    if fmt == "prom":
        sys.stdout.write(render(REGISTRY))
    elif fmt == "json":
        print(json.dumps(REGISTRY.to_dict(), indent=2, sort_keys=True))
    else:
        for name, value in sorted(REGISTRY.flatten().items()):
            print(f"{name} {value}")


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
