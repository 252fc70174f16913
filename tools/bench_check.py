#!/usr/bin/env python
"""Regression gate for the committed ``BENCH_throughput.json``.

Two layers of checking, both dependency-free beyond the library itself:

1. **Schema pass** (always runs): the committed document must carry
   every field ``docs/PERFORMANCE.md`` promises, per-mode percentiles
   must be ordered (``p50 <= p95``), and the pool modes must report
   *real* per-block latency dispersion — a parallel run whose p50
   equals its p95 to the last bit means the per-query samples were
   fabricated from one flat ``wall / N`` average (the bug this gate
   was written to keep dead) — plus a ``per_worker`` breakdown.  On
   documents measured with >= 2 cores (``cpu_count``), the parallel
   mode must also be at least as fast as the batched single-worker
   mode — a parallel pool that *loses* to one worker (the GIL-bound
   thread backend's signature) is a regression, not a feature.  The
   same multi-core rule gates dynamic batching: when the document
   carries both remote modes, ``remote_coalesced`` must be at least as
   fast as the serial ``remote`` baseline — coalescing that loses to
   per-request dispatch means the batch engine regressed.

2. **Regression pass** (skipped with ``--schema-only``): rebuild a
   dataset and index with the same spec as the committed document
   (family/points/dims read from its ``dataset`` section), rerun the
   benchmark, and require ``fresh_qps >= tolerance * committed_qps``
   for every shared mode.  Modes whose numbers depend on something
   other than the index — ``mixed`` (a background writer's scheduling)
   and the remote modes (loopback RTT plus the query server's
   admission queue) — pass the schema check but are excluded from the
   re-measurement gate.  The default tolerance (0.35) is generous on
   purpose: CI machines are noisy and shared, and the gate is meant to
   catch order-of-magnitude regressions (an accidentally quadratic
   traversal, a lost buffer pool), not 10% jitter.

Usage::

    python tools/bench_check.py [--doc BENCH_throughput.json]
        [--schema-only] [--tolerance 0.35] [--queries N]

Exit status is non-zero on any failure; problems print one per line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

#: Fields every per-mode entry must carry (docs/PERFORMANCE.md schema).
MODE_FIELDS = (
    "mode", "queries", "k", "wall_seconds", "qps", "p50_ms", "p95_ms",
    "page_reads_per_query", "buffer_hit_ratio", "workers", "backend",
    "speedup_vs_single",
)

#: Top-level keys the document must carry.
DOC_KEYS = (
    "benchmark", "dataset", "modes", "speedups", "k", "queries", "cpu_count",
)

#: Modes served by a ServingPool, which must attribute their I/O to
#: workers and must show real latency dispersion across blocks.
POOL_MODES = ("parallel", "mixed")

#: Per-worker breakdown fields (ServingPool.worker_stats()).
PER_WORKER_FIELDS = ("worker", "page_reads", "buffer_hits", "quarantines")


def check_schema(doc: dict) -> list[str]:
    problems: list[str] = []
    for key in DOC_KEYS:
        if key not in doc:
            problems.append(f"document missing top-level key {key!r}")
    modes = doc.get("modes", {})
    if not modes:
        problems.append("document has no modes")
    problems.extend(check_scaling(doc))
    problems.extend(check_coalescing(doc))
    for mode, res in sorted(modes.items()):
        for field in MODE_FIELDS:
            if field not in res:
                problems.append(f"mode {mode!r} missing field {field!r}")
        if not all(f in res for f in ("p50_ms", "p95_ms")):
            continue
        if res["p50_ms"] > res["p95_ms"]:
            problems.append(
                f"mode {mode!r}: p50 {res['p50_ms']:.3f} ms > "
                f"p95 {res['p95_ms']:.3f} ms"
            )
        if res.get("qps", 0) <= 0:
            problems.append(f"mode {mode!r}: non-positive qps")
        if mode not in POOL_MODES:
            continue
        # Bit-identical percentiles across >= 2 blocks means the
        # samples were one flat average, not measured per block.
        blocks = -(-res.get("queries", 0) // doc.get("block_size", 64))
        if blocks >= 2 and res["p50_ms"] == res["p95_ms"]:
            problems.append(
                f"mode {mode!r}: p50 == p95 == {res['p50_ms']!r} over "
                f"{blocks} blocks — per-block latencies were not measured"
            )
        per_worker = res.get("per_worker")
        if not per_worker:
            problems.append(f"mode {mode!r}: missing per_worker breakdown")
            continue
        if len(per_worker) != res.get("workers"):
            problems.append(
                f"mode {mode!r}: per_worker has {len(per_worker)} entries "
                f"for {res.get('workers')} workers"
            )
        for entry in per_worker:
            for field in PER_WORKER_FIELDS:
                if field not in entry:
                    problems.append(
                        f"mode {mode!r}: per_worker entry missing {field!r}"
                    )
                    break
    return problems


def check_scaling(doc: dict) -> list[str]:
    """Multi-core gate: parallel serving must beat one batched worker.

    The shipped BENCH once carried a parallel mode 19% *slower* than
    batched (GIL-bound thread workers) with nothing flagging it; this
    check keeps that from recurring.  It only applies when the document
    was measured on >= 2 cores (``cpu_count``) — on a 1-core machine no
    pool can beat one batched worker and the comparison is meaningless
    — and only to multi-worker parallel runs.
    """
    modes = doc.get("modes", {})
    parallel = modes.get("parallel")
    batched = modes.get("batched")
    if parallel is None or batched is None:
        return []
    if int(doc.get("cpu_count", 1)) < 2:
        return []
    if int(parallel.get("workers", 1)) < 2:
        return []
    p_qps = parallel.get("qps", 0)
    b_qps = batched.get("qps", 0)
    if p_qps < b_qps:
        return [
            f"parallel ({parallel.get('backend', '?')} backend, "
            f"{parallel.get('workers')} workers) serves {p_qps:.1f} qps — "
            f"slower than one batched worker at {b_qps:.1f} qps on a "
            f"{doc.get('cpu_count')}-core machine; parallel serving must "
            f"scale, not regress (use backend='process')"
        ]
    return []


def check_coalescing(doc: dict) -> list[str]:
    """Dynamic batching must not lose to serial remote dispatch.

    With concurrent clients, the coalescing scheduler turns N in-flight
    point queries into one batched traversal — it should match or beat
    per-request dispatch wherever the batch engine does.  Like the
    parallel-vs-batched gate this only applies on >= 2 cores: a 1-core
    runner interleaves the client threads and the server arbitrarily,
    so the comparison is dominated by scheduler noise.
    """
    modes = doc.get("modes", {})
    coalesced = modes.get("remote_coalesced")
    serial = modes.get("remote")
    if coalesced is None or serial is None:
        return []
    if int(doc.get("cpu_count", 1)) < 2:
        return []
    c_qps = coalesced.get("qps", 0)
    s_qps = serial.get("qps", 0)
    if c_qps < s_qps:
        return [
            f"remote_coalesced ({coalesced.get('workers')} clients) "
            f"serves {c_qps:.1f} qps — slower than serial remote "
            f"dispatch at {s_qps:.1f} qps on a {doc.get('cpu_count')}-"
            f"core machine; coalescing must not lose to per-request "
            f"dispatch"
        ]
    return []


def run_regression(doc: dict, tolerance: float,
                   queries_override: int | None) -> list[str]:
    from repro.api import Database
    from repro.bench.throughput import run_throughput, sample_queries
    from repro.indexes import build_index
    from repro.workloads import uniform_dataset
    from repro.storage import open_storage

    dataset = doc.get("dataset", {})
    points = int(dataset.get("points", 5000))
    dims = int(dataset.get("dims", 16))
    kind = dataset.get("index_kind", "srtree")
    k = int(doc.get("k", 21))
    n_queries = int(queries_override or doc.get("queries", 500))
    block_size = int(doc.get("block_size", 64))
    # Only re-measure deterministic frozen-file modes; "mixed" depends
    # on a background writer's scheduling and "remote" on loopback RTT
    # and server admission, so both are excluded from the gate.
    modes = tuple(m for m in doc.get("modes", {})
                  if m not in ("mixed", "remote", "remote_coalesced"))
    if not modes:
        return ["no regression-checkable modes in document"]

    problems: list[str] = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-check-") as tmp:
        path = os.path.join(tmp, "gate.idx")
        data = uniform_dataset(points, dims, seed=0)
        pagefile, wal, _report = open_storage(path)
        index = build_index(kind, data, pagefile=pagefile, wal=wal)
        index.close()
        with Database.open(path) as db:
            queries = sample_queries(db.index, n_queries, seed=0)
        workers = max(
            int(doc["modes"][m].get("workers", 4)) for m in modes
        )
        # Compare like-for-like: rerun the parallel mode on the same
        # worker backend the committed numbers came from.
        backend = doc["modes"].get("parallel", {}).get("backend", "process")
        if backend not in ("thread", "process"):
            backend = "process"
        fresh = run_throughput(
            path, queries, k, modes=modes, block_size=block_size,
            workers=workers, backend=backend,
        )
        print(f"bench-check: reran {', '.join(modes)} over a fresh "
              f"{points} x {dims} uniform {kind} ({n_queries} queries, "
              f"k={k})")
        for mode in modes:
            committed = doc["modes"][mode]["qps"]
            measured = fresh["modes"][mode]["qps"]
            floor = tolerance * committed
            verdict = "ok" if measured >= floor else "REGRESSION"
            print(f"bench-check:   {mode:>9}: {measured:10.1f} qps "
                  f"(committed {committed:.1f}, floor {floor:.1f}) "
                  f"{verdict}")
            if measured < floor:
                problems.append(
                    f"mode {mode!r}: {measured:.1f} qps is below "
                    f"{tolerance:.2f} x committed {committed:.1f} qps"
                )
        problems.extend(
            f"fresh run: {p}" for p in check_schema(fresh)
        )
    return problems


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--doc", default=os.path.join(
        REPO_ROOT, "BENCH_throughput.json"),
        help="committed benchmark document to gate against")
    parser.add_argument("--schema-only", action="store_true",
                        help="skip the (slow) re-measurement pass")
    parser.add_argument("--tolerance", type=float, default=0.35,
                        help="fresh qps must be >= tolerance * committed "
                             "qps (default 0.35 — catches order-of-"
                             "magnitude regressions, tolerates CI noise)")
    parser.add_argument("--queries", type=int, default=None,
                        help="override query count for the re-measurement "
                             "(smaller = faster CI)")
    args = parser.parse_args(argv)

    if not (0 < args.tolerance <= 1):
        parser.error(f"--tolerance must be in (0, 1], got {args.tolerance}")
    try:
        with open(args.doc, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"bench-check: cannot load {args.doc}: {exc}", file=sys.stderr)
        return 1

    problems = check_schema(doc)
    if problems:
        for problem in problems:
            print(f"bench-check: {os.path.basename(args.doc)}: {problem}")
        print(f"bench-check: {len(problems)} schema problem(s)",
              file=sys.stderr)
        return 1
    print(f"bench-check: schema ok ({len(doc['modes'])} modes)")
    if args.schema_only:
        return 0

    problems = run_regression(doc, args.tolerance, args.queries)
    for problem in problems:
        print(f"bench-check: {problem}")
    if problems:
        print(f"bench-check: {len(problems)} regression problem(s)",
              file=sys.stderr)
        return 1
    print("bench-check: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
