#!/usr/bin/env python
"""Replay the buffer pool's exact lookup stream through the pool and through oracles.

Runs the ledger's ``uniform_single`` and ``uniform_batch`` workloads
(``ledger.workloads``: the same base index, queries, warm-up and calls as
``ledger/run.py``) at seed 0 and the fixed count: the warm-up, then 450
``knn`` queries (``uniform_single``) or 140 ``knn_batch`` calls of 16
(``uniform_batch``).  Every ``get``/``offer``/``put`` the handle's pool
receives is recorded.  Then, in physical reads per query of the timed
window (a pool miss is one read; the ledger's ``pages_per_query``):

* ``measured``       what the workload's counters recorded during the run;
* ``BufferPool``     the recorded stream replayed through a fresh pool
                     (equal to ``measured``: the replay is exact);
* ``SIEVE alone``    the lookups replayed through a pool that installs
                     every miss (``put`` where the product ``offer``s);
* ``exact LFU``      an offline pool installing a missed page when its
                     lookups so far outnumber the least looked-up
                     resident's (a tie keeps the resident; no aging);
* ``top-C static``   the ``capacity`` pages looked up most often in the
                     window, held for good (every other lookup is a read);
* ``Belady``         the offline optimum with bypass: a miss is installed
                     only if the page is wanted again before some resident,
                     which it then evicts (the one wanted last).

The window's lookup stream does not depend on the pool: the search visits
the same nodes whatever is cached, so every policy sees the same stream.

Usage::

    python tools/buffer_replay.py    # or: make buffer-replay

Informational: the counts repeat exactly on one machine.  Exits 1 if the
replay through ``BufferPool`` does not reproduce the run.
"""

from __future__ import annotations

import heapq
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(REPO_ROOT, "src"), REPO_ROOT]

from ledger import workloads  # noqa: E402
from ledger.driver import run_closed_loop  # noqa: E402
from ledger.measure import READ_KINDS  # noqa: E402
from repro.storage.buffer import BufferPool  # noqa: E402

SEED = 0
WORKLOADS = ("uniform_single", "uniform_batch")


class Page:
    """What the pool reads of a node: its page id, and ``count``/``capacity``
    before it writes a dirty one back."""

    count = capacity = 1

    def __init__(self, page_id: int) -> None:
        self.page_id = page_id


def record(name: str, workdir: Path) -> dict:
    """Run one workload's fixed-count calls; return its pool's stream."""
    workload = workloads.WORKLOADS[name](SEED, workdir / name,
                                         src=Path(REPO_ROOT) / "src")
    workload.build()
    workload.start(traced=False)
    stream: list[tuple[str, int, bool]] = []  # (op, page id, dirty)
    try:
        pool = workload.handle.index.store.buffer
        get, offer, put = pool.get, pool.offer, pool.put
        offering = []  # an offer's own put is part of the offer

        def recorded_get(page_id):
            stream.append(("get", page_id, False))
            return get(page_id)

        def recorded_offer(node):
            stream.append(("offer", node.page_id, False))
            offering.append(node)
            try:
                return offer(node)
            finally:
                offering.pop()

        def recorded_put(node, *, dirty):
            if not offering:
                stream.append(("put", node.page_id, dirty))
            return put(node, dirty=dirty)

        pool.get, pool.offer, pool.put = recorded_get, recorded_offer, recorded_put
        workload.warm_up()
        start, before = len(stream), workload.counters()
        window = run_closed_loop(workload.clients, first=workload.warmup_calls,
                                 max_calls=workload.nominal_calls)
        measured = workload.counters()["q_page_reads"] - before["q_page_reads"]
        capacity = pool.capacity
    finally:
        workload.close()
    return {"stream": stream, "start": start, "queries": window.ops_of(*READ_KINDS),
            "capacity": capacity, "measured": measured}


def replay_pool(stream, start: int, capacity: int) -> int:
    """Window misses of the stream replayed through a fresh ``BufferPool``."""
    pool = BufferPool(capacity, lambda node: None)
    misses = 0
    for at, (op, page_id, dirty) in enumerate(stream):
        if op == "get":
            misses += pool.get(page_id) is None and at >= start
        elif op == "offer":
            pool.offer(Page(page_id))
        else:
            pool.put(Page(page_id), dirty=dirty)
    return misses


def sieve_alone(pages: list[int], start: int, capacity: int) -> int:
    """Window misses of a ``BufferPool`` that installs every miss."""
    pool = BufferPool(capacity, lambda node: None)
    misses = 0
    for t, page_id in enumerate(pages):
        if pool.get(page_id) is None:
            misses += t >= start
            pool.put(Page(page_id), dirty=False)
    return misses


def lookups(stream) -> list[int]:
    return [page_id for op, page_id, _ in stream if op == "get"]


def belady(pages: list[int], start: int, capacity: int) -> int:
    """Window misses of the offline optimum that may decline to install."""
    never = len(pages)
    next_use = [never] * len(pages)
    seen: dict[int, int] = {}
    for t in range(len(pages) - 1, -1, -1):
        next_use[t] = seen.get(pages[t], never)
        seen[pages[t]] = t
    resident: dict[int, int] = {}  # page id -> its next use
    farthest: list[tuple[int, int]] = []  # (-next use, page id), stale entries skipped
    misses = 0
    for t, page_id in enumerate(pages):
        hit = page_id in resident
        misses += not hit and t >= start
        if not hit and len(resident) >= capacity:
            while -farthest[0][0] != resident.get(farthest[0][1]):
                heapq.heappop(farthest)
            if next_use[t] >= -farthest[0][0]:
                continue  # bypass: every resident is wanted sooner
            del resident[heapq.heappop(farthest)[1]]
        resident[page_id] = next_use[t]
        heapq.heappush(farthest, (-next_use[t], page_id))
    return misses


def exact_lfu(pages: list[int], start: int, capacity: int) -> int:
    """Window misses of a pool admitting a page looked up more often than
    its least looked-up resident, counting every lookup since the start."""
    counts: Counter = Counter()
    resident: set[int] = set()
    least: list[tuple[int, int]] = []  # (count, page id), stale entries skipped
    misses = 0
    for t, page_id in enumerate(pages):
        counts[page_id] += 1
        if page_id in resident:
            heapq.heappush(least, (counts[page_id], page_id))
            continue
        misses += t >= start
        if len(resident) >= capacity:
            while (least[0][1] not in resident
                   or least[0][0] != counts[least[0][1]]):
                heapq.heappop(least)
            if counts[page_id] <= least[0][0]:
                continue
            resident.discard(heapq.heappop(least)[1])
        resident.add(page_id)
        heapq.heappush(least, (counts[page_id], page_id))
    return misses


def top_c_static(pages: list[int], start: int, capacity: int) -> int:
    """Window misses of a pool holding the window's most looked-up pages."""
    window = Counter(pages[start:])
    kept = {page_id for page_id, _ in window.most_common(capacity)}
    return sum(n for page_id, n in window.items() if page_id not in kept)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="buffer-replay-") as tmp:
        for name in WORKLOADS:
            run = record(name, Path(tmp))
            stream, start, capacity = run["stream"], run["start"], run["capacity"]
            pages = lookups(stream)
            page_start = len(lookups(stream[:start]))
            rows = [
                ("measured", run["measured"]),
                ("BufferPool", replay_pool(stream, start, capacity)),
                ("SIEVE alone", sieve_alone(pages, page_start, capacity)),
                ("exact LFU", exact_lfu(pages, page_start, capacity)),
                ("top-C static", top_c_static(pages, page_start, capacity)),
                ("Belady", belady(pages, page_start, capacity)),
            ]
            print(f"{name} (seed {SEED}, {capacity} frames, "
                  f"{run['queries']} queries, {len(pages) - page_start} lookups "
                  f"of {len(set(pages[page_start:]))} pages in the window)")
            for label, misses in rows:
                print(f"  {label:<14} {misses / run['queries']:10.5f} reads/query")
            if rows[0][1] != rows[1][1]:
                print("  the replay does not reproduce the run", file=sys.stderr)
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
