#!/usr/bin/env python
"""Write-ahead log bytes per insert, by record kind, on the ledger's insert stream.

Builds the ``cluster_mixed_wal`` base index exactly as ``ledger/run.py``
does, opens a copy of it under WAL group commit (``sync_every`` as in
``ledger/spec.py``) and inserts the first N points of that workload's
insert stream for ``--seed``.  Then it walks the log and prints, per
record kind, how many records the inserts appended and what they cost
per record and per insert:

* ``IMAGE`` / ``DELTA`` records of leaves and of internal nodes (a
  page's kind is the kind byte of its ``IMAGE``, which the log holds
  before any ``DELTA`` of the page);
* ``META`` (raw) and ``META_DELTA`` records of the meta page;
* ``BEGIN`` / ``COMMIT`` markers.

The last line is the peak of (data file + log) over the bytes of the
points stored, taken after every insert: the ledger's ``space_amp``.
The ledger also runs four queries per insert; they read and log nothing,
so they are left out here.

Usage::

    python tools/wal_mix.py [--inserts 2000] [--seed 0]    # or: make wal-mix

Informational: the counts repeat exactly on one machine.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
from collections import Counter
from pathlib import Path

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(REPO_ROOT, "src"), REPO_ROOT]

from ledger import spec  # noqa: E402
from ledger.workloads import ClusterMixedWal  # noqa: E402
from repro import Database  # noqa: E402
from repro.storage import wal_path  # noqa: E402
from repro.storage.wal import (  # noqa: E402
    _DELTA,
    _IMAGE,
    _RANGE,
    _RECORD,
    REC_BEGIN,
    REC_COMMIT,
    REC_DELTA,
    REC_IMAGE,
    REC_META,
    REC_META_DELTA,
)

ROWS = ("IMAGE leaf", "IMAGE internal", "DELTA leaf", "DELTA internal",
        "META", "META_DELTA", "BEGIN/COMMIT")


def record_mix(log: str) -> tuple[Counter, Counter]:
    """``(records, bytes)`` per row of :data:`ROWS` over a whole log file."""
    with open(log, "rb") as handle:
        data = handle.read()
    records, sizes = Counter(), Counter()
    internal: dict[int, bool] = {}  # page id -> kind byte of its last IMAGE
    pos = 0
    while pos + _RECORD.size <= len(data):
        _magic, kind, _txn, length, _crc = _RECORD.unpack_from(data, pos)
        payload = data[pos + _RECORD.size : pos + _RECORD.size + length]
        if kind == REC_IMAGE:
            page_id = _IMAGE.unpack_from(payload)[0]
            # The kind byte is the page's first; a leaf's is zero, so a
            # leaf IMAGE has no range at offset 0 holding a one there.
            at = _IMAGE.size
            internal[page_id] = (len(payload) > at + _RANGE.size
                                 and _RANGE.unpack_from(payload, at)[0] == 0
                                 and payload[at + _RANGE.size] == 1)
            row = "IMAGE " + ("internal" if internal[page_id] else "leaf")
        elif kind == REC_DELTA:
            page_id = _DELTA.unpack_from(payload)[0]
            row = "DELTA " + ("internal" if internal[page_id] else "leaf")
        elif kind in (REC_BEGIN, REC_COMMIT):
            row = "BEGIN/COMMIT"
        else:
            row = {REC_META: "META", REC_META_DELTA: "META_DELTA"}[kind]
        records[row] += 1
        sizes[row] += _RECORD.size + length
        pos += _RECORD.size + length
    return records, sizes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--inserts", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        workload = ClusterMixedWal(args.seed, Path(tmp), src=Path(REPO_ROOT, "src"))
        workload.build()
        live = os.path.join(tmp, "live.idx")
        shutil.copyfile(workload.path, live)
        log = wal_path(live)
        base = workload.points.shape[0]
        peak = truncated = 0
        with Database.open(live, durability="wal", sync_every=spec.SYNC_EVERY) as db:
            size = 0
            for at in range(args.inserts):
                db.insert(workload.stream[at], base + at)
                now = os.path.getsize(log)
                truncated += now < size  # a checkpoint emptied the log
                size = now
                peak = max(peak, os.path.getsize(live) + now)
            records, sizes = record_mix(log)
        user = (base + args.inserts) * spec.DIMS * 8
    print(f"cluster_mixed_wal insert stream, seed {args.seed}: {args.inserts} "
          f"inserts, sync_every {spec.SYNC_EVERY}")
    print(f"{'record':<16}{'records':>9}{'B/record':>10}{'B/insert':>10}")
    for row in ROWS:
        if records[row]:
            print(f"{row:<16}{records[row]:>9}{sizes[row] / records[row]:>10.1f}"
                  f"{sizes[row] / args.inserts:>10.1f}")
    total = sum(sizes.values())
    print(f"{'total':<16}{sum(records.values()):>9}{'':>10}"
          f"{total / args.inserts:>10.1f}")
    if truncated:
        print(f"(the log was checkpointed {truncated} time(s): the rows cover "
              "only the records since the last one)")
    print(f"peak (data + log) / user bytes: {peak / user:.5f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
