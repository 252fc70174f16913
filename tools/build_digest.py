#!/usr/bin/env python
"""Digests of seeded index files: does a change build the same trees?

Builds one file per tree family from a fixed seeded point set, deletes a
tenth of the points where the family supports deletion, closes the file
and prints its SHA-256, its *tree digest* and the build's microseconds
per point.  The dynamic families are also bulk-loaded once each.  Then
it builds the ledger's three corpora (``uniform_*``, ``cluster_remote``,
``cluster_mixed_wal``) exactly as ``ledger/workloads.py`` builds
``base.idx``.  Two checkouts that print the same SHA-256s built the same
files, page for page.

The tree digest hashes what the file decodes to, not its bytes: every
node reachable from the root, in page-id order — page id, level, count,
its live entry rows and its values.  A change to the page codec moves
the SHA-256s and must leave the tree digests where they were: the trees
are the same, only their bytes on the page differ.

Usage::

    python tools/build_digest.py          # or: make build-digest

Each line is ``label  file-sha256  tree <first 16 hex digits of the tree
digest>  us/point``.

Informational, not a gate: einsum's vectorised sums may round
differently on another CPU, so compare digests from one machine only,
and the times are one run's wall clock.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(REPO_ROOT, "src"), REPO_ROOT]

import numpy as np  # noqa: E402

from ledger import data, spec  # noqa: E402
from repro import Database, bulk_load  # noqa: E402
from repro.workloads import cluster_dataset  # noqa: E402

#: ``(label, kind, options)`` built from the shared point set; pages
#: this small give every tree several levels, so splits, reinsertions
#: and condenses all run.
FAMILIES = [
    ("rtree", "rtree", {}),
    ("rstar", "rstar", {}),
    ("sstree", "sstree", {}),
    ("srtree", "srtree", {}),
    ("srtree-sphere", "srtree", {"radius_rule": "sphere"}),
    ("srx", "srx", {}),
    ("kdb", "kdb", {}),
    ("vamsplit", "vamsplit", {}),
]
BULK = ("rstar", "sstree", "srtree")
UNDELETABLE = ("vamsplit",)
PAGE_SIZE = 2048


def digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def tree_digest(path: str) -> str:
    """SHA-256 of the decoded nodes, in page-id order (see module docstring)."""
    nodes = {}
    with Database.open(path) as db:
        store = db.index.store
        pending = [db.index.root_id]
        while pending:
            node = store.read(pending.pop())
            nodes[node.page_id] = node
            if not node.is_leaf:
                pending.extend(int(child) for child in node.child_ids[: node.count])
        sha = hashlib.sha256()
        for page_id in sorted(nodes):
            node = nodes[page_id]
            n = node.count
            sha.update(repr((page_id, node.level, n, node.extent,
                             node.reinserted)).encode())
            if node.is_leaf:
                sha.update(np.asarray(node.points[:n], np.float64).tobytes())
                sha.update(repr(node.values).encode())
                continue
            for name in ("child_ids", "weights"):
                rows = getattr(node, name)
                if rows is not None:
                    sha.update(np.asarray(rows[:n], np.int64).tobytes())
            for name in ("lows", "highs", "centers", "radii"):
                rows = getattr(node, name)
                if rows is not None:
                    sha.update(np.asarray(rows[:n], np.float64).tobytes())
    return sha.hexdigest()


def build(path: str, points: np.ndarray, kind: str, *, bulk: bool = False,
          delete: bool = False, **options) -> float:
    """Build ``path``; returns microseconds per point."""
    with Database.create(path, kind=kind, dims=points.shape[1],
                         overwrite=True, **options) as db:
        start = time.perf_counter()
        if bulk:
            bulk_load(db.index, points)
        else:
            db.insert_many(points)
        seconds = time.perf_counter() - start
        if delete:
            rng = np.random.default_rng(7)
            for row in rng.choice(len(points), len(points) // 10, replace=False):
                db.delete(points[row], value=int(row))
    return 1e6 * seconds / len(points)


def ledger_corpora() -> dict[str, np.ndarray]:
    """The stored points of the ledger's workloads, one per corpus."""
    rng = np.random.default_rng([spec.CORPUS_SEED, 1])
    out = {"uniform": data.uniform_points(
        rng, spec.WORKLOADS["uniform_single"]["points"], spec.DIMS)}
    for name in ("cluster_remote", "cluster_mixed_wal"):
        size = spec.WORKLOADS[name]
        rng = np.random.default_rng([spec.CORPUS_SEED, 1])
        model = data.ClusterModel(rng, size["clusters"], spec.DIMS)
        out[name] = model.dataset(rng, size["per_cluster"])
    return out


def main() -> int:
    points = cluster_dataset(30, 100, 8, seed=26)
    builds = [(label, points, kind,
               dict(options, delete=kind not in UNDELETABLE, page_size=PAGE_SIZE))
              for label, kind, options in FAMILIES]
    builds += [(f"bulk-{kind}", points, kind,
                {"bulk": True, "delete": True, "page_size": PAGE_SIZE})
               for kind in BULK]
    builds += [(name, corpus, spec.INDEX_KIND, {"page_size": spec.PAGE_SIZE})
               for name, corpus in ledger_corpora().items()]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "index")
        for label, rows, kind, options in builds:
            us = build(path, rows, kind, **options)
            print(f"{label:<18} {digest(path)}  tree {tree_digest(path)[:16]}"
                  f"  {us:8.1f} us/point", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
