"""End-to-end system tests: the full life of an index.

Each scenario drives one index family through a realistic lifecycle —
bulk ingest, queries of every type, deletions, persistence to disk,
reopen, further mutation — verifying exactness against brute force at
every stage.  This is the "would a downstream user survive" test.
"""

import numpy as np
import pytest

from repro import (
    Database,
    KDBTree,
    RStarTree,
    RTree,
    SRTree,
    SRXTree,
    SSTree,
)
from repro.workloads import histogram_dataset

from tests.helpers import brute_force_knn

DYNAMIC_FAMILIES = [RTree, RStarTree, SSTree, SRTree, SRXTree, KDBTree]


class _Oracle:
    """Brute-force shadow copy of the index contents."""

    def __init__(self):
        self.points: list[np.ndarray] = []
        self.values: list[object] = []

    def insert(self, point, value):
        self.points.append(np.asarray(point, dtype=float))
        self.values.append(value)

    def delete(self, value):
        i = self.values.index(value)
        self.points.pop(i)
        return self.values.pop(i)

    def knn(self, q, k):
        pts = np.array(self.points)
        order = brute_force_knn(pts, q, min(k, len(pts)))
        return [self.values[i] for i in order]

    def point_for(self, value):
        return self.points[self.values.index(value)]


@pytest.mark.parametrize("cls", DYNAMIC_FAMILIES, ids=lambda c: c.NAME)
def test_full_lifecycle(cls, tmp_path, rng):
    dims = 8
    path = tmp_path / f"{cls.NAME}.idx"
    db = Database.create(path, kind=cls.NAME, dims=dims)
    index = db.index
    oracle = _Oracle()

    # --- phase 1: ingest a clustered batch -----------------------------
    base = histogram_dataset(300, bins=dims, seed=1)
    for i, p in enumerate(base):
        index.insert(p, i)
        oracle.insert(p, i)

    q = base[17]
    assert [n.value for n in index.nearest(q, 10)] == oracle.knn(q, 10)

    # --- phase 2: churn (interleaved deletes and inserts) ---------------
    for step in range(120):
        if step % 3 == 0:
            victim = int(rng.choice(len(oracle.values)))
            value = oracle.values[victim]
            index.delete(oracle.point_for(value), value=value)
            oracle.delete(value)
        else:
            p = rng.dirichlet(np.ones(dims))
            value = 1000 + step
            index.insert(p, value)
            oracle.insert(p, value)
    assert index.size == len(oracle.values)
    if cls is not KDBTree:
        index.check_invariants()

    q = rng.dirichlet(np.ones(dims))
    assert [n.value for n in index.nearest(q, 7)] == oracle.knn(q, 7)

    # --- phase 3: every query type agrees with the oracle ---------------
    pts = np.array(oracle.points)
    radius = 0.3
    got_ball = sorted(n.value for n in index.within(q, radius))
    dists = np.linalg.norm(pts - q, axis=1)
    want_ball = sorted(
        v for v, d in zip(oracle.values, dists, strict=True) if d <= radius
    )
    assert got_ball == want_ball

    low, high = q - 0.2, q + 0.2
    got_box = sorted(n.value for n in index.window(low, high))
    inside = np.all(pts >= low, axis=1) & np.all(pts <= high, axis=1)
    want_box = sorted(
        v for v, ok in zip(oracle.values, inside, strict=True) if ok
    )
    assert got_box == want_box

    from itertools import islice

    stream = [n.value for n in islice(index.iter_nearest(q), 5)]
    assert stream == oracle.knn(q, 5)

    # --- phase 4: persist, reopen kind-agnostically, keep going ---------
    db.close()
    reopened = Database.open(path).index
    assert type(reopened) is cls
    assert reopened.size == len(oracle.values)
    assert [n.value for n in reopened.nearest(q, 7)] == oracle.knn(q, 7)

    extra = rng.dirichlet(np.ones(dims))
    reopened.insert(extra, "late-arrival")
    oracle.insert(extra, "late-arrival")
    assert reopened.lookup(extra) == ["late-arrival"]
    assert [n.value for n in reopened.nearest(q, 7)] == oracle.knn(q, 7)
    reopened.store.close()
