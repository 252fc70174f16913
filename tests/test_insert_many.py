"""``insert_many`` builds exactly the tree a loop of ``insert()`` builds.

Without a WAL, ``SpatialIndex.load`` is one mutation: the MBR and radius
of the parent entries an SS- or SR-tree insert passes through settle
once, when the call returns, and not after every point — unless the
buffer pool encodes the node first, or a split or reinsertion copies
its rows.  Pools of 8–24 frames evict nodes in the middle of inserts; a
512-frame pool holds the whole tree.  The per-point build is the
reference: the same file, byte for byte, and the same page reads, page
writes, buffer hits and misses, with deletes and inserts on top.  The
R*-tree steers by the rectangle and defers nothing: it is the control.
"""

import numpy as np
import pytest

from repro.api import Database

FAMILIES = {
    "sstree": ("sstree", {}),
    "srtree-min": ("srtree", {"radius_rule": "min"}),
    "srtree-sphere": ("srtree", {"radius_rule": "sphere"}),
    "srx": ("srx", {}),
    "rstar": ("rstar", {}),
}
#: ``(frames, seed)``: another seed at every pool size.
POOLS = [(8, 0), (12, 1), (16, 2), (24, 3), (512, 4)]
CASES = [(family, frames, seed) for family in FAMILIES for frames, seed in POOLS
         if family != "rstar" or frames == 8]  # the control, once
COUNTERS = ("page_reads", "page_writes", "buffer_hits", "buffer_misses")


def build(path, kind, options, frames, points, extra, per_point):
    """The file and the I/O counters of one build: ``points`` in, every
    seventh deleted, ``extra`` inserted one by one."""
    with Database.create(path, kind=kind, dims=points.shape[1],
                         buffer_capacity=frames, **options) as db:
        if per_point:
            for row, point in enumerate(points):
                db.insert(point, value=row)
        else:
            db.insert_many(points)
        for row in range(0, len(points), 7):
            db.delete(points[row], value=row)
        for row, point in enumerate(extra, start=len(points)):
            db.insert(point, value=row)
        db.index.store.flush()
        stats = db.index.stats
        counts = {name: getattr(stats, name) for name in COUNTERS}
    with open(path, "rb") as handle:
        return handle.read(), counts


@pytest.mark.parametrize("family, frames, seed", CASES)
def test_insert_many_builds_what_an_insert_loop_builds(tmp_path, family,
                                                       frames, seed):
    kind, options = FAMILIES[family]
    rng = np.random.default_rng(seed)
    points, extra = rng.random((1500, 16)), rng.random((50, 16))
    many_bytes, many_counts = build(str(tmp_path / "many"), kind, options,
                                    frames, points, extra, per_point=False)
    loop_bytes, loop_counts = build(str(tmp_path / "loop"), kind, options,
                                    frames, points, extra, per_point=True)
    assert many_counts == loop_counts
    assert many_bytes == loop_bytes
