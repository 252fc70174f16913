"""The Database facade: parity with the raw engine, kwargs, durability."""

from __future__ import annotations

import os

import numpy as np
import pytest

import repro
from repro import Database, Neighbor
from repro.indexes import INDEX_KINDS, build_index
from repro.obs import trace
from repro.workloads import cluster_dataset, histogram_dataset, uniform_dataset

from .helpers import brute_force_knn

DIMS = 6
K = 5


def workload(family: str, n: int = 120) -> np.ndarray:
    if family == "uniform":
        return uniform_dataset(n, DIMS, seed=3)
    if family == "cluster":
        return cluster_dataset(6, n // 6, DIMS, seed=3)[:n]
    return np.ascontiguousarray(histogram_dataset(n, bins=DIMS, seed=3),
                                dtype=np.float64)[:n]


# ----------------------------------------------------------------------
# construction surface
# ----------------------------------------------------------------------

def test_memory_database_round_trip():
    with Database.create(":memory:", kind="sr", dims=4) as db:
        db.insert([0.1] * 4, value="first")
        db.insert([0.9] * 4, value="second")
        got = db.knn([0.1] * 4, k=1)
        assert [n.value for n in got] == ["first"]
        assert isinstance(got[0], Neighbor)
        assert db.path is None
        assert db.durability == "none"
    assert db.closed


def test_none_path_means_memory():
    with Database.create(None, kind="scan", dims=3) as db:
        db.insert([0.5, 0.5, 0.5])
        assert len(db) == 1


def test_kind_aliases_resolve():
    for alias, name in repro.api.KIND_ALIASES.items():
        with Database.create(None, kind=alias, dims=4) as db:
            assert db.kind == name


def test_unknown_kind_suggests():
    with pytest.raises(ValueError, match="srtree"):
        Database.create(None, kind="srtee", dims=4)


def test_direct_construction_is_rejected():
    with pytest.raises(TypeError, match="Database.create"):
        Database(None, path=None)


def test_existing_file_requires_overwrite(tmp_path):
    path = str(tmp_path / "dup.db")
    Database.create(path, kind="sr", dims=4).close()
    with pytest.raises(FileExistsError):
        Database.create(path, kind="sr", dims=4)
    with Database.create(path, kind="sr", dims=4, overwrite=True) as db:
        assert db.size == 0


@pytest.mark.parametrize("refused", [
    {"slo_ms": 0}, {"dims": 0}, {"min_utilization": 0.9},
    {"radius_rule": "bogus"}, {"page_size": 100},
    {"sync_every": 0, "durability": "wal"},
], ids="+".join)
def test_refused_create_leaves_the_existing_database_alone(tmp_path, refused):
    # Every argument is checked before ``overwrite`` removes anything:
    # this used to leave an 8 KiB stub no ``open`` accepts, held open.
    path = str(tmp_path / "kept.db")
    with Database.create(path, kind="sr", dims=4, durability="wal") as db:
        db.insert_many(np.random.default_rng(0).random((200, 4)))
    fds = len(os.listdir("/proc/self/fd"))
    with pytest.raises(ValueError):
        Database.create(path, kind="sr", overwrite=True,
                        **{"dims": 4, **refused})
    assert len(os.listdir("/proc/self/fd")) == fds
    with Database.open(path) as db:
        assert db.size == 200
        db.verify()


def test_min_utilization_is_checked_at_construction():
    # It used to be accepted, saved into the meta page, and then refused
    # by every insert.
    with pytest.raises(ValueError, match="utilization"):
        Database.create(None, kind="sr", dims=4, min_utilization=0.7)
    with Database.create(None, kind="sr", dims=4, min_utilization=0.5) as db:
        db.insert(np.zeros(4))


def test_failed_construction_closes_and_removes_what_create_opened(
        tmp_path, monkeypatch):
    # Past the argument checks only the disk can fail; create must then
    # leave neither open descriptors nor a file ``open`` would refuse.
    path = str(tmp_path / "stub.db")

    def disk_full(self):
        raise OSError("no space left on device")

    monkeypatch.setattr(repro.SpatialIndex, "save", disk_full)
    fds = len(os.listdir("/proc/self/fd"))
    with pytest.raises(OSError, match="no space"):
        Database.create(path, kind="sr", dims=4, durability="wal")
    assert len(os.listdir("/proc/self/fd")) == fds
    assert os.listdir(tmp_path) == []


def test_memory_cannot_be_durable():
    with pytest.raises(ValueError, match="in-memory"):
        Database.create(":memory:", kind="sr", dims=4, durability="wal")


def test_unknown_durability_rejected(tmp_path):
    with pytest.raises(ValueError, match="durability"):
        Database.create(str(tmp_path / "x.db"), durability="fsync-maybe")


# ----------------------------------------------------------------------
# uniform factory keywords
# ----------------------------------------------------------------------

def test_canonical_kwargs_accepted(tmp_path):
    with Database.create(str(tmp_path / "k.db"), kind="sr", dims=4,
                         page_size=4096, buffer_capacity=64) as db:
        assert db.stats()["page_size"] == 4096
        assert db.index.store.buffer.capacity == 64


def test_unknown_kwarg_gets_a_suggestion():
    with pytest.raises(ValueError, match="did you mean 'buffer_capacity'"):
        Database.create(None, kind="sr", dims=4, bufer_capacity=8)


@pytest.mark.parametrize("keyword", ["page_cache_bytes", "page_cache_capacity",
                                     "pagefile", "wal", "stats"])
def test_removed_page_cache_keywords_are_refused(tmp_path, keyword):
    # The raw-image page cache is gone, and an index meets a file only
    # through Database.create/open; those spellings must fail loudly,
    # not be swallowed as a no-op or collide with the facade's own.
    with pytest.raises(ValueError, match=f"unknown keyword '{keyword}'"):
        Database.create(None, kind="sr", dims=4, **{keyword: 64 * 4096})
    with pytest.raises(ValueError, match=f"unknown keyword '{keyword}'"):
        Database.create(str(tmp_path / "c.db"), kind="sr", dims=4,
                        **{keyword: 64 * 4096})
    with pytest.raises(ValueError, match=f"unknown keyword '{keyword}'"):
        build_index("srtree", workload("uniform"), **{keyword: 64 * 4096})
    path = str(tmp_path / "k.db")
    Database.create(path, kind="sr", dims=4).close()
    with pytest.raises(TypeError, match=keyword):
        Database.open(path, **{keyword: 64 * 4096})


def test_per_handle_latency_objective_is_refused(tmp_path, serving_pool):
    # One latency objective per process (repro.obs.set_slo_ms): no
    # handle takes its own, each refusing it as it refuses any unknown
    # keyword.
    path = str(tmp_path / "slo.db")
    with pytest.raises(ValueError, match="unknown keyword 'slo_ms'"):
        Database.create(path, kind="sr", dims=4, slo_ms=50.0)
    Database.create(path, kind="sr", dims=4).close()
    with pytest.raises(TypeError, match="unexpected keyword argument 'slo_ms'"):
        Database.open(path, slo_ms=50.0)
    with pytest.raises(TypeError, match="unexpected keyword argument 'slo_ms'"):
        serving_pool(path, workers=1, slo_ms=50.0)


def test_conflicting_buffer_spellings_rejected(tmp_path):
    # One spelling: the frame count is ``buffer_capacity`` at every
    # entry point, and the alias it once had is refused by name.
    with pytest.raises(ValueError, match="did you mean 'buffer_capacity'"):
        Database.create(None, kind="sr", dims=4, buffer_pages=8)
    with pytest.raises(ValueError, match="did you mean 'buffer_capacity'"):
        build_index("srtree", workload("uniform"), buffer_pages=8)
    path = str(tmp_path / "b.db")
    Database.create(path, kind="sr", dims=4).close()
    with pytest.raises(TypeError, match="buffer_pages"):
        Database.open(path, buffer_pages=8)
    with Database.open(path, buffer_capacity=8) as db:
        assert db.index.store.buffer.capacity == 8


# ----------------------------------------------------------------------
# query parity with the raw engine
# ----------------------------------------------------------------------

@pytest.mark.parametrize("family", ["uniform", "cluster", "histogram"])
def test_facade_matches_direct_engine(tmp_path, family):
    points = workload(family)
    direct = build_index("srtree", points)
    with Database.create(str(tmp_path / f"{family}.db"), kind="sr",
                         dims=DIMS) as db:
        db.insert_many(points)
        assert db.size == direct.size == len(points)
        for qi in (0, 17, 63):
            query = points[qi]
            via_facade = [n.value for n in db.knn(query, k=K)]
            via_engine = [n.value for n in direct.nearest(query, k=K)]
            assert via_facade == via_engine
            assert via_facade == brute_force_knn(points, query, K)
            r = 0.4
            assert ([n.value for n in db.range(query, r)]
                    == [n.value for n in direct.within(query, r)])
    direct.store.close()


@pytest.mark.parametrize("kind", sorted(INDEX_KINDS))
def test_facade_fills_and_reopens_every_family(tmp_path, kind):
    """create -> insert_many -> close -> open answers as the linear scan
    does, the static VAMSplit R-tree (whose fill is one build) included."""
    points = workload("cluster")
    with Database.create(None, kind="linear", dims=DIMS) as scan:
        scan.insert_many(points)
        want = [[n.distance for n in scan.knn(q, k=K)] for q in points[:8]]
    path = str(tmp_path / f"{kind}.db")
    with Database.create(path, kind=kind, dims=DIMS) as db:
        assert db.insert_many(points) == len(points)
    with Database.open(path) as db:
        assert (db.kind, db.size) == (kind, len(points))
        got = [[n.distance for n in db.knn(q, k=K)] for q in points[:8]]
        db.verify()
    assert got == want


def test_knn_batch_shares_the_neighbor_type(tmp_path):
    points = workload("uniform", 80)
    with Database.create(None, kind="sr", dims=DIMS) as db:
        db.insert_many(points)
        single = [db.knn(q, k=3) for q in points[:10]]
        batched = db.knn_batch(points[:10], k=3)
        assert all(isinstance(n, Neighbor)
                   for row in batched for n in row)
        assert [[n.value for n in row] for row in single] == \
               [[n.value for n in row] for row in batched]


def test_window_and_lookup(tmp_path):
    points = workload("uniform", 60)
    with Database.create(None, kind="sr", dims=DIMS) as db:
        db.insert_many(points)
        low, high = [0.2] * DIMS, [0.8] * DIMS
        inside = {n.value for n in db.window(low, high)}
        want = {i for i, p in enumerate(points)
                if np.all(p >= low) and np.all(p <= high)}
        assert inside == want
        assert db.lookup(points[7]) == [7]


def test_delete_through_the_facade():
    with Database.create(None, kind="sr", dims=4) as db:
        db.insert([0.5] * 4, value="keep")
        db.insert([0.6] * 4, value="drop")
        db.delete([0.6] * 4, "drop")
        assert db.size == 1
        assert [n.value for n in db.knn([0.6] * 4, k=1)] == ["keep"]


# ----------------------------------------------------------------------
# durability through the facade
# ----------------------------------------------------------------------

@pytest.mark.parametrize("durability", ["none", "wal"])
def test_reopen_round_trips_every_mode(tmp_path, durability):
    points = workload("uniform", 60)
    path = str(tmp_path / f"{durability}.db")
    with Database.create(path, kind="sr", dims=DIMS,
                         durability=durability) as db:
        db.insert_many(points)
        before = [n.value for n in db.knn(points[5], k=K)]
        assert db.durability == durability

    with Database.open(path) as db:
        assert db.durability == durability
        assert db.size == len(points)
        assert [n.value for n in db.knn(points[5], k=K)] == before
        db.verify()


def test_both_durability_modes_write_sealed_pages(tmp_path):
    """With or without a log, every physical page is ``page_size + 8``
    bytes: the logical image, then a CRC32 trailer that matches it."""
    import zlib

    from repro.storage import CHECKSUM_TRAILER_SIZE

    physical = 2048 + CHECKSUM_TRAILER_SIZE
    points = np.random.default_rng(3).random((300, 4))
    for durability in ("none", "wal"):
        path = tmp_path / f"{durability}.db"
        with Database.create(str(path), kind="sr", dims=4, page_size=2048,
                             durability=durability) as db:
            db.insert_many(points)
            assert db.stats()["page_size"] == 2048
        data = path.read_bytes()
        assert len(data) % physical == 0 and len(data) // physical > 3
        for offset in range(0, len(data), physical):
            page = data[offset:offset + physical]
            image, trailer = page[:2048], page[2048:]
            assert trailer[:2] == b"Ck", (durability, offset // physical)
            assert int.from_bytes(trailer[4:], "little") == zlib.crc32(image)


def test_open_can_force_the_durability_mode(tmp_path):
    path = str(tmp_path / "switch.db")
    with Database.create(path, kind="sr", dims=4) as db:
        db.insert([0.5] * 4)
    with Database.open(path, durability="wal") as db:
        assert db.durability == "wal"
        db.insert([0.6] * 4)
    with Database.open(path) as db:  # meta now records wal
        assert db.durability == "wal"
        assert db.size == 2


def test_the_first_commit_records_a_forced_wal_mode(tmp_path):
    """``close`` writes no meta page under a log: a session that writes
    nothing leaves a ``none`` file as found; its first commit's meta
    says ``wal``."""
    path = str(tmp_path / "quiet.db")
    with Database.create(path, kind="sr", dims=4) as db:
        db.insert([0.5] * 4)
    with open(path, "rb") as handle:
        before = handle.read()
    with Database.open(path, durability="wal") as db:
        assert db.durability == "wal"
        assert db.size == 1
    with open(path, "rb") as handle:
        assert handle.read() == before
    with Database.open(path) as db:
        assert db.durability == "none"
    with Database.open(path, durability="wal") as db:
        db.insert([0.6] * 4)
    with Database.open(path) as db:
        assert db.durability == "wal"
        assert db.size == 2


def test_open_reads_the_meta_page_once_and_after_recovery(tmp_path, monkeypatch):
    """One path from a file to a handle: superblock, recovery, then a
    single meta read -- nothing unpickled before the log is replayed."""
    import shutil

    from repro.storage import FilePageFile, serializer, stack

    live, copy = str(tmp_path / "live.db"), str(tmp_path / "copy.db")
    with Database.create(live, kind="sr", dims=4, durability="wal") as db:
        db.insert_many(workload("uniform")[:, :4])
        shutil.copy(live, copy)  # process death: a log worth replaying
        shutil.copy(live + ".wal", copy + ".wal")

    events = []

    def traced(name, real, keep=lambda *args: True):
        def wrapper(*args, **kwargs):
            if keep(*args):
                events.append(name)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(FilePageFile, "read", traced(
        "read page 0", FilePageFile.read, lambda self, page_id: page_id == 0))
    monkeypatch.setattr(stack, "recover", traced("recover", stack.recover))
    monkeypatch.setattr(serializer, "_pickle_loads",
                        traced("unpickle", serializer._pickle_loads))
    with Database.open(copy) as db:
        assert events == ["recover", "read page 0", "unpickle"]
        assert (db.durability, db.size) == ("wal", 120)


@pytest.mark.parametrize("durability", ["none", "wal"])
def test_explain_pages_equal_iostats_delta(tmp_path, durability):
    """The EXPLAIN invariant: traced page fetches == physical reads."""
    points = workload("cluster", 150)
    path = str(tmp_path / f"explain_{durability}.db")
    with Database.create(path, kind="sr", dims=DIMS,
                         durability=durability) as db:
        db.insert_many(points)

    with Database.open(path) as db:
        db.index.store.drop_cache()
        was_enabled = trace.enabled
        trace.enable()
        try:
            before = db.index.stats.snapshot()
            with trace.span("knn", k=K) as span:
                db.index.nearest(points[3], k=K)
            delta = db.index.stats.since(before)
        finally:
            if not was_enabled:
                trace.disable()
        assert span.pages_read == delta.page_reads > 0


def test_explain_renders_a_report():
    points = workload("uniform", 60)
    with Database.create(None, kind="sr", dims=DIMS) as db:
        db.insert_many(points)
        report = db.explain(points[0], k=3)
        assert "EXPLAIN" in report
        assert not trace.enabled  # restored


def test_stats_snapshot_keys():
    with Database.create(None, kind="sr", dims=4) as db:
        db.insert([0.1] * 4)
        stats = db.stats()
        for key in ("kind", "dims", "size", "height", "durability",
                    "page_size", "page_reads", "page_writes"):
            assert key in stats
        assert stats["kind"] == "srtree"
        assert stats["size"] == 1


def test_repr_mentions_kind_and_state():
    db = Database.create(None, kind="ss", dims=4)
    assert "sstree" in repr(db)
    db.close()
    assert "closed" in repr(db)
    db.close()  # idempotent
