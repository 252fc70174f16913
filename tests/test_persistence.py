"""Persistence: saving and reopening indexes from disk page files."""

import numpy as np
import pytest

from repro import Database
from repro.indexes import RStarTree, SRTree, SSTree

from tests.helpers import brute_force_knn

DYNAMIC = [RStarTree, SSTree, SRTree]


def values(neighbors):
    return [n.value for n in neighbors]


@pytest.mark.parametrize("cls", DYNAMIC, ids=lambda c: c.NAME)
class TestSaveOpenRoundTrip:
    def test_query_after_reopen(self, cls, tmp_path, rng):
        path = tmp_path / f"{cls.NAME}.idx"
        pts = rng.random((200, 5))

        with Database.create(path, kind=cls.NAME, dims=5) as db:
            db.insert_many(pts)
            q = rng.random(5)
            expected = values(db.knn(q, 7))

        with Database.open(path) as reopened:
            assert isinstance(reopened.index, cls)
            assert reopened.size == 200
            assert reopened.dims == 5
            assert values(reopened.knn(q, 7)) == expected
            reopened.verify()

    def test_mutate_after_reopen(self, cls, tmp_path, rng):
        path = tmp_path / f"{cls.NAME}-mut.idx"
        pts = rng.random((100, 4))
        with Database.create(path, kind=cls.NAME, dims=4) as db:
            db.insert_many(pts)

        with Database.open(path) as reopened:
            extra = rng.random((50, 4))
            for i, p in enumerate(extra):
                reopened.insert(p, 100 + i)
            assert reopened.size == 150
            everything = np.vstack([pts, extra])
            q = rng.random(4)
            assert values(reopened.knn(q, 9)) == brute_force_knn(everything, q, 9)


class TestOpenValidation:
    def test_save_is_idempotent(self, tmp_path, rng):
        path = tmp_path / "idem.idx"
        with Database.create(path, kind="srtree", dims=3) as db:
            db.insert_many(rng.random((30, 3)))
            db.flush()
            db.flush()
        with Database.open(path) as reopened:
            assert reopened.size == 30


class TestStaticAndKdbPersistence:
    def test_vamsplit_roundtrip(self, tmp_path, rng):
        path = tmp_path / "vam.idx"
        pts = rng.random((300, 4))
        with Database.create(path, kind="vamsplit", dims=4) as db:
            db.insert_many(pts)
            q = rng.random(4)
            expected = values(db.knn(q, 5))
        with Database.open(path) as reopened:
            assert reopened.kind == "vamsplit"
            assert values(reopened.knn(q, 5)) == expected

    def test_kdb_roundtrip(self, tmp_path, rng):
        path = tmp_path / "kdb.idx"
        pts = rng.random((300, 4))
        with Database.create(path, kind="kdb", dims=4) as db:
            db.insert_many(pts)
            q = rng.random(4)
            expected = values(db.knn(q, 5))
        with Database.open(path) as reopened:
            assert reopened.kind == "kdb"
            assert values(reopened.knn(q, 5)) == expected
            reopened.verify()
