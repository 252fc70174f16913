"""Tests of the dynamic R-tree engine: deletion, reinsertion, updates.

Parameterized over the three dynamic families (R*, SS, SR) that share
the :class:`~repro.indexes.dynamic.DynamicTree` machinery.
"""

import numpy as np
import pytest

from repro import Database
from repro.exceptions import KeyNotFoundError
from repro.indexes import RStarTree, SRTree, SSTree
from repro.storage import CHECKSUM_TRAILER_SIZE

from tests.helpers import brute_force_knn

FAMILIES = [RStarTree, SSTree, SRTree]


@pytest.fixture(params=FAMILIES, ids=lambda cls: cls.NAME)
def family(request):
    return request.param


def build(cls, points):
    tree = cls(points.shape[1])
    tree.load(points)
    return tree


class TestDeletion:
    def test_delete_then_absent(self, family, rng):
        pts = rng.random((120, 5))
        tree = build(family, pts)
        tree.delete(pts[17])
        assert tree.size == 119
        got = [n.value for n in tree.nearest(pts[17], 1)]
        assert got != [17]
        tree.check_invariants()

    def test_delete_missing_raises(self, family, rng):
        tree = build(family, rng.random((30, 5)))
        with pytest.raises(KeyNotFoundError):
            tree.delete(np.full(5, 9.0))

    def test_delete_by_value_disambiguates(self, family):
        tree = family(3)
        tree.insert([0.5, 0.5, 0.5], "a")
        tree.insert([0.5, 0.5, 0.5], "b")
        tree.delete([0.5, 0.5, 0.5], value="b")
        remaining = [v for _, v in tree.iter_points()]
        assert remaining == ["a"]

    def test_delete_wrong_value_raises(self, family):
        tree = family(3)
        tree.insert([0.5, 0.5, 0.5], "a")
        with pytest.raises(KeyNotFoundError):
            tree.delete([0.5, 0.5, 0.5], value="z")

    def test_delete_everything(self, family, rng):
        pts = rng.random((80, 4))
        tree = build(family, pts)
        order = rng.permutation(80)
        for i in order:
            tree.delete(pts[i], value=int(i))
        assert tree.size == 0
        assert tree.height == 1  # root shrank back to a single leaf

    def test_delete_triggers_condense_and_stays_exact(self, family, rng):
        pts = rng.random((200, 4))
        tree = build(family, pts)
        removed = set(range(0, 200, 3))
        for i in removed:
            tree.delete(pts[i], value=i)
        tree.check_invariants()
        survivors = np.array([p for i, p in enumerate(pts) if i not in removed])
        labels = [i for i in range(200) if i not in removed]
        q = rng.random(4)
        got = [n.value for n in tree.nearest(q, 8)]
        expected = [labels[j] for j in brute_force_knn(survivors, q, 8)]
        assert got == expected

    def test_interleaved_insert_delete(self, family, rng):
        tree = family(4)
        live: dict[int, np.ndarray] = {}
        next_id = 0
        for step in range(300):
            if live and rng.random() < 0.4:
                victim = int(rng.choice(list(live)))
                tree.delete(live.pop(victim), value=victim)
            else:
                p = rng.random(4)
                tree.insert(p, next_id)
                live[next_id] = p
                next_id += 1
        assert tree.size == len(live)
        tree.check_invariants()
        if live:
            pts = np.array(list(live.values()))
            labels = list(live)
            q = rng.random(4)
            got = [n.value for n in tree.nearest(q, min(5, len(live)))]
            expected = [labels[j] for j in brute_force_knn(pts, q, min(5, len(live)))]
            assert got == expected


class TestReinsertion:
    def test_reinsert_fraction_zero_disables(self, family, rng):
        # With fraction ~0 every overflow splits; the tree must still be
        # exact (this isolates the split path from the reinsert path).
        pts = rng.random((150, 4))
        tree = family(4, reinsert_fraction=0.01)
        tree.load(pts)
        tree.check_invariants()
        q = rng.random(4)
        assert [n.value for n in tree.nearest(q, 5)] == brute_force_knn(pts, q, 5)

    def test_heavy_reinsert_fraction(self, family, rng):
        pts = rng.random((150, 4))
        tree = family(4, reinsert_fraction=0.45)
        tree.load(pts)
        tree.check_invariants()
        q = rng.random(4)
        assert [n.value for n in tree.nearest(q, 5)] == brute_force_knn(pts, q, 5)


class TestDuplicates:
    def test_many_duplicates_exceeding_leaf(self, family):
        # More identical points than a leaf can hold forces splits of
        # zero-variance nodes.
        tree = family(3)
        for i in range(40):
            tree.insert([0.25, 0.25, 0.25], i)
        assert tree.size == 40
        res = tree.nearest([0.25, 0.25, 0.25], 40)
        assert len(res) == 40
        assert all(n.distance == 0.0 for n in res)


class TestUpdateSemantics:
    def test_weights_track_subtree_sizes(self, family, rng):
        tree = build(family, rng.random((250, 4)))
        if not tree.HAS_WEIGHTS:
            pytest.skip("family does not maintain weights")
        root = tree.read_node(tree.root_id)
        assert root.weight == 250

    def test_skewed_then_shifted_distribution(self, family, rng):
        # Insert one tight cluster, then a far-away cluster: exercises
        # region growth and forced reinsertion across a distribution shift.
        tree = family(4)
        a = rng.random((80, 4)) * 0.1
        b = rng.random((80, 4)) * 0.1 + 5.0
        pts = np.vstack([a, b])
        tree.load(pts)
        tree.check_invariants()
        q = np.full(4, 5.05)
        got = [n.value for n in tree.nearest(q, 5)]
        assert got == brute_force_knn(pts, q, 5)


class TestHeldButNotResident:
    """A full pool may decline a clean page, so insert and delete routinely
    hold a node object the pool does not.  If a second object of the same
    page were ever decoded and mutated beside it, one of the two updates
    would be lost -- and the file would differ from the one a pool that
    never declines (or evicts) produces."""

    def test_a_small_pool_builds_the_same_file(self, family, tmp_path):
        rng = np.random.default_rng(5)
        pts = rng.random((1500, 8))
        doomed = rng.permutation(1500)[:500]
        files = []
        # 64 frames is the documented floor; the tree grows to twice that.
        for frames in (64, 4096):
            path = tmp_path / f"{frames}.idx"
            with Database.create(path, kind=family.NAME, dims=8,
                                 buffer_capacity=frames) as db:
                for i, p in enumerate(pts):
                    db.insert(p, i)
                for i in doomed:
                    db.delete(pts[i], int(i))
                db.verify()
                live = {0}  # the meta page
                for node in db.index.iter_nodes():
                    live.update(node.all_page_ids)
                # a physical page: the logical one and its CRC32 trailer
                page_size = db.index.layout.page_size + CHECKSUM_TRAILER_SIZE
            files.append((live, path.read_bytes()))
        (small_live, small), (big_live, big) = files
        assert small_live == big_live and len(small_live) > 2 * 64
        assert len(small) == len(big)
        # A freed page keeps whatever image last reached the disk, which
        # depends on when it was evicted; every other page must match.
        for page_id in sorted(small_live):
            at = page_id * page_size
            assert small[at:at + page_size] == big[at:at + page_size], page_id
