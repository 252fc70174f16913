"""Unit tests for the buffer pool and node store."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import BufferPinError, StorageError
from repro.storage.buffer import BufferPool
from repro.storage.layout import NodeLayout
from repro.storage.pagefile import InMemoryPageFile
from repro.storage.stats import IOStats
from repro.storage.store import NodeStore


@pytest.fixture
def store() -> NodeStore:
    layout = NodeLayout(dims=4, has_rects=True, has_spheres=True, has_weights=True)
    return NodeStore(layout, buffer_capacity=8)


def fill_leaf(store, n=3, seed=0):
    rng = np.random.default_rng(seed)
    leaf = store.new_leaf()
    for i in range(n):
        leaf.add(rng.random(4), i)
    store.write(leaf)
    return leaf


class TestStoreBasics:
    def test_new_leaf_is_cached(self, store):
        leaf = fill_leaf(store)
        # Reading back hits the buffer: same object, no physical read.
        assert store.read(leaf.page_id) is leaf
        assert store.stats.page_reads == 0

    def test_cold_read_decodes_and_counts(self, store):
        leaf = fill_leaf(store)
        store.drop_cache()
        reread = store.read(leaf.page_id)
        assert reread is not leaf
        assert reread.count == 3
        assert store.stats.page_reads == 1
        assert store.stats.leaf_reads == 1

    def test_write_back_counts_physical_write(self, store):
        fill_leaf(store)
        assert store.stats.page_writes == 0  # lazy
        store.flush()
        assert store.stats.page_writes == 1
        assert store.stats.leaf_writes == 1

    def test_node_vs_leaf_read_split(self, store):
        leaf = fill_leaf(store)
        node = store.new_internal(level=1)
        node.add(leaf.page_id, low=np.zeros(4), high=np.ones(4),
                 center=np.full(4, 0.5), radius=1.0, weight=3)
        store.write(node)
        store.drop_cache()
        store.read(node.page_id)
        store.read(leaf.page_id)
        assert store.stats.node_reads == 1
        assert store.stats.leaf_reads == 1

    def test_free_releases_page(self, store):
        leaf = fill_leaf(store)
        store.free(leaf)
        assert store.pagefile.allocated_pages == 0

    def test_page_size_mismatch_rejected(self):
        layout = NodeLayout(dims=4, has_rects=True, has_spheres=False,
                            has_weights=False, page_size=8192)
        with pytest.raises(StorageError):
            NodeStore(layout, pagefile=InMemoryPageFile(page_size=4096))

    def test_shared_stats_object(self):
        layout = NodeLayout(dims=4, has_rects=True, has_spheres=False,
                            has_weights=False)
        stats = IOStats()
        store = NodeStore(layout, stats=stats)
        leaf = store.new_leaf()
        store.drop_cache()
        store.read(leaf.page_id)
        assert stats.page_reads == 1


class TestEviction:
    def test_eviction_writes_back_dirty_frames(self, store):
        leaves = [fill_leaf(store, seed=i) for i in range(12)]
        # Capacity is 8: the four oldest must have been written back.
        assert store.stats.page_writes >= 4
        store.drop_cache()
        for leaf in leaves:
            assert store.read(leaf.page_id).count == 3

    def test_mutations_survive_eviction_cycles(self, store):
        leaf = fill_leaf(store)
        page_id = leaf.page_id
        # Evict it by flooding the pool.
        for i in range(20):
            fill_leaf(store, seed=100 + i)
        reread = store.read(page_id)
        assert reread.count == 3

    def test_pinned_pages_survive_flood(self, store):
        leaf = fill_leaf(store)
        store.pin(leaf.page_id)
        for i in range(20):
            fill_leaf(store, seed=200 + i)
        # Still the same object: it was never evicted.
        assert store.read(leaf.page_id) is leaf
        store.unpin(leaf.page_id)

    def test_all_pinned_raises(self, store):
        leaves = [fill_leaf(store, seed=i) for i in range(8)]
        for leaf in leaves:
            store.pin(leaf.page_id)
        with pytest.raises(BufferPinError):
            fill_leaf(store, seed=99)

    def test_hit_miss_counters(self, store):
        leaf = fill_leaf(store)
        store.read(leaf.page_id)
        assert store.buffer.hits >= 1
        store.drop_cache()
        store.read(leaf.page_id)
        assert store.buffer.misses >= 1


class Page:
    """All the pool reads of a node is ``page_id``; equality is identity."""

    def __init__(self, page_id):
        self.page_id = page_id


def touch(pool, page_id):
    """What ``NodeStore.read`` does to the pool: look up, install on a miss."""
    if pool.get(page_id) is None:
        pool.put(Page(page_id), dirty=False)


def full_pool(written=None):
    """Pages 0..7, oldest first, in a pool of 8; write-backs land in ``written``."""
    pool = BufferPool(8, (lambda node: None) if written is None else written.append)
    for i in range(8):
        pool.put(Page(i), dirty=False)
    return pool


class TestSieveHand:
    def test_hit_spares_a_frame_and_the_hand_resumes(self):
        pool = full_pool()
        for i in (0, 1, 2):
            pool.get(i)
        pool.put(Page(8), dirty=False)   # passes 0, 1, 2 (clearing them), evicts 3
        assert 3 not in pool and all(i in pool for i in (0, 1, 2))
        pool.put(Page(9), dirty=False)   # resumes at 4, not back at the oldest
        assert 4 not in pool and 0 in pool

    def test_discard_of_the_frame_under_the_hand(self):
        pool = full_pool()
        for i in (0, 1, 2):
            pool.get(i)
        pool.put(Page(8), dirty=False)   # evicts 3; the hand rests on 4
        pool.discard(4)
        pool.put(Page(9), dirty=False)   # seven frames: room without evicting
        pool.put(Page(10), dirty=False)  # the hand moved on to 5
        assert 5 not in pool and all(i in pool for i in (0, 1, 2))
        assert len(pool) == 8

    @pytest.mark.parametrize("reset", ["drop", "clear"])
    def test_drop_and_clear_reset_the_hand(self, reset):
        written = []
        pool = full_pool(written)
        pool.get(0)
        pool.mark_dirty(5)
        pool.put(Page(8), dirty=False)   # evicts 1; the hand rests on 2
        getattr(pool, reset)()
        assert len(pool) == 0
        assert [node.page_id for node in written] == ([5] if reset == "clear" else [])
        for i in range(20, 29):          # refill past capacity
            pool.put(Page(i), dirty=False)
        assert len(pool) == 8 and 20 not in pool
        assert [i for i in range(9) if i in pool] == []

    def test_put_on_a_resident_page_adopts_the_node_and_marks_it_visited(self):
        written = []
        pool = full_pool(written)
        pool.put(Page(0), dirty=True)
        replacement = Page(0)
        pool.put(replacement, dirty=False)       # the dirty bit is ORed, not overwritten
        assert len(pool) == 8
        pool.put(Page(8), dirty=False)           # 0 is visited: 1 goes instead
        assert 0 in pool and 1 not in pool and written == []
        assert pool.get(0) is replacement
        assert pool.flush() == 1 and written == [replacement]

    def test_put_on_a_resident_page_keeps_its_place_in_the_queue(self):
        pool = full_pool()
        pool.put(Page(0), dirty=False)
        for i in range(1, 8):
            pool.get(i)
        pool.put(Page(8), dirty=False)   # all visited: a full lap, then the oldest goes
        assert [i for i in range(9) if i not in pool] == [0]

    def test_eviction_steps_over_pinned_frames(self):
        pool = full_pool()
        pool.pin(0)
        pool.pin(1)
        pool.put(Page(8), dirty=False)
        pool.put(Page(9), dirty=False)           # goes on from 3, no second look at 0, 1
        assert [i for i in range(10) if i not in pool] == [2, 3]

    def test_all_pinned_raises_and_recovers(self):
        pool = full_pool()
        for i in range(8):
            pool.get(i)
            pool.pin(i)
        with pytest.raises(BufferPinError):
            pool.put(Page(8), dirty=False)
        assert len(pool) == 8 and 8 not in pool
        pool.unpin(5)
        pool.put(Page(8), dirty=False)
        assert 5 not in pool and 8 in pool


class TestReplacementQuality:
    """Deterministic traces: what the policy keeps, not how fast it runs."""

    def test_loop_slightly_larger_than_the_pool(self):
        # Back-to-back 16-d k-NN queries: nearly every page each round, in an
        # order that differs a little from round to round.  LRU keeps under
        # 0.35 of this trace.
        capacity = 256
        pages = int(1.2 * capacity)
        pool = BufferPool(capacity, lambda node: None)
        rng = random.Random(0)
        for round_no in range(30):
            if round_no == 10:
                hits, misses = pool.hits, pool.misses
            for i in sorted(range(pages), key=lambda i: i + rng.gauss(0, 0.2 * pages)):
                touch(pool, i)
        hits, misses = pool.hits - hits, pool.misses - misses
        assert hits / (hits + misses) >= 0.6

    def test_hot_set_survives_a_one_off_scan(self):
        capacity = 128
        pool = BufferPool(capacity, lambda node: None)
        for _ in range(3):
            for i in range(40):
                touch(pool, i)
        for i in range(1000, 1000 + 2 * capacity):
            touch(pool, i)
        assert sum(i in pool for i in range(40)) >= 36


POOL_OPS = st.lists(
    st.tuples(st.sampled_from(["get", "put", "put_dirty", "pin", "unpin",
                               "mark_dirty", "discard", "flush", "drop"]),
              st.integers(0, 13)),
    max_size=120,
)


@settings(max_examples=200, deadline=None)
@given(POOL_OPS)
def test_pool_against_a_model(ops):
    capacity = 8
    written = []
    pool = BufferPool(capacity, written.append)
    latest = {}     # page id -> node object last put, while resident
    dirty = set()   # resident pages owing a write-back
    pins = {}       # resident page id -> pin count
    lookups = 0

    def forget(p):
        latest.pop(p, None)
        dirty.discard(p)
        pins.pop(p, None)

    for op, pid in ops:
        written.clear()
        before = set(latest)
        if op == "get":
            lookups += 1
            assert pool.get(pid) is latest.get(pid)
        elif op in ("put", "put_dirty"):
            node = Page(pid)
            stuck = (pid not in before and len(before) == capacity
                     and all(pins.get(p) for p in before))
            if stuck:
                with pytest.raises(BufferPinError):
                    pool.put(node, dirty=op == "put_dirty")
            else:
                pool.put(node, dirty=op == "put_dirty")
                latest[pid] = node
                if op == "put_dirty":
                    dirty.add(pid)
                evicted = [p for p in before if p not in pool]
                assert len(evicted) == (pid not in before and len(before) == capacity)
                assert not any(pins.get(p) for p in evicted)
                assert written == [latest[p] for p in evicted if p in dirty]
                for p in evicted:
                    forget(p)
        elif op == "pin" and pid in before:
            pool.pin(pid)
            pins[pid] = pins.get(pid, 0) + 1
        elif op == "unpin":
            pool.unpin(pid)
            if pins.get(pid):
                pins[pid] -= 1
        elif op == "mark_dirty":
            pool.mark_dirty(pid)
            if pid in before:
                dirty.add(pid)
        elif op == "discard":
            pool.discard(pid)
            forget(pid)
        elif op == "flush":
            assert pool.flush() == len(dirty)
            assert sorted(written, key=id) == sorted((latest[p] for p in dirty), key=id)
            dirty.clear()
        elif op == "drop":
            pool.drop()
            latest.clear()
            dirty.clear()
            pins.clear()
        if op not in ("put", "put_dirty", "flush"):
            assert written == []
        assert {p for p in range(14) if p in pool} == set(latest)
        assert len(pool) == len(latest) <= capacity
        assert sorted(pool.nodes(), key=id) == sorted(latest.values(), key=id)
        assert pool.hits + pool.misses == lookups


class TestMeta:
    def test_meta_roundtrip(self, store):
        store.write_meta({"index": "srtree", "size": 42})
        assert store.read_meta() == {"index": "srtree", "size": 42}

    def test_corrupt_meta(self, store):
        store.pagefile.write(0, b"garbage")
        with pytest.raises(StorageError):
            store.read_meta()

    def test_non_dict_meta_rejected(self, store):
        import pickle
        store.pagefile.write(0, pickle.dumps([1, 2, 3]))
        with pytest.raises(StorageError):
            store.read_meta()


class TestStats:
    def test_snapshot_and_since(self):
        stats = IOStats()
        stats.page_reads = 5
        snap = stats.snapshot()
        stats.page_reads = 9
        assert stats.since(snap).page_reads == 4
        assert snap.page_reads == 5

    def test_reset(self):
        stats = IOStats(page_reads=3, leaf_writes=2, distance_computations=7)
        stats.reset()
        assert stats.page_reads == 0
        assert stats.distance_computations == 0

    def test_add(self):
        a = IOStats(page_reads=1, node_reads=1)
        b = IOStats(page_reads=2, leaf_reads=3)
        c = a + b
        assert c.page_reads == 3
        assert c.node_reads == 1
        assert c.leaf_reads == 3

    def test_disk_accesses(self):
        stats = IOStats(page_reads=4, page_writes=6)
        assert stats.disk_accesses == 10

    def test_str_mentions_reads(self):
        assert "reads=0" in str(IOStats())
