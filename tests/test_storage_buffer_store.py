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
from repro.storage.snapshot import open_snapshot_store
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


def fetch(pool, page_id):
    """``NodeStore.read`` since admission: a clean miss is only offered a frame."""
    if pool.get(page_id) is None:
        pool.offer(Page(page_id))


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


    def test_strict_loop_larger_than_the_pool(self):
        # knn_batch blocks: the same pages in the same order, round after
        # round.  No page is hit between load and eviction, so SIEVE alone is
        # FIFO here and keeps nothing; admission keeps a pool's worth of the
        # loop (capacity / pages = 0.83, less what periodic aging lets in).
        capacity = 256
        pages = int(1.2 * capacity)
        pool = BufferPool(capacity, lambda node: None)
        for round_no in range(30):
            if round_no == 10:
                hits, misses = pool.hits, pool.misses
            for i in range(pages):
                fetch(pool, i)
        hits, misses = pool.hits - hits, pool.misses - misses
        assert hits / (hits + misses) >= 0.75

    @pytest.mark.parametrize("warm_up", [20, 23, 26])
    def test_a_new_working_set_displaces_the_old_one(self, warm_up):
        # Uniform lookups over 1.2 x capacity pages, then over a disjoint set
        # of the same size.  The old residents hold saturated counts, so the
        # newcomers are refused until the next aging halves them -- at most
        # one aging period (10 x capacity lookups) away; the three warm-up
        # lengths put the switch right at, a third and two thirds into one --
        # and the refill stalls wherever the hand rests on a frame that ties
        # with every newcomer.  Measured: back to the old hit ratio within 18
        # x capacity lookups at the worst phase, and anywhere from 0.15 to 0.84
        # over lookups 8..16 x capacity.  Pinned here: two aging periods.
        capacity = 256
        pages = int(1.2 * capacity)
        pool = BufferPool(capacity, lambda node: None)
        rng = random.Random(1)

        def hit_ratio(first_page, lookups):
            hits = pool.hits
            for _ in range(lookups):
                fetch(pool, first_page + rng.randrange(pages))
            return (pool.hits - hits) / lookups

        hit_ratio(0, (warm_up - 16) * capacity)
        before = hit_ratio(0, 16 * capacity)
        hit_ratio(10_000, 20 * capacity)
        after = hit_ratio(10_000, 16 * capacity)
        assert before >= 0.8
        assert abs(after - before) <= 0.03
        assert not any(i in pool for i in range(pages))


class TestAdmission:
    """``offer``: a clean page just read must earn its frame."""

    def hot_pool(self, written=None):
        """Pages 0..7 resident with saturated counts; 0 and 1 dirty, 2 pinned."""
        pool = full_pool(written)
        for _ in range(3):
            for i in range(8):
                pool.get(i)
        pool.mark_dirty(0)
        pool.mark_dirty(1)
        pool.pin(2)
        return pool

    def test_with_room_an_offer_installs(self):
        pool = BufferPool(8, lambda node: None)
        assert all(pool.offer(Page(i)) for i in range(8))
        assert len(pool) == 8

    def test_a_full_pool_declines_a_colder_page_and_changes_nothing(self):
        written = []
        pool = self.hot_pool(written)
        assert pool.get(8) is None
        assert pool.offer(Page(8)) is False
        assert [i for i in range(9) if i in pool] == list(range(8))
        assert written == []
        assert pool.flush() == 2 and [n.page_id for n in written] == [0, 1]
        for i in range(20, 40):                  # 2 is still pinned
            pool.put(Page(i), dirty=False)
        assert 2 in pool

    def test_a_hotter_page_takes_the_frame_of_the_hands_victim(self):
        written = []
        pool = full_pool(written)                # residents never looked up: count 0
        pool.mark_dirty(0)
        assert pool.get(8) is None               # one lookup: count 1 > 0
        assert pool.offer(Page(8)) is True
        assert 0 not in pool and 8 in pool and len(pool) == 8
        assert [n.page_id for n in written] == [0]

    def test_a_tie_goes_to_the_resident(self):
        pool = full_pool()
        for i in range(8):
            pool.get(i)
        assert pool.get(8) is None               # one lookup each: a tie with any victim
        assert pool.offer(Page(8)) is False
        assert pool.get(8) is None               # two against one
        assert pool.offer(Page(8)) is True
        assert [i for i in range(9) if i not in pool] == [0]

    def test_an_offer_of_a_resident_page_is_a_clean_put(self):
        written = []
        pool = self.hot_pool(written)
        replacement = Page(0)
        assert pool.offer(replacement) is True
        assert len(pool) == 8 and pool.get(0) is replacement
        assert pool.flush() == 2                 # still dirty: the bit is ORed

    def test_put_installs_whatever_the_counts_say(self):
        pool = self.hot_pool()
        pool.put(Page(8), dirty=False)           # never looked up, hottest residents
        assert 8 in pool and len(pool) == 8

    @pytest.mark.parametrize("reset", ["drop", "clear"])
    def test_drop_and_clear_forget_the_lookup_counts(self, reset):
        # drop_cache() is how the figure benchmarks start a query cold: what
        # the pool decides afterwards must not depend on what ran before --
        # neither through stale counts nor through the phase of the aging.
        used = self.hot_pool()
        for _ in range(50):
            used.get(11)
        used.unpin(2)
        getattr(used, reset)()
        fresh = BufferPool(8, lambda node: None)
        rng = random.Random(3)
        for _ in range(600):
            page_id = rng.randrange(12)
            fetch(used, page_id)
            fetch(fresh, page_id)
            assert [i in used for i in range(12)] == [i in fresh for i in range(12)]

    @pytest.mark.parametrize("snapshot", [False, True], ids=["live", "snapshot"])
    def test_a_pinned_read_is_never_declined(self, store, snapshot):
        leaves = [fill_leaf(store, seed=i) for i in range(9)]
        store.flush()
        view = open_snapshot_store(store, buffer_capacity=8) if snapshot else store
        view.drop_cache()
        hot, cold = [leaf.page_id for leaf in leaves[:8]], leaves[8].page_id
        for _ in range(3):
            for page_id in hot:
                view.read(page_id)
        reads = view.stats.page_reads
        held = view.read(cold)                   # declined: the caller alone holds it
        assert held.count == 3 and cold not in view.buffer
        assert view.stats.page_reads == reads + 1
        pinned = view.read(cold, pin=True)       # must be resident to be pinned
        assert cold in view.buffer and len(view.buffer) == 8
        for page_id in hot:                      # a flood cannot push it out
            view.read(page_id)
        assert view.read(cold) is pinned
        view.unpin(cold)
        if snapshot:
            view.close()


POOL_OPS = st.lists(
    st.tuples(st.sampled_from(["get", "put", "put_dirty", "offer", "pin", "unpin",
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
        elif op == "offer":
            node = Page(pid)
            full = pid not in before and len(before) == capacity
            if full and all(pins.get(p) for p in before):
                with pytest.raises(BufferPinError):
                    pool.offer(node)
            elif pool.offer(node):               # exactly put(node, dirty=False)
                latest[pid] = node
                evicted = [p for p in before if p not in pool]
                assert len(evicted) == full
                assert not any(pins.get(p) for p in evicted)
                assert written == [latest[p] for p in evicted if p in dirty]
                for p in evicted:
                    forget(p)
            else:                                # declined: only ever by a full pool,
                assert full and written == []    # and nothing moves (checked below)
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
        if op not in ("put", "put_dirty", "offer", "flush"):
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
        # A raw pickle in page 0 is a format no writer emits: refused
        # as any other file without a superblock, never unpickled.
        store.pagefile.write(0, pickle.dumps([1, 2, 3]))
        with pytest.raises(StorageError, match="not a repro index file"):
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
