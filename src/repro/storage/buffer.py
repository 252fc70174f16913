"""SIEVE buffer pool with frequency-gated admission.

The buffer pool sits between the trees and the page file.  It caches
*deserialized node objects* keyed by page id (a real DBMS buffer caches
raw frames, but its pages are directly usable in place; caching the
decoded object models the same thing without re-decoding on every hit).

Accounting: a buffer miss costs one physical page read, an eviction of a
dirty frame (or a flush) costs one physical page write.  Those physical
transfers are what the paper reports as "disk reads" / "disk accesses";
they are counted by the :class:`~repro.storage.store.NodeStore` wrapping
this pool, which also splits them by tree level.

Replacement is SIEVE (Zhang et al., NSDI 2024): frames sit in a FIFO
queue, a hit only sets the frame's ``visited`` bit, and on eviction a
*hand* walks from the oldest frame towards the newest, clearing bits,
and evicts the first frame it finds unvisited; it resumes from there
next time, and new frames enter at the newest end, unvisited.  A 16-d
k-NN reads nearly every page of the index, so back-to-back queries are
a loop slightly larger than the pool -- where LRU evicts each page just
before it is wanted again and SIEVE keeps most of the loop resident
(the simulated-policy table is in ``docs/PERFORMANCE.md``).

Admission sits in front of replacement.  When the loop is *strict* --
``knn_batch`` walks the pages in the same order block after block -- no
page is hit between its load and its eviction, no bit is ever set, and
SIEVE is FIFO: each newcomer evicts exactly the page needed next.  So a
clean page just read is only *offered* (:meth:`BufferPool.offer`): a
full pool installs it only if it was looked up more often lately than
the frame the hand would evict (TinyLFU, Einziger et al., TOS 2017),
and otherwise declines, keeping the part of the loop it already holds.
Lookups are counted per page in small saturating counters that are
halved periodically, so an old working set cannot keep a new one out.
Writes, new nodes and pinned reads are never refused (:meth:`put`).

Frames can be *pinned* while a tree operation holds a reference to the
node object; pinned frames are never evicted, so in-flight mutations are
never lost to a concurrent eviction + re-read.

The pool is **not** thread-safe and is deliberately outside the
``NodeStore`` snapshot lock: a live store's pool is the writer's private
cache, and each epoch-pinned :class:`~repro.storage.snapshot.SnapshotStore`
owns a private pool of its own, so reader and writer threads never share
frames (``docs/CONCURRENCY.md``).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

from ..exceptions import BufferPinError
from .nodes import InternalNode, LeafNode
from .stats import IOStats

__all__ = ["BufferPool"]

Node = LeafNode | InternalNode

# Lookup counts saturate at _COUNT_CAP and are halved every _AGING_PERIOD *
# capacity lookups.  Not tuning surface (sweep in ``docs/PERFORMANCE.md``);
# the low cap is what lets a new working set displace an old one quickly.
_COUNT_CAP = 3
_AGING_PERIOD = 10


class _Frame:
    __slots__ = ("node", "dirty", "pins", "visited", "newer", "older")

    def __init__(self, node: Node | None, dirty: bool = False) -> None:
        self.node = node
        self.dirty = dirty
        self.pins = 0
        self.visited = False
        self.newer = self.older = self


class BufferPool:
    """Fixed-capacity SIEVE cache of node objects with pin counts.

    Parameters
    ----------
    capacity:
        Maximum number of frames.  Must comfortably exceed the tree
        height plus the reinsertion working set; 64 is a safe floor.
    write_back:
        Callback ``(node) -> None`` invoked when a dirty frame leaves the
        pool (eviction or flush); the node store uses it to serialize the
        node into the page file and count the physical write.
    stats:
        The :class:`~repro.storage.stats.IOStats` bundle that receives
        the ``buffer_hits``/``buffer_misses`` counts (the node store
        shares its own bundle so snapshots/deltas cover cache behavior).
        A private bundle is created when omitted.
    """

    def __init__(self, capacity: int, write_back: Callable[[Node], None],
                 stats: IOStats | None = None) -> None:
        if capacity < 8:
            raise ValueError(f"buffer capacity must be at least 8 frames, got {capacity}")
        self.capacity = capacity
        self._write_back = write_back
        self._frames: dict[int, _Frame] = {}
        # The queue is a ring through a sentinel: ``_ring.older`` is the
        # newest frame, ``_ring.newer`` the oldest.  The sentinel is pinned
        # for good, so the hand steps over it like any other pinned frame.
        self._ring = _Frame(None)
        self._ring.pins = 1
        self._hand = self._ring
        self._counts: dict[int, int] = {}  # page id -> recent lookups, <= _COUNT_CAP
        self._lookups_to_aging = _AGING_PERIOD * capacity
        self.stats = stats if stats is not None else IOStats()

    def __len__(self) -> int:
        return len(self._frames)

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._frames

    @property
    def hits(self) -> int:
        """Lookups served from the pool (alias of ``stats.buffer_hits``)."""
        return self.stats.buffer_hits

    @property
    def misses(self) -> int:
        """Lookups that fell through to disk (alias of ``stats.buffer_misses``)."""
        return self.stats.buffer_misses

    @property
    def hit_ratio(self) -> float:
        """Hit ratio in [0, 1] over the life of the shared stats bundle."""
        return self.stats.hit_ratio

    def get(self, page_id: int) -> Node | None:
        """Return the cached node and mark it visited, or ``None``."""
        counts = self._counts
        count = counts.get(page_id, 0)
        if count < _COUNT_CAP:
            counts[page_id] = count + 1
        self._lookups_to_aging -= 1
        if not self._lookups_to_aging:
            self._counts = {p: c >> 1 for p, c in counts.items() if c > 1}
            self._lookups_to_aging = _AGING_PERIOD * self.capacity
        frame = self._frames.get(page_id)
        if frame is None:
            self.stats.buffer_misses += 1
            return None
        self.stats.buffer_hits += 1
        frame.visited = True
        return frame.node

    def put(self, node: Node, *, dirty: bool) -> None:
        """Install (or refresh) a frame for ``node``, evicting if needed."""
        frame = self._frames.get(node.page_id)
        if frame is not None:
            # Re-installing after an out-of-pool mutation: adopt the caller's
            # object, which is the authoritative current state.
            frame.node = node
            frame.dirty = frame.dirty or dirty
            frame.visited = True
            return
        if len(self._frames) >= self.capacity:
            victim = self._victim()
            if victim.dirty:
                self._write_back(victim.node)
            self.discard(victim.node.page_id)  # moves the hand on to the next-newer frame
        ring = self._ring
        frame = _Frame(node, dirty)
        frame.newer, frame.older = ring, ring.older
        ring.older.newer = frame
        ring.older = frame
        self._frames[node.page_id] = frame

    def offer(self, node: Node) -> bool:
        """Install a clean, just-read ``node`` if it has earned a frame.

        ``put(node, dirty=False)``, except that a full pool declines
        (returns ``False``; nothing is evicted or written back) unless the
        page was looked up more often lately than the frame it would evict.
        """
        if node.page_id not in self._frames and len(self._frames) >= self.capacity:
            count = self._counts.get
            if count(node.page_id, 0) <= count(self._victim().node.page_id, 0):
                return False
        self.put(node, dirty=False)
        return True

    def mark_dirty(self, page_id: int) -> None:
        """Flag a cached page as modified (no-op if not cached)."""
        frame = self._frames.get(page_id)
        if frame is not None:
            frame.dirty = True

    def pin(self, page_id: int) -> None:
        """Protect a frame from eviction until unpinned."""
        self._frames[page_id].pins += 1

    def unpin(self, page_id: int) -> None:
        """Release one pin; frames may be unpinned below zero by bugs, so clamp."""
        frame = self._frames.get(page_id)
        if frame is not None and frame.pins > 0:
            frame.pins -= 1

    def discard(self, page_id: int) -> None:
        """Drop a frame without writing it back (the page was freed)."""
        frame = self._frames.pop(page_id, None)
        if frame is not None:
            if self._hand is frame:
                self._hand = frame.newer
            frame.newer.older = frame.older
            frame.older.newer = frame.newer

    def flush(self) -> int:
        """Write back every dirty frame; returns the number written."""
        written = 0
        for frame in self._frames.values():
            if frame.dirty:
                self._write_back(frame.node)
                frame.dirty = False
                written += 1
        return written

    def clear(self) -> None:
        """Flush and drop every frame (pins are ignored: caller owns the pool)."""
        self.flush()
        self.drop()

    def drop(self) -> None:
        """Drop every frame *without* write-back (transaction abort).

        Dirty in-memory state is abandoned wholesale; the caller is
        responsible for restoring any index-level counters that pointed
        at the abandoned nodes.
        """
        for frame in self._frames.values():
            frame.newer = frame.older = None  # no cycles left for the collector
        self._frames.clear()
        ring = self._ring
        ring.newer = ring.older = self._hand = ring
        self._counts = {}
        self._lookups_to_aging = _AGING_PERIOD * self.capacity

    def nodes(self) -> Iterator[Node]:
        """Iterate over the cached node objects (for diagnostics)."""
        for frame in self._frames.values():
            yield frame.node

    def _victim(self) -> _Frame:
        """Advance the hand to the frame SIEVE evicts next and return it."""
        frame = self._hand
        # Two laps at most: the first clears every unpinned frame's bit, so
        # the second stops at the first unpinned frame -- or none exists.
        for _ in range(2 * len(self._frames) + 2):
            if frame.pins == 0:
                if not frame.visited:
                    break
                frame.visited = False
            frame = frame.newer
        else:
            raise BufferPinError(
                f"all {len(self._frames)} buffered frames are pinned; "
                "increase the buffer capacity"
            )
        self._hand = frame
        return frame
