"""Raw page-image cache: the tier between the buffer pool and the disk.

The cache hierarchy, top to bottom::

    BufferPool   — live decoded node objects (SIEVE over frames)
    PageCache    — raw *encoded* node images  (LRU over bytes)   <- here
    PageFile     — the disk (or its in-memory stand-in)

A :class:`PageCache` hit skips the physical page transfer but still pays
the (cheap, zero-copy) decode; it is what makes a second worker's cold
buffer pool inexpensive when the working set already streamed through
the process once.  Entries are keyed by a node's *head* page id and hold
the node's **complete** image — for an X-tree-style supernode that is
the head page plus every continuation page, already assembled.  Hits are
therefore all-or-nothing, which keeps the EXPLAIN accounting invariant
(`span.pages_read == IOStats.page_reads` delta) intact: a hit transfers
zero pages, a miss transfers ``extent`` pages.

Capacity is measured in *pages* (extent-weighted), mirroring how the
paper counts disk transfers.  A capacity of 0 disables the cache; the
:class:`~repro.storage.store.NodeStore` then skips it entirely, so the
default configuration is byte-for-byte identical to the pre-cache
behavior (the benchmark harness depends on exact read counts).

The cache is deliberately tiny in mechanism: an ``OrderedDict`` LRU with
hit/miss counters folded into the shared :class:`~repro.storage.stats.IOStats`
bundle.  Write paths must :meth:`invalidate` the head page id whenever a
node is dirtied or freed — the node store does this for every
``write()`` / ``free()``.
"""

from __future__ import annotations

from collections import OrderedDict

from .stats import IOStats

__all__ = ["PageCache"]


class PageCache:
    """LRU cache of fully-assembled encoded node images.

    Parameters
    ----------
    capacity_pages:
        Maximum total extent (in pages) of the cached images; must be
        positive.  Construct the cache only when it is wanted — the node
        store represents "disabled" as ``None``, not as a zero-capacity
        cache.
    stats:
        Shared counter bundle receiving ``page_cache_hits`` /
        ``page_cache_misses``.
    """

    __slots__ = ("capacity_pages", "stats", "_entries", "_used_pages")

    def __init__(self, capacity_pages: int, stats: IOStats | None = None) -> None:
        if capacity_pages <= 0:
            raise ValueError(
                f"page cache capacity must be positive, got {capacity_pages}"
            )
        self.capacity_pages = capacity_pages
        self.stats = stats if stats is not None else IOStats()
        #: head page id -> (image bytes, extent in pages), LRU order.
        self._entries: OrderedDict[int, tuple[bytes, int]] = OrderedDict()
        self._used_pages = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def used_pages(self) -> int:
        """Total extent of the cached images, in pages."""
        return self._used_pages

    def get(self, page_id: int) -> bytes | None:
        """The cached image for ``page_id``, or ``None``; counts hit/miss."""
        entry = self._entries.get(page_id)
        if entry is None:
            self.stats.page_cache_misses += 1
            return None
        self._entries.move_to_end(page_id)
        self.stats.page_cache_hits += 1
        return entry[0]

    def put(self, page_id: int, image: bytes, extent: int) -> None:
        """Insert (or refresh) the complete image of a node.

        Images wider than the whole cache are not admitted — evicting
        everything to hold one supernode would thrash the cache.
        """
        if extent > self.capacity_pages:
            return
        old = self._entries.pop(page_id, None)
        if old is not None:
            self._used_pages -= old[1]
        self._entries[page_id] = (image, extent)
        self._used_pages += extent
        while self._used_pages > self.capacity_pages:
            _, (_, evicted_extent) = self._entries.popitem(last=False)
            self._used_pages -= evicted_extent

    def invalidate(self, page_id: int) -> None:
        """Drop the entry for ``page_id`` (no-op when absent)."""
        old = self._entries.pop(page_id, None)
        if old is not None:
            self._used_pages -= old[1]

    def clear(self) -> None:
        """Drop every entry (counters are left alone)."""
        self._entries.clear()
        self._used_pages = 0

    def __repr__(self) -> str:
        return (
            f"PageCache(entries={len(self._entries)}, "
            f"pages={self._used_pages}/{self.capacity_pages})"
        )
