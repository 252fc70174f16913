"""I/O and work counters.

The paper's primary cost metric is the *number of disk reads* per query
(Figures 3, 4, 10, 11, 15, 18, 19), split into node-level and leaf-level
reads for Figure 14, plus CPU time.  :class:`IOStats` is a plain counter
bundle shared by a page file, buffer pool, node store, and the search
code; the benchmark harness snapshots it around each measured operation.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

__all__ = ["IOStats"]


@dataclass
class IOStats:
    """Mutable counter bundle for storage and search work.

    ``page_reads``/``page_writes`` count *physical* page transfers between
    the buffer pool and the page file (i.e. what the paper calls disk
    reads/writes).  ``node_reads``/``leaf_reads`` split the physical reads
    by tree level (Figure 14).  ``buffer_hits``/``buffer_misses`` count
    buffer-pool lookups by outcome (a miss is what triggers a physical
    read), so snapshots and deltas cover cache behavior too.
    ``distance_computations`` counts point distance evaluations
    performed by search, a machine-independent proxy for the paper's
    CPU-time curves.
    """

    page_reads: int = 0
    page_writes: int = 0
    node_reads: int = 0
    leaf_reads: int = 0
    node_writes: int = 0
    leaf_writes: int = 0
    buffer_hits: int = 0
    buffer_misses: int = 0
    distance_computations: int = 0

    @property
    def disk_accesses(self) -> int:
        """Total physical page transfers (reads + writes), as in Fig. 9-(b)."""
        return self.page_reads + self.page_writes

    @property
    def hit_ratio(self) -> float:
        """Decoded-node (buffer pool) hit ratio in [0, 1] (0.0 before any lookup)."""
        lookups = self.buffer_hits + self.buffer_misses
        return self.buffer_hits / lookups if lookups else 0.0

    def reset(self) -> None:
        """Zero every counter."""
        for field in fields(self):
            setattr(self, field.name, 0)

    def snapshot(self) -> "IOStats":
        """An immutable-by-convention copy of the current counters."""
        return IOStats(**{f.name: getattr(self, f.name) for f in fields(self)})

    def since(self, earlier: "IOStats") -> "IOStats":
        """Counter deltas relative to an earlier snapshot."""
        return IOStats(
            **{
                f.name: getattr(self, f.name) - getattr(earlier, f.name)
                for f in fields(self)
            }
        )

    def __add__(self, other: "IOStats") -> "IOStats":
        if not isinstance(other, IOStats):
            return NotImplemented
        return IOStats(
            **{
                f.name: getattr(self, f.name) + getattr(other, f.name)
                for f in fields(self)
            }
        )

    def __str__(self) -> str:
        return (
            f"IOStats(reads={self.page_reads} [{self.node_reads}n/{self.leaf_reads}l], "
            f"writes={self.page_writes} [{self.node_writes}n/{self.leaf_writes}l], "
            f"buffer={self.buffer_hits}h/{self.buffer_misses}m, "
            f"dist={self.distance_computations})"
        )
