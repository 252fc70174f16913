"""Fault injection: simulated crashes, torn writes, bit rot, flaky reads.

Credible durability claims need a failure harness, not just happy-path
tests.  :class:`FaultInjectingPageFile` wraps any real backend and makes
it misbehave according to a :class:`FaultPlan`:

* **kill at the Nth write** — a global byte budget shared by the data
  file *and* the WAL; the write that exhausts it is torn (a prefix of
  the new image spliced onto the old bytes) and every later I/O raises
  :class:`~repro.exceptions.CrashError`, exactly like a process death;
* **torn writes** — the splice above, controlled by ``torn`` /
  ``rng``-chosen cut points;
* **bit flips on read** — silent corruption the checksum layer must
  catch;
* **EIO on read** — transient (fails ``k`` times, then succeeds; the
  serving pool's retry path) or permanent;
* **slow reads** — per-read latency for timeout testing.

The wrapper sits *below* the checksum layer in the stack::

    NodeStore -> ChecksumPageFile -> FaultInjectingPageFile -> FilePageFile

so a torn write tears the *sealed* physical page and is therefore
detectable by the CRC — tearing above the checksum would produce a
validly-sealed corrupt page, which no storage engine could ever detect.

``tests/test_crash_recovery.py`` uses the kill budget to murder inserts
at hundreds of random points and asserts every recovered tree is intact.
"""

from __future__ import annotations

import time

import numpy as np

from ..exceptions import CrashError, TransientIOError
from .checksums import ChecksumPageFile
from .pagefile import PageFile

__all__ = ["FaultInjectingPageFile", "FaultPlan", "splice_faults"]


class FaultPlan:
    """Mutable schedule of injected faults, shared across wrappers.

    Parameters
    ----------
    fail_after_write_bytes:
        Total bytes that may be written (across every wrapper and WAL
        sharing this plan) before the simulated crash.  ``None`` never
        crashes.  The write in flight when the budget runs out is torn
        at the budget boundary.
    torn_tail:
        When ``False``, the crashing write is dropped whole (no partial
        bytes) instead of torn.
    flip_bit_in_read:
        ``(page_id, byte_offset, bit)`` — flip one bit of every read of
        that page (checksum-detection tests), or ``None``.
    read_error_pages:
        Page ids whose reads raise.  With ``transient_read_errors=k``
        each listed page fails its first ``k`` reads with
        :class:`~repro.exceptions.TransientIOError`, then recovers;
        ``k=0`` means every read fails (permanent EIO).
    slow_read_seconds:
        Sleep injected before every read (timeout tests).
    seed:
        Seeds the RNG used for randomized tear points.
    """

    def __init__(
        self,
        *,
        fail_after_write_bytes: int | None = None,
        torn_tail: bool = True,
        flip_bit_in_read: tuple[int, int, int] | None = None,
        read_error_pages: tuple[int, ...] = (),
        transient_read_errors: int = 0,
        slow_read_seconds: float = 0.0,
        seed: int = 0,
    ) -> None:
        self.write_budget = fail_after_write_bytes
        self.torn_tail = torn_tail
        self.flip_bit_in_read = flip_bit_in_read
        self.read_error_pages = set(read_error_pages)
        self.transient_read_errors = transient_read_errors
        self.slow_read_seconds = slow_read_seconds
        self.rng = np.random.default_rng(seed)
        self.dead = False
        self.writes_seen = 0
        self.bytes_written = 0
        self._read_failures: dict[int, int] = {}

    # ------------------------------------------------------------------
    # write-side: the kill budget
    # ------------------------------------------------------------------

    def take_write_budget(self, nbytes: int) -> int:
        """Consume budget for an ``nbytes`` write; return the writable part.

        A return value smaller than ``nbytes`` means the crash happens
        *during* this write: the caller persists that prefix (torn) and
        then calls :meth:`die`.  Raises immediately when already dead.
        """
        self.check_alive()
        self.writes_seen += 1
        if self.write_budget is None:
            self.bytes_written += nbytes
            return nbytes
        remaining = self.write_budget - self.bytes_written
        if remaining >= nbytes:
            self.bytes_written += nbytes
            return nbytes
        allowed = max(0, remaining) if self.torn_tail else 0
        self.bytes_written += allowed
        return allowed

    def die(self, where: str) -> None:
        """Mark the plan dead and raise :class:`CrashError`."""
        from ..obs.events import EVENTS, WARN

        self.dead = True
        EVENTS.emit("fault_injected", level=WARN, fault="crash",
                    where=where, bytes_written=self.bytes_written)
        raise CrashError(f"simulated crash during {where} "
                         f"(after {self.bytes_written} bytes written)")

    def check_alive(self) -> None:
        """Raise if the simulated process has already died."""
        if self.dead:
            raise CrashError("simulated process is dead")

    # ------------------------------------------------------------------
    # read-side faults
    # ------------------------------------------------------------------

    def on_read(self, page_id: int, data: bytes) -> bytes:
        """Apply read-side faults for ``page_id``; returns (maybe) mangled data."""
        self.check_alive()
        if self.slow_read_seconds > 0.0:
            time.sleep(self.slow_read_seconds)
        if page_id in self.read_error_pages:
            from ..obs.events import DEBUG, EVENTS

            failures = self._read_failures.get(page_id, 0)
            if self.transient_read_errors == 0:
                if EVENTS.enabled_for(DEBUG):
                    EVENTS.emit("fault_injected", level=DEBUG, fault="eio",
                                page_id=page_id, transient=False)
                raise TransientIOError(f"injected EIO reading page {page_id}")
            if failures < self.transient_read_errors:
                self._read_failures[page_id] = failures + 1
                if EVENTS.enabled_for(DEBUG):
                    EVENTS.emit("fault_injected", level=DEBUG, fault="eio",
                                page_id=page_id, transient=True,
                                failure=failures + 1)
                raise TransientIOError(
                    f"injected transient EIO reading page {page_id} "
                    f"(failure {failures + 1}/{self.transient_read_errors})"
                )
        flip = self.flip_bit_in_read
        if flip is not None and flip[0] == page_id:
            _, offset, bit = flip
            if offset < len(data):
                mangled = bytearray(data)
                mangled[offset] ^= 1 << bit
                data = bytes(mangled)
        return data


class FaultInjectingPageFile(PageFile):
    """A page file that fails on cue, for crash and robustness tests."""

    def __init__(self, inner: PageFile, plan: FaultPlan) -> None:
        super().__init__(inner.page_size)
        self._inner = inner
        self.plan = plan
        self.readonly = inner.readonly

    @property
    def inner(self) -> PageFile:
        """The wrapped real backend."""
        return self._inner

    # -- allocation delegated ------------------------------------------

    def allocate(self) -> int:
        self.plan.check_alive()
        return self._inner.allocate()

    def free(self, page_id: int) -> None:
        self.plan.check_alive()
        self._inner.free(page_id)

    def ensure_allocated(self, page_id: int) -> None:
        self._inner.ensure_allocated(page_id)

    @property
    def allocated_pages(self) -> int:
        return self._inner.allocated_pages

    def _discard(self, page_id: int) -> None:  # pragma: no cover - delegated
        pass

    # -- faulty I/O ----------------------------------------------------

    def read(self, page_id: int) -> bytes:
        data = self._inner.read(page_id)
        return self.plan.on_read(page_id, data)

    def write(self, page_id: int, data: bytes) -> None:
        if len(data) < self.page_size:
            data = data + b"\x00" * (self.page_size - len(data))
        allowed = self.plan.take_write_budget(len(data))
        if allowed >= len(data):
            self._inner.write(page_id, data)
            return
        # Torn write: splice the admitted prefix onto whatever the page
        # held before (zeros for a never-written page), persist, die.
        try:
            old = self._inner.read(page_id)
        except Exception:
            old = b"\x00" * self.page_size
        torn = data[:allowed] + old[allowed:]
        self._inner.write(page_id, torn)
        self.plan.die(f"write of page {page_id}")

    # -- lifecycle -----------------------------------------------------

    def sync(self) -> None:
        self.plan.check_alive()
        self._inner.sync()

    def close(self) -> None:
        self._inner.close()

    def __enter__(self) -> "FaultInjectingPageFile":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def splice_faults(store, plan: FaultPlan) -> None:
    """Splice a fault-injecting layer under an open ``store``'s CRC32 seal.

    The faults sit where :func:`~repro.storage.stack.open_pagefile` puts
    them, below the seal, so a bit flipped in a read fails the page's
    checksum instead of reaching a query.  Every later page read obeys
    ``plan``; the buffers are dropped so the next query reads through
    it.  A serving-pool worker takes its test faults this way, after its
    index is open.
    """
    seal = store.pagefile
    store.pagefile = ChecksumPageFile(FaultInjectingPageFile(seal.inner, plan),
                                      seal.page_size)
    store.drop_cache()
