"""Assembling the physical page stack: file + faults + checksums + WAL.

The storage engine is a sandwich of small wrappers::

    NodeStore
      -> ChecksumPageFile        (seals every page with CRC32)
      -> FaultInjectingPageFile  (tests only: torn writes, bit rot, EIO)
      -> FilePageFile | InMemoryPageFile

Stacking order matters: fault injection sits *below* the checksum layer
so a simulated torn write tears the sealed physical page — which the CRC
then catches — instead of producing a validly-sealed corrupt page.

:func:`open_pagefile` is the only sanctioned way to build this stack
outside the storage package (``tools/lint.py`` rejects direct
``FilePageFile(...)`` construction elsewhere in ``repro``).
:func:`open_existing` is the one path from a saved index file to an
open stack — the file supplies its own geometry (the meta superblock)
and, once recovered, its own meta.  The same lint rule confines direct
``NodeStore``/``SnapshotStore`` construction to the storage package and
``indexes/base.py``: read-only views over a live store come from
:func:`~repro.storage.snapshot.open_snapshot_store` (or
``index.snapshot_view()`` / ``Database.snapshot()`` above it), which
pin a committed epoch before reading anything.
"""

from __future__ import annotations

import os

from .checksums import CHECKSUM_TRAILER_SIZE, ChecksumPageFile
from .constants import DEFAULT_PAGE_SIZE, META_PAGE_ID
from .faults import FaultInjectingPageFile, FaultPlan
from .pagefile import FilePageFile, InMemoryPageFile, PageFile
from .serializer import read_superblock, unpack_meta
from .wal import RecoveryReport, WriteAheadLog, open_wal, recover

__all__ = ["open_existing", "open_pagefile", "wal_path"]


def wal_path(path: str | os.PathLike) -> str:
    """The conventional WAL location for a data file: ``<path>.wal``."""
    return os.fspath(path) + ".wal"


def open_pagefile(
    path: str | os.PathLike | None,
    *,
    page_size: int = DEFAULT_PAGE_SIZE,
    fault_plan: FaultPlan | None = None,
    create: bool = True,
    readonly: bool = False,
) -> PageFile:
    """Build the logical page stack over one data file.

    Parameters
    ----------
    path:
        Data file path, or ``None`` for an in-memory backend.
    page_size:
        The *logical* page size (what the node layout sees).  Every
        page is sealed with a CRC32 trailer
        (:class:`~repro.storage.checksums.ChecksumPageFile`), so the
        physical file uses pages 8 bytes larger; the caller never needs
        to care.
    fault_plan:
        Test-only :class:`~repro.storage.faults.FaultPlan`; when given,
        a :class:`~repro.storage.faults.FaultInjectingPageFile` is
        spliced in *below* the checksum layer.
    create:
        Passed through to :class:`~repro.storage.pagefile.FilePageFile`;
        ``False`` raises if the file does not exist.
    readonly:
        Open the existing file ``O_RDONLY``; the resulting stack rejects
        every mutation.  Requires ``path``.  Callers must recover any
        pending WAL *before* opening read-only — :func:`open_existing`
        with ``readonly=True`` handles that ordering.
    """
    physical = page_size + CHECKSUM_TRAILER_SIZE
    base: PageFile
    if path is None:
        if readonly:
            raise ValueError("read-only page stacks require a file path")
        base = InMemoryPageFile(physical)
    else:
        base = FilePageFile(path, page_size=physical, create=create,
                            readonly=readonly)
    if fault_plan is not None:
        base = FaultInjectingPageFile(base, fault_plan)
    return ChecksumPageFile(base, page_size)


def open_existing(
    path: str | os.PathLike,
    *,
    durability: str | None = None,
    sync_every: int = 1,
    fault_plan: FaultPlan | None = None,
    readonly: bool = False,
) -> tuple[PageFile, WriteAheadLog | None, RecoveryReport, dict]:
    """The one path from an index file to an open page stack and its meta.

    Everything that opens a saved index arrives here, and the order is
    fixed: the superblock (the file's first 24 bytes) gives the page
    geometry; the stack is built; any WAL a previous process left is
    recovered; *then* the meta page is read, once, CRC-checked — a meta
    page torn by a crash has been repaired from the log by now, so what
    it says (``durability=None`` takes the mode the index was saved
    with) is the committed truth.  A file without a superblock, or one
    an older build wrote in a format this one does not read (see
    :func:`~repro.storage.serializer.read_superblock`), raises
    :class:`~repro.exceptions.ReproError` before anything is opened.

    With ``readonly=True`` the data file is opened ``O_RDONLY`` (every
    mutation raises :class:`~repro.exceptions.StorageError`) and no WAL
    is opened regardless of ``durability``.  Recovery still runs first —
    through a briefly-opened *writable* stack, since a reader of a file
    whose WAL holds unapplied commits would serve stale pages — and only
    then is the (now fully recovered) file reopened read-only.
    """
    if durability is not None:
        _check_durability(durability)
    page_size = read_superblock(path)
    log_path = wal_path(path)

    def stack(readonly: bool) -> PageFile:
        return open_pagefile(path, page_size=page_size, fault_plan=fault_plan,
                             create=False, readonly=readonly)

    replay = _has_log(log_path)
    report = RecoveryReport()
    pagefile = stack(readonly=readonly and not replay)
    try:
        if replay:
            report = recover(pagefile, log_path)
            if readonly:
                pagefile.close()
                pagefile = stack(readonly=True)
        meta = unpack_meta(pagefile.read(META_PAGE_ID))
    except BaseException:
        pagefile.close()
        raise
    if durability is None:
        durability = "wal" if meta.get("durability") == "wal" else "none"
    wal = None
    if durability == "wal" and not readonly:
        wal = open_wal(log_path, sync_every=sync_every, fault_plan=fault_plan)
    return pagefile, wal, report, meta


def _check_durability(durability: str) -> None:
    if durability not in ("none", "wal"):
        raise ValueError(
            f"unknown durability mode {durability!r}; expected 'none' or 'wal'"
        )


def _has_log(log_path: str) -> bool:
    """Whether a previous process left log records to replay."""
    return os.path.exists(log_path) and os.path.getsize(log_path) > 0
