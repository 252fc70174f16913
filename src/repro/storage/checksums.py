"""Per-page CRC32 checksums: torn-page and bit-rot detection on read.

:class:`ChecksumPageFile` wraps any :class:`~repro.storage.pagefile.PageFile`
and *seals* every page on write: the logical page image is zero-padded to
the logical page size and followed by an 8-byte trailer::

    +----------------- logical page image (page_size bytes) ----------+
    | node image / meta image, zero padded                            |
    +------------------------------------------------------------------+
    | magic "Ck" (2) | version (1) | reserved (1) | CRC32 (4)          |
    +------------------------------------------------------------------+

so the *physical* page of the wrapped backend is ``page_size + 8`` bytes.
The CRC covers the full padded logical image, which makes the two crash
artifacts the WAL recovery pass cares about detectable:

* a **torn page** (a crash left a prefix of the new image spliced onto
  the old tail) almost surely fails the CRC of either image;
* a **bit flip** anywhere in the image or the trailer fails verification
  (a trailer flip breaks the magic or the stored CRC).

Every page stack :func:`~repro.storage.stack.open_pagefile` builds —
file (writable or read-only) or in-memory — is wrapped in this class;
there is no bare format.  Keeping the trailer *outside* the logical
page means the node layout — and therefore every fanout and page count
the paper reports — is the logical page's alone; sealing costs 8 bytes
of disk per page and one ``zlib.crc32`` per physical transfer, nothing
else.

Verification failures raise :class:`~repro.exceptions.ChecksumError`
and are counted by ``repro_checksum_failures_total``.
"""

from __future__ import annotations

import struct
import zlib

from ..exceptions import ChecksumError, StorageError
from .pagefile import PageFile

__all__ = ["CHECKSUM_TRAILER_SIZE", "ChecksumPageFile"]

CHECKSUM_TRAILER_SIZE = 8
"""Bytes appended to every physical page: magic, version, pad, CRC32."""

_TRAILER = struct.Struct("<2sBBI")
_MAGIC = b"Ck"
_VERSION = 1


class ChecksumPageFile(PageFile):
    """A page file whose every page is sealed with a CRC32 trailer.

    Parameters
    ----------
    inner:
        The physical backend.  Its page size must be exactly
        ``page_size + CHECKSUM_TRAILER_SIZE``; allocation state (free
        list, next id) lives in the backend — this wrapper only seals
        and verifies images.
    page_size:
        The logical page size exposed to the node store.  Defaults to
        the backend's page size minus the trailer.
    """

    def __init__(self, inner: PageFile, page_size: int | None = None) -> None:
        logical = (inner.page_size - CHECKSUM_TRAILER_SIZE
                   if page_size is None else page_size)
        if inner.page_size != logical + CHECKSUM_TRAILER_SIZE:
            raise StorageError(
                f"checksummed backend must use physical pages of "
                f"{logical + CHECKSUM_TRAILER_SIZE} bytes, got {inner.page_size}"
            )
        super().__init__(logical)
        self._inner = inner
        self.readonly = inner.readonly

    # -- allocation state is delegated wholesale to the backend --------

    @property
    def inner(self) -> PageFile:
        """The wrapped physical backend."""
        return self._inner

    def allocate(self) -> int:
        return self._inner.allocate()

    def free(self, page_id: int) -> None:
        self._inner.free(page_id)

    def ensure_allocated(self, page_id: int) -> None:
        self._inner.ensure_allocated(page_id)

    @property
    def allocated_pages(self) -> int:
        return self._inner.allocated_pages

    # -- sealed I/O ----------------------------------------------------

    def read(self, page_id: int) -> bytes:
        raw = self._inner.read(page_id)
        image = raw[: self._page_size]
        magic, version, _pad, stored = _TRAILER.unpack_from(raw, self._page_size)
        if magic != _MAGIC or version != _VERSION:
            self._fail(page_id, "missing or mangled checksum trailer")
        if zlib.crc32(image) & 0xFFFFFFFF != stored:
            self._fail(page_id, "CRC32 mismatch (torn or corrupt page)")
        return image

    def write(self, page_id: int, data: bytes) -> None:
        self._check_data(data)
        if len(data) < self._page_size:
            data = data + b"\x00" * (self._page_size - len(data))
        crc = zlib.crc32(data) & 0xFFFFFFFF
        self._inner.write(page_id, data + _TRAILER.pack(_MAGIC, _VERSION, 0, crc))

    @staticmethod
    def _fail(page_id: int, detail: str) -> None:
        from ..obs.hooks import on_checksum_failure

        on_checksum_failure(page_id)
        raise ChecksumError(page_id, detail)

    def _discard(self, page_id: int) -> None:  # pragma: no cover - delegated
        pass

    # -- lifecycle -----------------------------------------------------

    def sync(self) -> None:
        self._inner.sync()

    def close(self) -> None:
        self._inner.close()

    def __enter__(self) -> "ChecksumPageFile":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
