"""Page files: fixed-size-block storage backends.

A page file is the "disk" of the storage engine: a flat array of
fixed-size pages addressed by integer page ids.  Three backends are
provided:

* :class:`InMemoryPageFile` — a dict of byte strings; fast, used by tests
  and the benchmark harness (the paper's disk-read counts are page-fetch
  counts, which this backend reproduces exactly);
* :class:`FilePageFile` — a real file on disk, page ``i`` at byte offset
  ``i * page_size``, giving genuine persistence (see
  ``examples/persistence.py``).  All I/O is positional (``os.pread`` /
  ``os.pwrite``), so concurrent readers never race on a shared file
  offset and every page transfer is one syscall.  Opened with
  ``readonly=True`` (``O_RDONLY``) it rejects every mutation — the
  backend :class:`~repro.exec.ServingPool`'s worker processes read
  through;
* :class:`MmapPageFile` — a **read-only** memory map of an existing
  file; :meth:`~MmapPageFile.read` returns ``memoryview`` slices of the
  map.  Nothing in the library opens one any more: a buffer pool that
  owns copies of its rows gains nothing from a map but a second,
  uncounted copy of every page it touched in the process's RSS.

Page 0 is reserved for index metadata (see
:data:`repro.storage.constants.META_PAGE_ID`); the allocators never hand
it out.
"""

from __future__ import annotations

import mmap
import os
import weakref
from abc import ABC, abstractmethod

from ..exceptions import PageNotFoundError, PageOverflowError, StorageError
from .constants import DEFAULT_PAGE_SIZE, META_PAGE_ID

__all__ = ["PageFile", "InMemoryPageFile", "FilePageFile", "MmapPageFile"]


class PageFile(ABC):
    """Abstract fixed-size-page storage backend."""

    #: Whether the backend rejects mutation (allocate/write/free raise).
    #: Wrappers (checksums, fault injection) mirror their inner backend.
    readonly: bool = False

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE) -> None:
        if page_size < 64:
            raise ValueError(f"page size too small: {page_size}")
        self._page_size = page_size
        self._free: list[int] = []
        self._next_id = META_PAGE_ID + 1

    @property
    def page_size(self) -> int:
        """Size of every page in bytes."""
        return self._page_size

    def _require_writable(self, what: str) -> None:
        if self.readonly:
            raise StorageError(
                f"{type(self).__name__} is read-only (attempted {what})"
            )

    def allocate(self) -> int:
        """Return a fresh (or recycled) page id.

        The page's content is undefined until the first write.
        """
        self._require_writable("allocate")
        if self._free:
            return self._free.pop()
        page_id = self._next_id
        self._next_id += 1
        return page_id

    def free(self, page_id: int) -> None:
        """Release a page id for reuse by later allocations."""
        self._require_writable(f"free of page {page_id}")
        self._check_id(page_id)
        self._discard(page_id)
        self._free.append(page_id)

    def ensure_allocated(self, page_id: int) -> None:
        """Extend the allocation horizon to cover ``page_id``.

        WAL recovery replays committed page images into a freshly opened
        backend whose next-id watermark was derived from the (possibly
        shorter) data file; this admits those pages for writing.  The
        page is also removed from the free list: a replayed page is
        live, and leaving it free would let a later :meth:`allocate`
        hand it out and overwrite committed data.
        """
        self._require_writable("ensure_allocated")
        if page_id >= self._next_id:
            self._next_id = page_id + 1
        elif page_id in self._free:
            self._free.remove(page_id)

    def _check_id(self, page_id: int) -> None:
        if page_id != META_PAGE_ID and not (0 < page_id < self._next_id):
            raise PageNotFoundError(page_id)

    def _check_data(self, data: bytes) -> None:
        if len(data) > self._page_size:
            raise PageOverflowError(
                f"page image is {len(data)} bytes, page size is {self._page_size}"
            )

    @property
    def allocated_pages(self) -> int:
        """Number of pages currently allocated (excluding the meta page)."""
        return self._next_id - 1 - len(self._free)

    @abstractmethod
    def read(self, page_id: int) -> bytes:
        """Return the current content of a page."""

    @abstractmethod
    def write(self, page_id: int, data: bytes) -> None:
        """Replace the content of a page (short images are zero-padded)."""

    @abstractmethod
    def _discard(self, page_id: int) -> None:
        """Backend hook invoked when a page is freed."""

    def sync(self) -> None:  # noqa: B027  (optional hook, default no-op)
        """Flush backend buffers to durable storage (no-op in memory)."""

    def close(self) -> None:  # noqa: B027
        """Release backend resources (no-op in memory)."""


class InMemoryPageFile(PageFile):
    """A page file held entirely in process memory."""

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE) -> None:
        super().__init__(page_size)
        self._pages: dict[int, bytes] = {}

    def read(self, page_id: int) -> bytes:
        self._check_id(page_id)
        try:
            return self._pages[page_id]
        except KeyError:
            raise PageNotFoundError(page_id) from None

    def write(self, page_id: int, data: bytes) -> None:
        self._check_id(page_id)
        self._check_data(data)
        self._pages[page_id] = bytes(data)

    def _discard(self, page_id: int) -> None:
        self._pages.pop(page_id, None)


class FilePageFile(PageFile):
    """A page file backed by a real file on disk.

    Page ``i`` lives at byte offset ``i * page_size``.  The free list is
    kept in memory only; an index that wants durable metadata stores it
    in the reserved meta page (page 0).

    All I/O uses positional syscalls (``os.pread`` / ``os.pwrite``), so
    there is no shared file offset to race on: two threads reading
    different pages through the same handle each issue one atomic
    positional read, where the old ``seek()`` + ``read()`` pair could
    interleave and hand a thread the wrong page (and cost a second
    syscall besides).

    With ``readonly=True`` the existing file is opened ``O_RDONLY`` and
    :meth:`allocate`, :meth:`write`, :meth:`free` and
    :meth:`ensure_allocated` raise :class:`~repro.exceptions.StorageError`.
    Any write-ahead log must be recovered into the file *before* such a
    handle opens it (:func:`repro.storage.stack.open_existing` with
    ``readonly=True`` does this).  The descriptor is closed by
    :meth:`close` or, for a handle nobody closed, when it is collected.
    """

    def __init__(self, path: str | os.PathLike, page_size: int = DEFAULT_PAGE_SIZE,
                 create: bool = True, readonly: bool = False) -> None:
        super().__init__(page_size)
        self._path = os.fspath(path)
        self.readonly = readonly
        exists = os.path.exists(self._path)
        if not exists and (readonly or not create):
            raise FileNotFoundError(self._path)
        flags = ((os.O_RDONLY if readonly else os.O_RDWR)
                 | getattr(os, "O_BINARY", 0))
        if not exists:
            flags |= os.O_CREAT
        self._fd: int | None = os.open(self._path, flags, 0o644)
        self._closer = weakref.finalize(self, os.close, self._fd)
        if exists:
            size = os.path.getsize(self._path)
            self._next_id = max(META_PAGE_ID + 1, size // page_size)
        else:
            # Reserve the meta page immediately so offsets are stable.
            self._pwrite_all(b"\x00" * page_size, 0)

    @property
    def path(self) -> str:
        """Filesystem path of the backing file."""
        return self._path

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._fd is None

    def _require_open(self) -> int:
        if self._fd is None:
            raise StorageError(f"page file {self._path} is closed")
        return self._fd

    def _pwrite_all(self, data: bytes, offset: int) -> None:
        fd = self._require_open()
        written = 0
        while written < len(data):
            written += os.pwrite(fd, data[written:], offset + written)

    def read(self, page_id: int) -> bytes:
        self._check_id(page_id)
        data = os.pread(self._require_open(), self._page_size,
                        page_id * self._page_size)
        if len(data) < self._page_size:
            raise PageNotFoundError(page_id)
        return data

    def write(self, page_id: int, data: bytes) -> None:
        self._require_writable(f"write of page {page_id}")
        self._check_id(page_id)
        self._check_data(data)
        if len(data) < self._page_size:
            data = data + b"\x00" * (self._page_size - len(data))
        self._pwrite_all(data, page_id * self._page_size)

    def _discard(self, page_id: int) -> None:
        # Disk pages keep their stale bytes until reallocated; nothing to do.
        pass

    def sync(self) -> None:
        if not self.readonly:
            os.fsync(self._require_open())

    def close(self) -> None:
        if self._fd is not None:
            self._fd = None
            self._closer()

    def __enter__(self) -> "FilePageFile":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class MmapPageFile(PageFile):
    """A read-only page file over a memory-mapped index file.

    :meth:`read` returns a ``memoryview`` slice of the mapping, out of
    which :meth:`repro.storage.serializer.NodeCodec.decode` copies the
    live rows of each entry block; no decoded node holds on to the map.
    No stack is built on it any more: under a buffer pool whose frames
    own their rows, the map only adds the pages it touched to the
    process's RSS, and a read-only :class:`FilePageFile` serves the same
    pages from the same OS page cache.

    The backend is strictly read-only: :meth:`allocate`, :meth:`write`,
    :meth:`free` and :meth:`ensure_allocated` raise
    :class:`~repro.exceptions.StorageError`.
    """

    readonly = True

    def __init__(self, path: str | os.PathLike,
                 page_size: int = DEFAULT_PAGE_SIZE) -> None:
        super().__init__(page_size)
        self._path = os.fspath(path)
        fd = os.open(self._path, os.O_RDONLY | getattr(os, "O_BINARY", 0))
        try:
            size = os.fstat(fd).st_size
            if size < page_size:
                raise StorageError(
                    f"cannot mmap {self._path}: file holds no complete page "
                    f"({size} bytes, page size {page_size})"
                )
            self._mmap = mmap.mmap(fd, 0, access=mmap.ACCESS_READ)
        finally:
            os.close(fd)
        self._view: memoryview | None = memoryview(self._mmap)
        self._next_id = max(META_PAGE_ID + 1, size // page_size)

    @property
    def path(self) -> str:
        """Filesystem path of the mapped file."""
        return self._path

    def read(self, page_id: int) -> memoryview:
        self._check_id(page_id)
        view = self._view
        if view is None:
            raise StorageError(f"mmap page file {self._path} is closed")
        offset = page_id * self._page_size
        data = view[offset : offset + self._page_size]
        if len(data) < self._page_size:
            raise PageNotFoundError(page_id)
        return data

    def write(self, page_id: int, data: bytes) -> None:
        self._require_writable(f"write of page {page_id}")

    def _discard(self, page_id: int) -> None:  # pragma: no cover - unreachable
        pass

    def close(self) -> None:
        """Release the mapping (best effort).

        Decoded nodes own copies of their rows, so no node pins the map.
        A caller that still holds a slice :meth:`read` returned (or an
        ``np.frombuffer`` view of one) makes ``mmap.close()`` refuse
        with ``BufferError``; the mapping then stays resident until that
        view is garbage collected — readers never observe a dangling
        pointer.
        """
        if self._view is None:
            return
        self._view.release()
        self._view = None
        try:
            self._mmap.close()
        except BufferError:
            # A caller-held slice or view pins the map; the OS unmaps
            # it when the last one dies.
            pass

    def __enter__(self) -> "MmapPageFile":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
