"""Checksummed pages: CRC32 sealing, bit-flip and torn-page detection."""

from __future__ import annotations

import pytest

from repro.exceptions import ChecksumError, StorageError
from repro.storage import (
    CHECKSUM_TRAILER_SIZE,
    ChecksumPageFile,
    InMemoryPageFile,
    open_pagefile,
)

PAGE = 128  # tiny logical pages keep the every-offset sweep cheap
PHYSICAL = PAGE + CHECKSUM_TRAILER_SIZE


def make_sealed(image: bytes):
    """An in-memory checksummed page file holding ``image`` at page 1."""
    inner = InMemoryPageFile(PHYSICAL)
    sealed = ChecksumPageFile(inner, PAGE)
    inner.ensure_allocated(1)
    sealed.write(1, image)
    return inner, sealed


def test_round_trip_pads_to_page_size():
    _inner, sealed = make_sealed(b"hello world")
    out = sealed.read(1)
    assert len(out) == PAGE
    assert out.startswith(b"hello world")
    assert out[11:] == b"\x00" * (PAGE - 11)


def test_physical_page_carries_trailer():
    inner, _sealed = make_sealed(b"x" * PAGE)
    raw = inner.read(1)
    assert len(raw) == PHYSICAL
    assert raw[PAGE : PAGE + 2] == b"Ck"


def test_logical_page_size_is_unchanged():
    # The node layout (and hence every fanout the paper reports) sees the
    # logical size; the 8-byte trailer lives outside it.
    _inner, sealed = make_sealed(b"")
    assert sealed.page_size == PAGE


def test_bit_flip_at_every_byte_offset_is_detected():
    """Flipping one bit at *any* physical offset must raise ChecksumError.

    This covers the image (CRC mismatch), the magic/version bytes
    (mangled trailer), and the stored CRC itself.
    """
    image = bytes(range(PAGE % 256)) * (PAGE // max(1, PAGE % 256) + 1)
    image = image[:PAGE]
    for offset in range(PHYSICAL):
        inner, sealed = make_sealed(image)
        raw = bytearray(inner.read(1))
        raw[offset] ^= 0x01
        # reserved/pad byte is the one trailer byte the format does not
        # police; everything else must fail closed.
        inner.write(1, bytes(raw))
        if offset == PAGE + 3:  # the reserved pad byte
            sealed.read(1)
            continue
        with pytest.raises(ChecksumError):
            sealed.read(1)


def test_torn_page_is_detected():
    inner, sealed = make_sealed(b"A" * PAGE)
    old = inner.read(1)
    sealed.write(1, b"B" * PAGE)
    new = inner.read(1)
    # Splice a prefix of the new physical image onto the old tail, as a
    # crash mid-write would.
    torn = new[: PHYSICAL // 2] + old[PHYSICAL // 2 :]
    inner.write(1, torn)
    with pytest.raises(ChecksumError):
        sealed.read(1)


def test_checksum_error_names_the_page():
    inner, sealed = make_sealed(b"A" * PAGE)
    raw = bytearray(inner.read(1))
    raw[0] ^= 0xFF
    inner.write(1, bytes(raw))
    with pytest.raises(ChecksumError, match="page 1"):
        sealed.read(1)


def test_checksum_failures_metric_counts():
    from repro.obs.hooks import CHECKSUM_FAILURES

    before = CHECKSUM_FAILURES.value
    inner, sealed = make_sealed(b"A" * PAGE)
    raw = bytearray(inner.read(1))
    raw[5] ^= 0x10
    inner.write(1, bytes(raw))
    with pytest.raises(ChecksumError):
        sealed.read(1)
    assert CHECKSUM_FAILURES.value == before + 1


def test_mismatched_backend_page_size_rejected():
    inner = InMemoryPageFile(PAGE)  # missing the trailer allowance
    with pytest.raises(StorageError):
        ChecksumPageFile(inner, PAGE)


def test_open_pagefile_builds_checksummed_stack(tmp_path):
    """Every stack is sealed: a file's, and an in-memory one's."""
    memory = open_pagefile(None, page_size=PAGE)
    assert isinstance(memory, ChecksumPageFile) and memory.inner.page_size == PHYSICAL
    path = tmp_path / "sealed.db"
    pf = open_pagefile(path, page_size=PAGE)
    assert isinstance(pf, ChecksumPageFile) and pf.page_size == PAGE
    pid = pf.allocate()
    pf.write(pid, b"payload")
    assert pf.read(pid).startswith(b"payload")
    pf.close()
    # The physical file uses the enlarged pages.
    assert (path.stat().st_size % PHYSICAL) == 0
