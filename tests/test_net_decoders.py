"""Generated tests for the wire decoders a client trusts a server with.

``RemoteDatabase`` turns every neighbor list it receives into Python
objects with :func:`~repro.net.protocol.decode_neighbor_block`, and a
batch body is matrix frames (:func:`~repro.net.protocol.decode_matrix`).
A server that lies — a cut response, a flipped byte, a length or shape
word that does not add up — must cost the client a
:class:`~repro.exceptions.NetError`, or at worst an answer that is
well formed; never another exception type from deep in numpy or
``json``.

Hypothesis writes the honest side: result lists of 0-30 neighbors per
query in 1-8 dimensions with ``int``/``str``/``None`` payload values,
and matrices of 0-3 dimensions in each wire dtype.  The oracle:

* an honest encode decodes bit-equal (distances and points compared as
  bits, so NaN payloads and signed zeros count);
* every truncation, every single-byte flip and every lie told by a
  length or shape word of a valid block or frame, or by the prelude's
  per-query counts, raises ``NetError``
  or decodes to well-formed lists: every neighbor the block carries in
  exactly one list, every point of one dimensionality (a frame: an
  array and an offset inside the payload).

``make test-net`` runs them deeper (``--hypothesis-profile=deep``).
"""

from __future__ import annotations

import json
import struct

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.exceptions import NetError
from repro.indexes.base import Neighbor
from repro.net.protocol import (
    decode_matrix,
    decode_neighbor_block,
    encode_matrix,
    encode_neighbor_block,
)

#: Values a length or shape word is replaced with, beside the true
#: value's neighbours.
LIES = (0, 1, 2**31, 2**32 - 1, 2**53, 2**63 - 1, 2**63, 2**64 - 1)


def _budget(examples: int) -> settings:
    deep = settings.get_current_profile_name() == "deep"
    return settings(max_examples=10 * examples if deep else examples,
                    deadline=None, derandomize=not deep,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.data_too_large])


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

FLOATS = st.floats(allow_nan=True, allow_infinity=True, width=64)
VALUES = st.one_of(st.none(), st.integers(), st.text(max_size=12))


@st.composite
def result_lists(draw) -> list[list[Neighbor]]:
    dims = draw(st.integers(1, 8))
    queries = draw(st.integers(0, 3))
    results = []
    for _ in range(queries):
        k = draw(st.integers(0, 30))
        points = draw(hnp.arrays(np.float64, (k, dims), elements=FLOATS))
        results.append([Neighbor(draw(FLOATS), points[i], draw(VALUES))
                        for i in range(k)])
    return results


MATRICES = hnp.arrays(
    st.sampled_from([np.dtype("<f8"), np.dtype("<f4"), np.dtype("<i8")]),
    hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5))


# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _well_formed(results, payload: bytes) -> None:
    """Lists of neighbors of one dimensionality, holding every neighbor
    the block's distance frame carries, each once."""
    assert isinstance(results, list)
    prelude_end = 8 + struct.unpack_from("<I", payload, 4)[0]
    distances, _ = decode_matrix(payload, prelude_end)
    assert sum(map(len, results)) == len(distances)
    widths = set()
    for row in results:
        assert isinstance(row, list)
        for neighbor in row:
            assert isinstance(neighbor, Neighbor)
            assert type(neighbor.distance) is float
            point = neighbor.point
            assert isinstance(point, np.ndarray)
            assert point.dtype == np.float64 and point.ndim == 1
            widths.add(point.shape[0])
    assert len(widths) <= 1  # one dimensionality per block


def _decode_or_net_error(payload: bytes) -> None:
    try:
        results = decode_neighbor_block(payload)
    except NetError:
        return
    _well_formed(results, payload)


def _frame_or_net_error(payload: bytes) -> None:
    try:
        array, offset = decode_matrix(payload)
    except NetError:
        return
    assert isinstance(array, np.ndarray)
    assert offset <= len(payload)
    assert array.nbytes <= len(payload)


def _mutants(payload: bytes, mask: int):
    """Every truncation and every single-byte flip of ``payload``."""
    for cut in range(len(payload)):
        yield payload[:cut]
    for at in range(len(payload)):
        flipped = bytearray(payload)
        flipped[at] ^= mask
        yield bytes(flipped)


def _word_lies(payload: bytes, offset: int, fmt: str):
    """``payload`` with the word at ``offset`` replaced by each lie."""
    (true,) = struct.unpack_from(fmt, payload, offset)
    limit = 2 ** (8 * struct.calcsize(fmt))
    for lie in {*LIES, true - 1, true + 1, 2 * true}:
        if 0 <= lie < limit and lie != true:
            lying = bytearray(payload)
            struct.pack_into(fmt, lying, offset, lie)
            yield bytes(lying)


def _prelude_lies(block: bytes):
    """``block`` with a prelude whose counts do not match its values: a
    count off by one, a row of values one long or one short, or one
    neighbor moved to the next row's count (the total still adds up)."""
    end = 8 + struct.unpack_from("<I", block, 4)[0]
    doc = json.loads(block[8:end])
    counts, values = doc["counts"], doc["values"]
    for row in range(len(counts)):
        lies = [(counts[:row] + [counts[row] + 1] + counts[row + 1:], values),
                (counts, values[:row] + [values[row] + [None]]
                 + values[row + 1:])]
        if counts[row]:
            lies.append((counts[:row] + [counts[row] - 1] + counts[row + 1:],
                         values))
            lies.append((counts, values[:row] + [values[row][1:]]
                         + values[row + 1:]))
            if row + 1 < len(counts):
                moved = list(counts)
                moved[row] -= 1
                moved[row + 1] += 1
                lies.append((moved, values))
        for lying_counts, lying_values in lies:
            prelude = json.dumps({"counts": lying_counts,
                                  "values": lying_values}).encode()
            yield (block[:4] + struct.pack("<I", len(prelude)) + prelude
                   + block[end:])


def _frame_words(payload: bytes, offset: int):
    """(offset, format) of a matrix frame's ndim byte and shape words."""
    ndim = payload[offset + 5]
    yield offset + 5, "<B"
    for axis in range(ndim):
        yield offset + 8 + 8 * axis, "<Q"


def _frame_end(payload: bytes, offset: int) -> int:
    return decode_matrix(payload, offset)[1]


# ---------------------------------------------------------------------------
# Neighbor blocks
# ---------------------------------------------------------------------------


@_budget(60)
@given(results=result_lists())
def test_neighbor_block_round_trips_bit_equal(results):
    decoded = decode_neighbor_block(encode_neighbor_block(results))
    assert len(decoded) == len(results)
    for got_row, want_row in zip(decoded, results):
        assert len(got_row) == len(want_row)
        for got, want in zip(got_row, want_row):
            assert _bits(got.distance) == _bits(want.distance)
            assert got.point.tobytes() == want.point.tobytes()
            assert type(got.value) is type(want.value)
            assert got.value == want.value


@_budget(15)
@given(results=result_lists(), mask=st.integers(1, 255))
def test_a_cut_or_flipped_neighbor_block_is_a_net_error(results, mask):
    for payload in _mutants(encode_neighbor_block(results), mask):
        _decode_or_net_error(payload)


@_budget(40)
@given(results=result_lists())
def test_a_neighbor_block_whose_lengths_lie_is_a_net_error(results):
    block = encode_neighbor_block(results)
    lies = list(_word_lies(block, 4, "<I"))  # the prelude length
    prelude_end = 8 + struct.unpack_from("<I", block, 4)[0]
    points_at = _frame_end(block, prelude_end)
    for frame in (prelude_end, points_at):
        for offset, fmt in _frame_words(block, frame):
            lies.extend(_word_lies(block, offset, fmt))
    lies.extend(_prelude_lies(block))
    for payload in lies:
        _decode_or_net_error(payload)


# ---------------------------------------------------------------------------
# Matrix frames
# ---------------------------------------------------------------------------


@_budget(60)
@given(array=MATRICES)
def test_matrix_frame_round_trips_bit_equal(array):
    frame = encode_matrix(array)
    decoded, offset = decode_matrix(frame)
    assert offset == len(frame)
    assert decoded.dtype == array.dtype and decoded.shape == array.shape
    assert decoded.tobytes() == array.tobytes()


@_budget(25)
@given(array=MATRICES, mask=st.integers(1, 255))
def test_a_cut_flipped_or_lying_matrix_frame_is_a_net_error(array, mask):
    frame = encode_matrix(array)
    for payload in _mutants(frame, mask):
        _frame_or_net_error(payload)
    for offset, fmt in _frame_words(frame, 0):
        for payload in _word_lies(frame, offset, fmt):
            _frame_or_net_error(payload)
