"""The formal wire protocol shared by :class:`QueryServer` and
:class:`RemoteDatabase`.

One HTTP/1.1 service under ``/v1``:

=====================  ======  =============================================
endpoint               method  body
=====================  ======  =============================================
``/v1/server``         GET     — (service descriptor: protocol, dims, ...)
``/v1/knn``            POST    matrix frames: points ``(Q, D)``, k ``(Q,)``
``/v1/range``          POST    matrix frames: points ``(Q, D)``, radius
                               ``(Q,)``
``/v1/window``         POST    matrix frames: low ``(D,)``, high ``(D,)``
``/v1/lookup``         POST    matrix frame: point ``(1, D)``
``/v1/stats``          GET     —
``/v1/explain``        POST    matrix frames: point ``(1, D)``, k ``(1,)``
``/v1/insert``         POST    matrix frame: point ``(1, D)``; values part
                               ``[value]``? (auth)
``/v1/insert_many``    POST    matrix frame: points ``(N, D)``; values part
                               ``[N values]``? (auth)
``/v1/delete``         POST    matrix frame: point ``(1, D)``; values part
                               ``[value]``? (auth)
=====================  ======  =============================================

One encoding for each thing: every request body is matrix frames — a
single ``knn``/``range`` query being a one-row batch — and a mutation
may add one values part after its points; every neighbor list comes
back as one neighbor block; every other answer, control document and
error is JSON.  No values part means no value: ``insert`` stores
``None``, ``insert_many`` stores row indices and ``delete`` removes a
copy whatever its value; a values part ``[null]`` means the value
``None``.

Headers:

* ``X-Repro-Deadline-Ms`` — the client's remaining latency budget in
  milliseconds.  The server sheds the request (504) if the budget is
  already spent on arrival or expires while queued, and propagates the
  remainder into the serving pools' per-call ``timeout=``.
* ``X-Repro-Token`` — the shared secret required by mutation endpoints.

Statuses: ``200`` success; ``400`` invalid request (the JSON error
document's ``error_type`` names the library exception to re-raise
client-side); ``401`` bad/missing token; ``403`` mutations disabled;
``404`` unknown endpoint; ``405`` operation unsupported by the served
handle; ``413`` oversized body (this and the 400 for a body that cannot
be framed come from :mod:`repro.httpd`, before the server sees the
request); ``429`` shed by admission control
(``Retry-After`` set); ``503`` draining for shutdown; ``504`` deadline
expired.

**Matrix frame** (``Content-Type:`` :data:`BINARY_CONTENT_TYPE`; a
body is its frames back to back, then a mutation's optional values
part, nothing after)::

    b"RPM1" | u8 dtype | u8 ndim | u16 pad | ndim * u64 shape | raw LE data

**JSON part** — a mutation's values part, the prelude of a neighbor
block, and the head of every message on a serving pool's pipe::

    u32 json_len | UTF-8 JSON

**Neighbor block** (:data:`NEIGHBORS_CONTENT_TYPE`): every result list
of a call in two ndarrays plus one JSON part for the payload values::

    b"RPN1" | JSON part {"counts": [...], "values": [[...], ...]}
            | matrix(distances, (total,)) | matrix(points, (total, D))

Frames and blocks are versioned by their magic; unknown magic, a
length lie, a JSON part that is not JSON or a shape that does not add
up raises :class:`~repro.exceptions.NetError` rather than guessing.

A serving pool's pipe (:mod:`repro.exec.procpool`) speaks the same
formats: a request is a JSON part ``{"op", "block_size"}`` then the
frames ``/v1/<op>`` takes, read by :func:`decode_frames` as a request
body is; an answer is a JSON part (block times, I/O counters, counter
deltas, flight records) then one neighbor block; a refusal is one JSON
part in :func:`error_doc`'s shape.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from ..exceptions import NetError
from ..indexes.base import Neighbor

__all__ = [
    "PROTOCOL_VERSION",
    "DEADLINE_HEADER",
    "TOKEN_HEADER",
    "JSON_CONTENT_TYPE",
    "BINARY_CONTENT_TYPE",
    "NEIGHBORS_CONTENT_TYPE",
    "READ_ENDPOINTS",
    "WRITE_ENDPOINTS",
    "ENDPOINTS",
    "encode_matrix",
    "decode_matrix",
    "encode_json",
    "decode_json",
    "decode_frames",
    "encode_neighbor_block",
    "decode_neighbor_block",
    "error_doc",
]

PROTOCOL_VERSION = 4

DEADLINE_HEADER = "X-Repro-Deadline-Ms"
TOKEN_HEADER = "X-Repro-Token"

JSON_CONTENT_TYPE = "application/json"
BINARY_CONTENT_TYPE = "application/x-repro-matrix"
NEIGHBORS_CONTENT_TYPE = "application/x-repro-neighbors"

#: Read endpoints, available on every served handle kind.
READ_ENDPOINTS = (
    "server", "knn", "range", "window", "lookup", "stats", "explain",
)
#: Mutation endpoints; require an auth token and a mutable source.
WRITE_ENDPOINTS = ("insert", "insert_many", "delete")
ENDPOINTS = READ_ENDPOINTS + WRITE_ENDPOINTS

_MATRIX_MAGIC = b"RPM1"
_NEIGHBORS_MAGIC = b"RPN1"
_DTYPES = {0: np.dtype("<f8"), 1: np.dtype("<f4"), 2: np.dtype("<i8")}
_DTYPE_CODES = {dtype: code for code, dtype in _DTYPES.items()}
_MATRIX_HEADER = struct.Struct("<4sBBH")


def encode_matrix(array) -> bytes:
    """Serialize an ndarray into the binary matrix frame.

    The frame keeps the array's shape, a 0-d one's included (no shape
    words); ``tobytes`` writes any layout in C order.
    """
    array = np.asarray(array)
    dtype = array.dtype.newbyteorder("<")
    if dtype not in _DTYPE_CODES:
        array = np.asarray(array, dtype=np.float64)
        dtype = np.dtype("<f8")
    code = _DTYPE_CODES[dtype]
    header = _MATRIX_HEADER.pack(_MATRIX_MAGIC, code, array.ndim, 0)
    shape = struct.pack(f"<{array.ndim}Q", *array.shape)
    return header + shape + array.astype(dtype, copy=False).tobytes()


def decode_matrix(payload: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
    """Decode one matrix frame; returns ``(array, next_offset)``.

    The returned array is a read-only zero-copy view over ``payload``
    when alignment allows (the same ``np.frombuffer`` discipline the
    page decoder uses).
    """
    end = offset + _MATRIX_HEADER.size
    if len(payload) < end:
        raise NetError("truncated matrix frame (short header)")
    magic, code, ndim, _pad = _MATRIX_HEADER.unpack_from(payload, offset)
    if magic != _MATRIX_MAGIC:
        raise NetError(f"bad matrix frame magic {magic!r}")
    if code not in _DTYPES:
        raise NetError(f"unknown matrix dtype code {code}")
    shape_end = end + 8 * ndim
    if len(payload) < shape_end:
        raise NetError("truncated matrix frame (short shape)")
    shape = struct.unpack_from(f"<{ndim}Q", payload, end)
    dtype = _DTYPES[code]
    # Python integers: a lying shape cannot wrap around to a small count.
    count = math.prod(shape)
    data_end = shape_end + count * dtype.itemsize
    if len(payload) < data_end:
        raise NetError("truncated matrix frame (short data)")
    try:
        array = np.frombuffer(
            payload, dtype=dtype, count=count, offset=shape_end
        ).reshape(shape)
    except ValueError as exc:  # an empty shape with a dimension numpy refuses
        raise NetError(f"bad matrix frame shape {shape}: {exc}") from None
    return array, data_end


def _json_scalar(value):
    """``json.dumps``' fallback: a numpy scalar as its Python scalar."""
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _check_json_value(value) -> None:
    """Reject a payload value the JSON wire format cannot round-trip."""
    try:
        json.dumps(value, default=_json_scalar)
    except (TypeError, ValueError):
        raise NetError(
            f"payload value {value!r} is not JSON-representable; the "
            f"network protocol carries JSON payload values only"
        ) from None


def encode_json(doc, values) -> bytes:
    """``doc`` as one JSON part: ``u32 json_len | UTF-8 JSON``.

    ``values`` are the payload values inside ``doc``: when the encode
    fails, the first of them JSON cannot carry is named in a
    :class:`NetError`.  A numpy scalar goes as its Python scalar.
    """
    try:
        text = json.dumps(doc, default=_json_scalar)
    except (TypeError, ValueError):
        for value in values:
            _check_json_value(value)
        raise
    data = text.encode("utf-8")
    return struct.pack("<I", len(data)) + data


def decode_json(payload: bytes, offset: int = 0):
    """Decode one JSON part; returns ``(document, next_offset)``."""
    start = offset + 4
    if len(payload) < start:
        raise NetError("truncated JSON part (short length)")
    (length,) = struct.unpack_from("<I", payload, offset)
    end = start + length
    if len(payload) < end:
        raise NetError("truncated JSON part (short data)")
    try:
        doc = json.loads(payload[start:end])
    except (ValueError, RecursionError) as exc:  # not JSON, or past a limit
        raise NetError(f"JSON part is not JSON: {exc}") from None
    return doc, end


def decode_frames(payload: bytes, count: int, offset: int = 0, *,
                  values: bool = False) -> list:
    """The ``count`` matrix frames of ``payload`` from ``offset`` on,
    then, with ``values``, its values part (a JSON list) or ``None``.

    This is how a request body is read, over HTTP and over a serving
    pool's pipe alike: a ``knn``/``range`` body is its points then its
    ``k`` or radius, one per row; ``explain``'s is its point then its
    ``k``; ``window``'s is its low then its high corner; ``lookup``'s is
    its point alone, and a mutation's its points and maybe its values.
    A missing frame, a values part that is not a list or a byte after
    the last part raises :class:`NetError`.
    """
    frames = []
    for _ in range(count):
        array, offset = decode_matrix(payload, offset)
        frames.append(array)
    if values:
        part = None
        if offset < len(payload):
            part, offset = decode_json(payload, offset)
            if not isinstance(part, list):
                raise NetError(f"the values part must be a JSON list, got "
                               f"{type(part).__name__}")
        frames.append(part)
    if offset != len(payload):
        raise NetError(f"{len(payload) - offset} byte(s) after the last of "
                       f"{count} matrix frame(s)")
    return frames


def encode_neighbor_block(results: list[list[Neighbor]]) -> bytes:
    """Serialize batched results into the binary neighbor-block frame."""
    counts = [len(r) for r in results]
    values = [[n.value for n in r] for r in results]
    prelude = encode_json({"counts": counts, "values": values},
                          (value for row in values for value in row))
    flat = [n for r in results for n in r]
    distances = np.array([n.distance for n in flat], dtype=np.float64)
    if flat:
        points = np.array([n.point for n in flat], dtype=np.float64)
    else:
        points = np.empty((0, 0), dtype=np.float64)
    return b"".join([
        _NEIGHBORS_MAGIC,
        prelude,
        encode_matrix(distances),
        encode_matrix(points),
    ])


def decode_neighbor_block(payload: bytes) -> list[list[Neighbor]]:
    """Decode the binary neighbor-block frame back into result lists.

    A block whose parts do not add up — a prelude that is not the
    ``counts``/``values`` object, a row of values of another length than
    its count, distances or points other than one per neighbor, bytes
    after the points — raises :class:`NetError`.
    """
    if payload[:4] != _NEIGHBORS_MAGIC:
        raise NetError("bad neighbor-block frame magic")
    prelude, prelude_end = decode_json(payload, 4)
    counts = prelude.get("counts") if isinstance(prelude, dict) else None
    values = prelude.get("values") if isinstance(prelude, dict) else None
    if not (isinstance(counts, list) and isinstance(values, list)
            and len(counts) == len(values)
            and all(type(c) is int and c >= 0 and isinstance(v, list)
                    and len(v) == c for c, v in zip(counts, values))):
        raise NetError("neighbor-block prelude must be {\"counts\": [n, ...], "
                       "\"values\": [[n values], ...]}")
    distances, offset = decode_matrix(payload, prelude_end)
    points, offset = decode_matrix(payload, offset)
    total = sum(counts)
    if (distances.shape != (total,) or points.ndim != 2
            or points.shape[0] != total):
        raise NetError(
            f"neighbor block of {total} neighbors carries distances "
            f"{distances.shape} and points {points.shape}")
    if offset != len(payload):
        raise NetError(f"{len(payload) - offset} byte(s) after the "
                       f"neighbor block")
    # One copy of the points: each neighbor's point is a writable row of
    # it, not a view into the response bytes.
    rows = list(np.array(points, dtype=np.float64))
    distances = distances.astype(np.float64, copy=False).tolist()
    results: list[list[Neighbor]] = []
    row = 0
    for count, value_row in zip(counts, values):
        end = row + count
        results.append(list(map(Neighbor, distances[row:end], rows[row:end],
                                value_row)))
        row = end
    return results


def error_doc(exc: BaseException) -> dict:
    """The JSON error document for a server-side exception."""
    return {"error": str(exc), "error_type": type(exc).__name__}
