"""Exception hierarchy for the :mod:`repro` library.

All library-raised errors derive from :class:`ReproError` so that callers can
catch everything coming out of the index layer with a single ``except``
clause while still being able to discriminate finer-grained failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class DimensionalityError(ReproError, ValueError):
    """A vector with the wrong number of dimensions was supplied.

    Raised, for example, when inserting an 8-dimensional point into an
    index built for 16-dimensional data.
    """


class StorageError(ReproError):
    """Base class for failures in the paged storage engine."""


class PageNotFoundError(StorageError, KeyError):
    """A page id was requested that has never been allocated."""


class PageOverflowError(StorageError, ValueError):
    """A serialized node did not fit into a single fixed-size page."""


class BufferPinError(StorageError, RuntimeError):
    """The buffer pool could not evict a page because every frame is pinned."""


class SerializationError(StorageError, ValueError):
    """A page image could not be decoded into a node."""


class ChecksumError(StorageError):
    """A page image failed its CRC32 verification on read.

    Raised by :class:`~repro.storage.checksums.ChecksumPageFile` when a
    stored page is torn (a crash interrupted the write) or corrupt (bit
    rot, a bad sector).  Recovery (:func:`repro.storage.wal.recover`)
    repairs any page covered by a committed WAL record; a checksum error
    that survives recovery is genuine data loss.
    """

    def __init__(self, page_id: int, detail: str = "checksum mismatch") -> None:
        super().__init__(f"page {page_id}: {detail}")
        self.page_id = page_id


class WALError(StorageError):
    """The write-ahead log is unusable (bad magic, impossible record)."""


class TransientIOError(StorageError, OSError):
    """A read failed in a way that is worth retrying (EIO, timeout).

    Emitted by the fault-injection harness and honored by
    :class:`~repro.exec.ServingPool`, which retries reads with
    backoff before the call raises :class:`ShardLostError`.
    """


class CrashError(StorageError, OSError):
    """The simulated process death of the fault-injection harness.

    Raised by :class:`~repro.storage.faults.FaultInjectingPageFile` (and
    the WAL, when it shares the same :class:`~repro.storage.faults.FaultPlan`)
    once the planned write budget is exhausted: the write that hit the
    budget may be torn, and every subsequent I/O fails.  Test harnesses
    catch it, abandon the handle, and re-open from disk.
    """


class IndexError_(ReproError):
    """Base class for index-structure level failures.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`IndexError`.
    """


class EmptyIndexError(IndexError_, LookupError):
    """A query requiring data (e.g. nearest neighbor) hit an empty index."""


class KeyNotFoundError(IndexError_, KeyError):
    """A deletion targeted a point that is not present in the index."""


class InvariantViolationError(IndexError_, AssertionError):
    """An internal structural invariant check failed.

    Raised only by the explicit ``check_invariants`` validators, never
    during normal operation; seeing this exception means the tree is
    corrupt (or the validator has found a genuine bug).
    """


class WorkloadError(ReproError, ValueError):
    """Invalid parameters were supplied to a workload generator."""


class NetError(ReproError):
    """Base class for network query-service failures (:mod:`repro.net`).

    Raised only on the *client* side: the server reports problems as
    HTTP statuses with a JSON error document, and
    :class:`~repro.net.client.RemoteDatabase` translates them back into
    exceptions — library errors (``ValueError``, ``EmptyIndexError``,
    ...) are re-raised as their local types so remote handles fail
    exactly like local ones, and transport-level conditions surface as
    the subclasses below.
    """


class ServerOverloadedError(NetError):
    """The server shed the request under admission control (HTTP 429/503).

    ``retry_after`` carries the server's ``Retry-After`` hint in
    seconds (``None`` when the server did not send one, e.g. while
    draining for shutdown).  The request was **not** executed; retrying
    after the hint is safe, including for mutations.
    """

    def __init__(self, message: str, retry_after: float | None = None) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class DeadlineExceededError(NetError):
    """The request's ``X-Repro-Deadline-Ms`` budget expired (HTTP 504).

    The server sheds deadline-expired requests *before* dispatching any
    work, so no partial mutation can have happened.
    """


class ShardLostError(ReproError):
    """A serving pool could not compute part of a call's answer.

    :class:`~repro.exec.ServingPool` raises it when a shard timed out,
    its worker died or its reads failed past the retries: a pool read
    answers whole or not at all.  ``lost`` is how many of the call's
    queries no worker computed.  It is not the caller's mistake, so it
    is not in :data:`RERAISABLE`;
    :class:`~repro.net.server.QueryServer` answers it with 504 when the
    request carried a deadline, else 503 with ``Retry-After: 1``.
    """

    def __init__(self, lost: int, total: int) -> None:
        super().__init__(f"{lost} of {total} queries were not computed: "
                         f"a serving-pool shard degraded")
        self.lost = lost


class RemoteError(NetError):
    """The server failed in a way with no local exception equivalent.

    ``remote_type`` preserves the server-side exception class name for
    diagnostics.
    """

    def __init__(self, message: str, remote_type: str | None = None) -> None:
        super().__init__(message)
        self.remote_type = remote_type


#: The classes an exception may cross a boundary as — the network (a
#: server's 400/405 error document, re-raised by
#: :class:`~repro.net.client.RemoteDatabase`) or a process-pool worker's
#: pipe (:mod:`repro.exec.procpool`).  The far side ships the *type
#: name* and the message; the near side re-raises ``RERAISABLE[name]``
#: and only ever instantiates a class it already trusts (a whitelist,
#: not ``getattr(builtins, ...)``).  Anything not listed is a defect
#: there, not a mistake here: HTTP 500 / ``RemoteError`` on the wire, a
#: ``RuntimeError`` carrying the worker's traceback on the pipe.
#: :class:`ShardLostError` is the pool's own refusal, not a caller's
#: error, and is left out.
RERAISABLE: dict[str, type] = {
    "ValueError": ValueError,
    "TypeError": TypeError,
    "KeyError": KeyError,
    "LookupError": LookupError,
    "NotImplementedError": NotImplementedError,
}
RERAISABLE.update({
    name: obj for name, obj in list(globals().items())
    if isinstance(obj, type) and issubclass(obj, ReproError)
    and obj is not ShardLostError
})
