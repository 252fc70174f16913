"""Index registry used by the benchmark harness and the examples.

Maps the short names the paper uses in its figures to the index
classes, and provides a uniform "build an index over this data set"
entry point that hides the static/dynamic construction difference.

Keyword arguments are *uniform* across the families: every factory call
accepts ``page_size``, ``buffer_capacity`` and ``reinsert_fraction``
(each constructor's own names — there is one spelling), and an unknown
keyword is rejected with a did-you-mean error instead of the bare
``TypeError`` a blind ``**kwargs`` pass-through used to produce.

Saved indexes are re-opened through :class:`repro.api.Database`, which
arrives at :func:`_open_index` below — as the serving pools' workers
do: :func:`repro.storage.open_existing` turns the path into a recovered
page stack and its meta, the registry supplies the class, and the base
module's one restore routine builds the handle.
"""

from __future__ import annotations

import difflib
import inspect

import numpy as np

from ..storage import DEFAULT_BUFFER_CAPACITY, open_existing
from .base import SpatialIndex, _restore
from .kdb import KDBTree
from .linear import LinearScan
from .rstar import RStarTree
from .rtree import RTree
from .srtree import SRTree
from .srx import SRXTree
from .sstree import SSTree
from .vamsplit import VAMSplitRTree

__all__ = ["INDEX_KINDS", "make_index", "build_index"]

INDEX_KINDS: dict[str, type[SpatialIndex]] = {
    RTree.NAME: RTree,
    RStarTree.NAME: RStarTree,
    SSTree.NAME: SSTree,
    SRTree.NAME: SRTree,
    SRXTree.NAME: SRXTree,
    KDBTree.NAME: KDBTree,
    VAMSplitRTree.NAME: VAMSplitRTree,
    LinearScan.NAME: LinearScan,
}
"""Registry of every index family, keyed by its short name."""


def resolve_kind(kind: str) -> type[SpatialIndex]:
    """The index class for a registry name, with a did-you-mean error."""
    try:
        return INDEX_KINDS[kind]
    except KeyError:
        hint = difflib.get_close_matches(str(kind), INDEX_KINDS, n=1)
        suggestion = f" (did you mean {hint[0]!r}?)" if hint else ""
        raise ValueError(
            f"unknown index kind {kind!r}{suggestion}; "
            f"choose from {sorted(INDEX_KINDS)}"
        ) from None


def _allowed_kwargs(cls: type[SpatialIndex]) -> set[str]:
    """Constructor keywords ``cls`` accepts (its own plus the base's)."""
    names: set[str] = set()
    for owner in (cls, SpatialIndex):
        for name, param in inspect.signature(owner.__init__).parameters.items():
            if name in ("self", "dims") or param.kind in (
                inspect.Parameter.VAR_KEYWORD,
                inspect.Parameter.VAR_POSITIONAL,
            ):
                continue
            names.add(name)
    return names


def normalize_index_kwargs(cls: type[SpatialIndex], kwargs: dict) -> dict:
    """Reject keywords ``cls`` does not accept, with a close-match hint."""
    allowed = _allowed_kwargs(cls)
    for name in kwargs:
        if name not in allowed:
            hint = difflib.get_close_matches(name, allowed, n=1)
            suggestion = f"; did you mean {hint[0]!r}?" if hint else ""
            raise ValueError(
                f"{cls.__name__} got an unknown keyword {name!r}{suggestion} "
                f"(accepted: {sorted(allowed)})"
            )
    return dict(kwargs)


def make_index(kind: str, dims: int, **kwargs) -> SpatialIndex:
    """Instantiate an empty in-memory index of the given kind.

    ``kind`` is a registry name (:data:`INDEX_KINDS`); the remaining
    keyword arguments go to the index constructor (page size, buffer
    capacity, ...) once :func:`normalize_index_kwargs` has checked them.
    """
    cls = resolve_kind(kind)
    return cls(dims, **normalize_index_kwargs(cls, kwargs))


def build_index(kind: str, points, values=None, **kwargs) -> SpatialIndex:
    """Build an index of the given kind over a complete data set.

    Every family fills through :meth:`SpatialIndex.load`: the dynamic
    indexes insert the points one by one (as the paper's experiments
    do); the static VAMSplit R-tree's ``load`` is its bulk ``build``.
    """
    if np.ndim(points) != 2:
        # ``dims`` is read off the data here, and one row cannot say
        # whether it is a point or a column of them.
        raise ValueError("expected an (N, D) array of points")
    index = make_index(kind, np.shape(points)[1], **kwargs)
    index.load(points, values)
    return index


def _open_index(path, buffer_capacity: int | None = None, *,
                durability: str | None = None,
                sync_every: int = 1,
                fault_plan=None,
                readonly: bool = False) -> SpatialIndex:
    """Re-open a saved index from a page file on disk (internal).

    ``durability=None`` (default) re-opens in whatever mode the index
    was last saved with — read from the meta page *after* recovery;
    ``"wal"``/``"none"`` force the mode for this session.
    ``readonly=True`` opens the (recovered) file ``O_RDONLY`` instead
    of for writing: reads go through the buffer pool as on any handle,
    but all mutation raises.
    """
    pagefile, wal, _report, meta = open_existing(
        path, durability=durability, sync_every=sync_every,
        fault_plan=fault_plan, readonly=readonly,
    )
    cls = INDEX_KINDS.get(meta.get("index"))
    if cls is None:
        pagefile.close()
        if wal is not None:
            wal.close()
        raise ValueError(f"file holds an unknown index kind {meta.get('index')!r}")
    return _restore(cls, pagefile, buffer_capacity or DEFAULT_BUFFER_CAPACITY,
                    meta, wal=wal)
