"""Index registry used by the benchmark harness and the examples.

Maps the short names the paper uses in its figures to the index
classes, and provides a uniform "build an index over this data set"
entry point that hides the static/dynamic construction difference.

Keyword arguments are *uniform* across the families: every factory call
accepts the canonical spellings ``page_size``, ``buffer_pages`` and
``reinsert_fraction`` (plus the historical ``buffer_capacity``
frame-count form), and an unknown keyword is rejected with a
did-you-mean error instead of the bare ``TypeError`` a blind
``**kwargs`` pass-through used to produce.

Saved indexes are re-opened through :class:`repro.api.Database`, which
adds checksums, WAL recovery, and a uniform query surface.
"""

from __future__ import annotations

import difflib
import inspect
import time

import numpy as np

from ..obs.hooks import on_build
from .base import SpatialIndex
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
    """Translate canonical factory keywords and reject unknown ones.

    * ``buffer_pages`` (canonical) ⇄ ``buffer_capacity`` (legacy alias,
      both are frame counts; passing both is an error);
    * anything the constructor does not accept raises ``ValueError``
      with a close-match suggestion.
    """
    out = dict(kwargs)
    if "buffer_pages" in out:
        if "buffer_capacity" in out:
            raise ValueError(
                "pass either buffer_pages or buffer_capacity, not both "
                "(they are the same knob; buffer_pages is canonical)"
            )
        out["buffer_capacity"] = out.pop("buffer_pages")
    allowed = _allowed_kwargs(cls)
    aliases = {"buffer_pages"}
    for name in out:
        if name not in allowed:
            hint = difflib.get_close_matches(name, allowed | aliases, n=1)
            suggestion = f"; did you mean {hint[0]!r}?" if hint else ""
            raise ValueError(
                f"{cls.__name__} got an unknown keyword {name!r}{suggestion} "
                f"(accepted: {sorted(allowed | aliases)})"
            )
    return out


def make_index(kind: str, dims: int, **kwargs) -> SpatialIndex:
    """Instantiate an empty index of the given kind.

    ``kind`` is one of ``rstar``, ``sstree``, ``srtree``, ``kdb``,
    ``vamsplit``, or ``linear``; remaining keyword arguments are passed
    to the index constructor (page size, buffer pages, ...) after the
    canonical-name translation of :func:`normalize_index_kwargs`.
    """
    cls = resolve_kind(kind)
    return cls(dims, **normalize_index_kwargs(cls, kwargs))


def build_index(kind: str, points, values=None, **kwargs) -> SpatialIndex:
    """Build an index of the given kind over a complete data set.

    Dynamic indexes insert the points one by one (as the paper's
    experiments do); the static VAMSplit R-tree bulk-loads them.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("expected an (N, D) array of points")
    index = make_index(kind, points.shape[1], **kwargs)
    start = time.perf_counter()
    if isinstance(index, VAMSplitRTree):
        index.build(points, values)
    else:
        index.load(points, values)
    on_build(index, points.shape[0], time.perf_counter() - start)
    return index


def _open_index(path, buffer_capacity: int | None = None, *,
                durability: str | None = None,
                sync_every: int = 1,
                fault_plan=None,
                readonly: bool = False) -> SpatialIndex:
    """Re-open a saved index from a page file on disk (internal).

    The raw file prefix supplies the geometry (page size, checksum
    mode); any write-ahead log left by a previous process is recovered
    *before* the meta page is trusted; then the meta page supplies the
    index kind and construction parameters.

    ``durability=None`` (default) re-opens in whatever mode the index
    was last saved with; ``"wal"``/``"none"`` force the mode for this
    session.  ``readonly=True`` memory-maps the (recovered) file
    instead of opening it for writing: reads are zero-copy and the OS
    page cache is shared with every other process mapping the file, but
    all mutation raises.
    """
    from ..storage import (
        DEFAULT_BUFFER_CAPACITY,
        DEFAULT_PAGE_SIZE,
        NodeLayout,
        NodeStore,
        load_meta_prefix,
        open_storage,
    )

    geometry, prefix_meta = load_meta_prefix(path)
    if geometry is not None:
        page_size = geometry["page_size"] or DEFAULT_PAGE_SIZE
        checksums = geometry["checksums"]
    else:
        # Legacy file (raw-pickle meta page, no superblock): unsealed
        # pages, geometry only available from the pickled dict.
        page_size = (prefix_meta or {}).get("page_size", DEFAULT_PAGE_SIZE)
        checksums = False
    if durability is None:
        durability = (prefix_meta or {}).get("durability", "none")
        if durability not in ("none", "wal"):
            durability = "none"
    pagefile, wal, _report = open_storage(
        path,
        page_size=page_size,
        checksums=checksums,
        durability=durability,
        sync_every=sync_every,
        fault_plan=fault_plan,
        create=False,
        readonly=readonly,
    )
    probe = NodeLayout(dims=1, has_rects=True, has_spheres=False,
                       has_weights=False, page_size=pagefile.page_size)
    meta = NodeStore(probe, pagefile).read_meta()
    try:
        cls = INDEX_KINDS[meta["index"]]
    except KeyError:
        raise ValueError(
            f"file holds an unknown index kind {meta['index']!r}"
        ) from None
    capacity = buffer_capacity if buffer_capacity else DEFAULT_BUFFER_CAPACITY
    return cls.open(pagefile, buffer_capacity=capacity, wal=wal)

