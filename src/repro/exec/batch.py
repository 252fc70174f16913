"""The depth-first branch-and-bound search, one traversal per query block.

This is the one depth-first search of the package (the paper's Section
4.4, after Roussopoulos, Kelley and Vincent): :func:`batch_knn` and
:func:`batch_range` run it over blocks of ``Q`` queries, and a single
k-NN, range or window query (:func:`~repro.search.knn.knn_search`,
:func:`~repro.search.range.range_search`,
:func:`~repro.search.window.window_search`) is a block of one.
:func:`depth_first` walks the tree once per block from the index's top
pages (a tree's root; every page of the linear scan's chain), pricing
each entry of a node for every active query in one vectorised pass —
by :func:`mindists` for k-NN and range queries, by whether it meets the
box for a window (0 or infinity):

* at an internal node the full ``(Q_active, children)`` matrix
  (:meth:`~repro.indexes.base.SpatialIndex.child_mindists_batch`) orders
  the children by their smallest MINDIST over the active queries, and
  each is entered with only the queries whose pruning bound admits it;
  once a child's smallest MINDIST exceeds every active bound, it and
  every later child are pruned;
* at a leaf the ``(Q_active, count)`` distance matrix
  (:func:`~repro.geometry.point.cross_distances`) offers each row to
  its query's collector when the row's minimum is within the query's
  bound.

The per-node bookkeeping is plain Python lists (the active query ids,
the bounds, one ``tolist()`` of the MINDIST matrix and of the child
ids), so a block of one costs about what a one-point loop would
(``docs/PERFORMANCE.md``); the queries' points are re-gathered only
when a child drops a query.  A traced
query records a visit or prune event per child decision, with the
smallest MINDIST over the active queries and the loosest bound among
them (for a block of one, its MINDIST and bound).

**Correctness.**  A k-NN query's bound is its current k-th-best
distance (``inf`` while filling); a range query's bound is its radius
and never moves.  A subtree is skipped for a query only when its region
MINDIST exceeds that bound, which can never exclude a true neighbor.
Every collector ranks by ``(distance, leaf page id, slot)``, a total
key that does not depend on the order leaves are read in, so a query's
answer is the same alone or in any block — asserted by
``tests/test_exec_batch.py`` against brute force across index families
and workloads, by ``tests/test_tie_order.py`` where distances tie, and
by ``tests/test_one_traversal.py`` at several block sizes.

Blocks default to :data:`DEFAULT_BLOCK_SIZE` queries to keep the
broadcast intermediates (``Q x N x D`` float64) comfortably in cache;
callers with huge query sets get identical results regardless of the
blocking.

**Heterogeneous parameters.**  ``k`` (for :func:`batch_knn`) and
``radius`` (for :func:`batch_range`) accept either a scalar or a
``(Q,)`` array-like with one value per query.  The network coalescer
(:mod:`repro.net.coalesce`) relies on this: concurrent requests with
different ``k``/``radius`` share one traversal, each query pruning
against its own bound.  A scalar is exactly the old behavior.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import EmptyIndexError
from ..geometry import as_points
from ..geometry.point import cross_distances
from ..indexes.base import Neighbor
from ..obs.hooks import observed_query
from ..obs.tracer import trace
from ..search.knn import KnnCandidates
from ..search.range import RangeCandidates

__all__ = ["DEFAULT_BLOCK_SIZE", "batch_knn", "batch_range", "depth_first", "per_query"]

DEFAULT_BLOCK_SIZE = 64
"""Queries per traversal block (bounds the broadcast temporaries)."""


#: Every whole number of magnitude up to this is a float64 exactly: a
#: plain ``int`` or ``float`` in range needs no check beyond its bounds.
_EXACT = 2**53
_INT64 = np.dtype(np.int64)
_FLOAT64 = np.dtype(np.float64)


def per_query(name: str, value, nq: int) -> np.ndarray:
    """``k`` or ``radius`` for ``nq`` queries, checked, as a ``(nq,)`` array.

    ``value`` is one scalar shared by every query or a ``(nq,)``
    array-like with one value per query; ``k`` must be a whole number
    of at least 1 that fits int64 (``2.5`` is refused, not rounded, and
    an integer converts exactly), a ``radius`` (or
    ``iter_nearest``'s ``max_distance``) at least 0 and not NaN.  This
    is the only place that decides: every handle kind normalises through
    here — single queries and blocks, the linear scan, the serving
    pools, the network client — so a bad argument fails with the same
    message wherever it is caught.  The result is read-only.
    """
    # The common argument, a plain Python number in range, is filled in
    # directly (three calls a remote knn); any other value, bool and
    # numpy scalars included, takes the checked path and its messages.
    kind = type(value)
    if name == "k":
        if kind is int and 1 <= value <= _EXACT:
            return _filled(nq, value, _INT64)
    elif (kind is float or kind is int) and 0 <= value <= _EXACT:
        return _filled(nq, value, _FLOAT64)
    return _checked(name, value, nq)


def _filled(nq: int, value, dtype: np.dtype) -> np.ndarray:
    values = np.empty(nq, dtype=dtype)
    values.fill(value)
    values.flags.writeable = False
    return values


def _checked(name: str, value, nq: int) -> np.ndarray:
    """:func:`per_query` for any value: converted, then checked."""
    values = np.asarray(value)
    if name != "k" or values.dtype.kind not in "iu":  # integers stay exact
        values = np.asarray(value, dtype=np.float64)
    if values.ndim and values.shape != (nq,):
        raise ValueError(
            f"per-query {name} must have shape ({nq},), got {values.shape}")
    least, must_be = (1, "positive") if name == "k" else (0.0, "non-negative")
    if name == "k":
        values = _whole(values, value)
    if values.size and not values.min() >= least:  # "not >=": NaN fails too
        raise ValueError(f"{name} must be {must_be}, got {values.min()}")
    return np.broadcast_to(values, (nq,))


def _whole(values: np.ndarray, value) -> np.ndarray:
    """``k`` as int64, exactly: refused unless whole and within int64."""
    if values.dtype.kind == "f":
        with np.errstate(invalid="ignore"):  # NaN/inf are not whole
            if not (np.isfinite(values) & (np.floor(values) == values)).all():
                raise ValueError(f"k must be an integer, got {value}")
        outside = np.abs(values) >= 2.0**63
    else:
        outside = values > np.iinfo(np.int64).max  # a uint64 past int64
    if outside.any():
        raise ValueError(f"k is out of range, got {value}: it must fit int64")
    return values.astype(np.int64, copy=False)


# ----------------------------------------------------------------------
# the two query kinds
# ----------------------------------------------------------------------


def batch_knn(index, queries, k: int = 1, *,
              block_size: int = DEFAULT_BLOCK_SIZE) -> list[list[Neighbor]]:
    """The ``k`` nearest neighbors of each query point, one traversal per block.

    Parameters
    ----------
    index:
        Any :class:`~repro.indexes.base.SpatialIndex`.
    queries:
        ``(Q, D)`` array-like of query points (a single point is
        promoted to one row).
    k:
        Neighbors per query — one int for every query, or a ``(Q,)``
        array-like giving each query its own ``k``.
    block_size:
        Queries traversed together; purely a memory/locality knob.

    Returns
    -------
    list[list[Neighbor]]
        ``result[q]`` holds query ``q``'s neighbors, closest first —
        element-wise identical to ``index.nearest(queries[q], k)``.
    """
    queries = as_points(queries, index.dims)
    ks = per_query("k", k, queries.shape[0])
    if index.size == 0:
        raise EmptyIndexError("cannot run a nearest-neighbor query on an empty index")
    if block_size < 1:
        raise ValueError(f"block_size must be positive, got {block_size}")
    results: list[list[Neighbor]] = []
    with observed_query(index, "batch_knn", int(ks.max()) if ks.size else 0):
        for start in range(0, queries.shape[0], block_size):
            results.extend(depth_first(
                index, queries[start : start + block_size],
                [KnnCandidates(int(ki)) for ki in ks[start : start + block_size]]))
    return results


def batch_range(index, queries, radius: float, *,
                block_size: int = DEFAULT_BLOCK_SIZE) -> list[list[Neighbor]]:
    """All stored points within ``radius`` of each query, closest first.

    The batched analogue of :meth:`~repro.indexes.base.SpatialIndex.within`:
    the k-NN block traversal with each query's bound held at its radius,
    so it descends into a child for exactly the queries whose ball
    intersects its region (MINDIST ``<= radius``).

    ``radius`` is one float for every query, or a ``(Q,)`` array-like
    giving each query its own radius.
    """
    queries = as_points(queries, index.dims)
    radii = per_query("radius", radius, queries.shape[0])
    if block_size < 1:
        raise ValueError(f"block_size must be positive, got {block_size}")
    results: list[list[Neighbor]] = []
    with observed_query(index, "batch_range"):
        for start in range(0, queries.shape[0], block_size):
            results.extend(depth_first(
                index, queries[start : start + block_size],
                [RangeCandidates(float(r)) for r in radii[start : start + block_size]]))
    return results


# ----------------------------------------------------------------------
# the block traversal
# ----------------------------------------------------------------------


def mindists(index, node, block: np.ndarray) -> np.ndarray:
    """The k-NN and range pricing: ``(Q, count)`` distances from each
    query of ``block`` to each entry of ``node`` — the MINDIST to each
    child region at an internal node
    (:meth:`~repro.indexes.base.SpatialIndex.child_mindists_batch`), the
    exact distance to each point at a leaf (:func:`cross_distances`)."""
    if node.is_leaf:
        return cross_distances(block, node.points[: node.count])
    return index.child_mindists_batch(node, block)


def depth_first(index, queries: np.ndarray, candidates: list,
                price=mindists) -> list[list[Neighbor]]:
    """The one depth-first branch-and-bound search, for a block of queries.

    Query ``q`` (row ``q`` of ``queries``) collects into
    ``candidates[q]``, a :class:`KnnCandidates` or a
    :class:`~repro.search.range.RangeCandidates`; the search starts from
    the index's top pages and returns each collector's ``results()``.
    ``price(index, node, block)`` gives the ``(Q_active, count)``
    distance of each active query (the rows of ``block``) to each entry
    of ``node``: :func:`mindists` for k-NN and range queries,
    :func:`~repro.search.window.window_prices` for boxes.  A single
    query is a block of one (:func:`~repro.search.knn.knn_search`,
    :func:`~repro.search.range.range_search`,
    :func:`~repro.search.window.window_search`).
    """
    bounds = [c.bound for c in candidates]
    stats = index.stats
    span = trace.active
    if span is not None and getattr(index, "is_snapshot", False):
        # Stamp which committed epoch answered this block so EXPLAIN
        # output from concurrent serving is attributable after the fact.
        span.labels.setdefault("epoch", index.snapshot_epoch)
    active = list(range(len(candidates)))
    level = index.height - 1
    for page_id in index.top_ids():
        if span is not None:
            span.visit(page_id, level, 0.0, max(bounds))
        _visit(index, page_id, queries, queries, active, candidates, bounds,
               price, stats, span)
    return [c.results() for c in candidates]


def _visit(index, page_id: int, queries: np.ndarray, block: np.ndarray,
           active: list, candidates: list, bounds: list, price, stats,
           span) -> None:
    """Expand ``page_id`` for the queries ``active`` (row ids of
    ``queries``, and indices into ``candidates`` and ``bounds``), whose
    rows are ``block``, that is ``queries[active]``."""
    node = index.read_node(page_id)
    count = node.count
    stats.distance_computations += count * len(active)
    if not count:
        return
    dmat = price(index, node, block)
    if node.is_leaf:
        # Offer the leaf to each query whose nearest row there is within
        # its bound (a tie may still win on its page; an infinite bound
        # is a heap still filling, which takes all).
        pts = node.points[:count]
        for row, nearest in enumerate(dmat.min(axis=1).tolist()):
            q = active[row]
            if nearest <= bounds[q]:
                cand = candidates[q]
                cand.offer_batch(dmat[row], pts, node.values, node.page_id)
                bounds[q] = cand.bound
        return
    # Children go in order of their smallest MINDIST over the active
    # queries; a child is entered by the queries whose bound admits it.
    least = dmat.min(axis=0)
    order = np.argsort(least, kind="stable").tolist()
    least = least.tolist()
    columns = dmat.T.tolist()
    child_ids = node.child_ids[:count].tolist()
    level = node.level - 1
    # A lone query is admitted by the order test itself; a block also
    # drops the queries whose own bound the child's MINDIST exceeds.
    lone = len(active) == 1
    loosest = max([bounds[q] for q in active])
    for pos, i in enumerate(order):
        if least[i] > loosest:
            # Bounds only shrink, so every later child is out of reach too.
            if span is not None:
                for j in order[pos:]:
                    span.prune(child_ids[j], level, least[j], loosest)
            break
        keep, kept = active, block
        if not lone:
            keep = [q for q, d in zip(active, columns[i]) if d <= bounds[q]]
            if not keep:
                if span is not None:
                    span.prune(child_ids[i], level, least[i], loosest)
                continue
            if len(keep) < len(active):
                kept = queries[keep]
        if span is not None:
            span.visit(child_ids[i], level, least[i], loosest)
        _visit(index, child_ids[i], queries, kept, keep, candidates, bounds,
               price, stats, span)
        loosest = bounds[active[0]] if lone else max([bounds[q] for q in active])
