"""Incremental (distance-ranked) nearest-neighbor iteration.

Hjaltason & Samet's incremental algorithm generalizes best-first k-NN:
a single priority queue holds both *subtrees* (keyed by region MINDIST)
and *points* (keyed by exact distance); popping a point yields it as
the next-nearest neighbor.  The caller decides when to stop, so "give
me neighbors until I've seen enough" queries need no k up front —
e.g. "closest image with a licence" or distance-bounded joins.  It is
the one best-first traversal: its first ``k`` neighbors are the
I/O-optimal k-NN answer that ``benchmarks/test_ablation_search_algorithm.py``
holds against the paper's depth-first search.

This is an extension beyond the paper (which fixes k = 21 throughout),
built on the same per-family MINDIST bounds.

The queue starts with the index's top pages at distance 0: a tree's
root, or every page of the linear scan's chain, all of which are read
before the first point is yielded.

The generator is consumed lazily and may outlive the span it was
created in, so the one loop reads ``trace.active`` each time it expands
a node — where the store records that node's fetch — and a node's
fetch and its visit/prune/queue events always land in the same span.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator

import numpy as np

from ..geometry.point import cross_distances
from ..indexes.base import Neighbor
from ..obs.tracer import trace

__all__ = ["iter_nearest"]

_NODE = 0
_POINT = 1


def _trace_expansion(span, node, child_dists, bound: float, depth: int) -> None:
    """Record one expanded node of a queue-driven traversal on ``span``.

    The children within ``bound`` were pushed (their verdict comes when
    they are popped); every other child is pruned here, in entry order.
    ``depth`` is the queue length after the pushes.
    """
    level = node.level - 1
    pushed = 0
    for i in range(node.count):
        if child_dists[i] <= bound:
            pushed += 1
        else:
            span.prune(int(node.child_ids[i]), level, float(child_dists[i]),
                       bound)
    span.queue(depth, pushed=pushed)


def iter_nearest(index, point: np.ndarray, max_distance: float = float("inf"),
                 ) -> Iterator[Neighbor]:
    """Yield stored points in ascending distance from ``point``.

    Lazily reads only the pages needed to produce the neighbors actually
    consumed: taking one neighbor from a million-point index touches a
    handful of pages.  ``max_distance`` optionally stops the iteration
    once every remaining candidate is farther than the bound.

    Correctness invariant: an item is only yielded when its exact
    distance is below the MINDIST of every unexpanded subtree still in
    the queue, and its ``(distance, page, slot)`` below every other
    queued point's, so the first ``k`` are exactly the ``k``-NN answer.
    """
    stats = index.stats
    # Items: (distance, kind, page, slot, payload), a point keyed by its
    # leaf's page and its slot there, a subtree by its own page.  Points
    # leave in (distance, page, slot) order, the k-NN order: at equal
    # distance a subtree comes out before a point, because it may hold
    # a tied point at a lower address.
    queue: list[tuple] = [(0.0, _NODE, page_id, 0, None)
                          for page_id in index.top_ids()]
    heapq.heapify(queue)
    while queue:
        dist, kind, page_id, _, payload = heapq.heappop(queue)
        if dist > max_distance:
            return
        if kind == _POINT:
            candidate_point, value = payload
            yield Neighbor(dist, candidate_point, value)
            continue
        node = index.read_node(page_id)
        span = trace.active
        if span is not None:
            span.visit(page_id, node.level, dist, max_distance)
            span.queue(len(queue), popped=1)
        if node.is_leaf:
            if node.count == 0:
                continue
            pts = node.points[: node.count]
            dists = cross_distances(point[None], pts)[0]
            stats.distance_computations += node.count
            for i in range(node.count):
                if dists[i] <= max_distance:
                    heapq.heappush(
                        queue,
                        (float(dists[i]), _POINT, page_id, i,
                         (pts[i].copy(), node.values[i])),
                    )
            if span is not None:
                span.queue(len(queue))
            continue
        child_dists = index.child_mindists(node, point)
        stats.distance_computations += node.count
        child_ids = node.child_ids
        for i in range(node.count):
            if child_dists[i] <= max_distance:
                heapq.heappush(
                    queue,
                    (float(child_dists[i]), _NODE, int(child_ids[i]), 0, None),
                )
        if span is not None:
            _trace_expansion(span, node, child_dists, max_distance, len(queue))
