"""Bottom-up bulk loading for the dynamic tree families.

An extension beyond the paper: the paper's static baseline (the
VAMSplit R-tree) shows how much a fully-informed build helps; this
module brings the same variance/approximate-median packing to the
R*-, SS-, and SR-trees.  Points are packed into full leaves by
recursive VAM splits, then each level of parent nodes is packed the
same way over the child-entry centroids, with the *family's own region
rules* (MBRs, centroid spheres, or both with the SR-tree's tightened
radius) computing the entries.

The result is a valid tree of the target family — every invariant
checker and query path works unchanged — built in O(n log n) with
near-100 % page utilization, after which it remains fully dynamic.
"""

from __future__ import annotations

import numpy as np

from ..geometry import as_points
from .base import SpatialIndex

__all__ = ["bulk_load", "vam_groups"]


def vam_groups(coords: np.ndarray, capacity: int,
               minimum: int = 1) -> list[np.ndarray]:
    """Partition row indices into groups of ``minimum..capacity`` rows.

    Recursive VAM (variance, approximate median) splits: cut along the
    highest-variance dimension at a multiple of ``capacity`` nearest the
    median, so all groups except possibly the last per branch are full.
    ``minimum`` (at most half of ``capacity + 1``, as with the trees'
    40 % fill bound) prevents underfull trailing groups, so the result
    can seed nodes that satisfy the R-tree minimum-utilization
    invariant.  Returns index arrays in coordinate-sorted order.

    The one VAM partition: the static
    :class:`~repro.indexes.vamsplit.VAMSplitRTree` carves its child
    subtrees with it too (``capacity`` = points under one child).
    """
    if capacity < 1:
        raise ValueError(f"capacity must be positive, got {capacity}")
    if not 1 <= minimum <= (capacity + 1) // 2:
        raise ValueError(
            f"minimum must be in [1, {(capacity + 1) // 2}], got {minimum}"
        )
    indices = np.arange(coords.shape[0])

    def split(idx: np.ndarray) -> list[np.ndarray]:
        n = idx.shape[0]
        if n <= capacity:
            return [idx]
        block = coords[idx]
        dim = int(np.argmax(np.var(block, axis=0)))
        order = np.argsort(block[:, dim], kind="stable")
        ordered = idx[order]
        left_blocks = max(1, round(n / 2 / capacity))
        cut = min(left_blocks * capacity, n - 1)
        # Keep both sides above the minimum fill.
        if n - cut < minimum:
            cut = n - minimum
        cut = max(cut, minimum)
        return split(ordered[:cut]) + split(ordered[cut:])

    return split(indices)


def bulk_load(tree: SpatialIndex, points, values=None) -> None:
    """Bulk-load an *empty* dynamic tree with a complete data set.

    Parameters
    ----------
    tree:
        An empty :class:`~repro.indexes.rstar.RStarTree`,
        :class:`~repro.indexes.sstree.SSTree`, or
        :class:`~repro.indexes.srtree.SRTree`.
    points, values:
        The data set; values default to row indices.

    After loading, the tree is indistinguishable from (and as dynamic
    as) an incrementally built one, but with tightly packed pages.
    """
    from .dynamic import DynamicTree

    if not isinstance(tree, DynamicTree):
        raise TypeError(
            f"bulk_load supports the dynamic tree families, not {type(tree).NAME}"
        )
    if tree.size != 0:
        raise ValueError("bulk_load requires an empty tree")
    points = as_points(points, tree.dims)
    n = points.shape[0]
    if n == 0:
        return
    if values is None:
        values = list(range(n))
    else:
        values = list(values)
        if len(values) != n:
            raise ValueError("points and values lengths differ")

    store = tree.store
    # The empty root leaf from the constructor becomes garbage.
    store.free(tree.root_id)

    # --- leaf level -------------------------------------------------------
    level_nodes = []
    for group in vam_groups(points, tree.leaf_capacity, tree.leaf_min_fill):
        leaf = store.new_leaf()
        for i in group:
            leaf.add(points[i], values[i])
        store.write(leaf)
        level_nodes.append(leaf)

    # --- internal levels --------------------------------------------------
    level = 1
    while len(level_nodes) > 1:
        entries = [(node.page_id, tree._entry_fields(node)) for node in level_nodes]
        centers = np.array([
            fields["center"] if fields.get("center") is not None
            else 0.5 * (fields["low"] + fields["high"])
            for _, fields in entries
        ])
        parents = []
        for group in vam_groups(centers, tree.node_capacity, tree.node_min_fill):
            parent = store.new_internal(level)
            for i in group:
                child_id, fields = entries[i]
                parent.add(child_id, **fields)
            store.write(parent)
            parents.append(parent)
        level_nodes = parents
        level += 1

    tree._root_id = level_nodes[0].page_id
    tree._height = level_nodes[0].level + 1
    tree._size = n
