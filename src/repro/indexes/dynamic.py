"""The dynamic R-tree engine shared by the R*-, SS-, and SR-trees.

The three dynamic index structures in the paper differ only in their
*policies*; the surrounding machinery — descend, insert, overflow with
forced reinsertion, split propagation, region adjustment, deletion with
the R-tree's CondenseTree — is identical.  :class:`DynamicTree`
implements that machinery once; each family subclasses it and supplies:

``_choose_child``
    Which subtree should absorb a new entry (R*: least enlargement /
    overlap; SS & SR: nearest centroid).
``_split_indices``
    How to partition an overflowing node's ``M + 1`` entries (R*: the
    margin-driven topological split; SS & SR: highest-variance dimension).
``_should_reinsert`` / ``_mark_reinserted``
    The overflow-treatment trigger: the R*-tree reinserts once per level
    per insertion; the SS-tree (and hence the SR-tree) reinserts unless
    a reinsertion has already been made at the same node (Section 2.3).

Regions are not a family hook.  What bounds a node — its MBR, its
centroid sphere, or both — follows from the ``HAS_RECTS`` /
``HAS_SPHERES`` flags and is stated once on
:class:`~repro.indexes.base.SpatialIndex` (``_summarize``,
``_check_entry``, ``child_mindists``); the SR-tree adds its two
Section-4 rules on top.  Which entries a forced reinsertion evicts is
one rule too: the farthest from the node's center, per both the R*- and
SS-tree papers (:meth:`DynamicTree._reinsert_indices`).  The two checks
the engine adds to :meth:`~repro.indexes.base.SpatialIndex.check_invariants`
are a child exactly one level below its parent and the non-root minimum
fill.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import InvariantViolationError, KeyNotFoundError
from ..obs import hooks as _obs
from ..storage.nodes import InternalNode, LeafNode
from .base import Entry, SpatialIndex, _level_error

__all__ = ["DynamicTree"]

#: Slack a deletion's descent allows a child's MINDIST; it only widens
#: the search, whose leaf match is exact (as :meth:`lookup`'s).
_MATCH_EPS = 1e-9

Node = LeafNode | InternalNode


class DynamicTree(SpatialIndex):
    """Dynamic, paged, height-balanced tree with forced reinsertion."""

    # ------------------------------------------------------------------
    # family hooks (subclasses must implement)
    # ------------------------------------------------------------------

    def _choose_child(self, node: InternalNode, entry: Entry) -> int:
        """Index of the child of ``node`` that should absorb ``entry``."""
        raise NotImplementedError

    def _split_indices(self, node: Node) -> tuple[np.ndarray, np.ndarray]:
        """Partition the entry indices of an overflowing node into two groups."""
        raise NotImplementedError

    def _should_reinsert(self, node: Node, is_root: bool) -> bool:
        """Whether an overflow of ``node`` is treated by reinsertion."""
        raise NotImplementedError

    def _mark_reinserted(self, node: Node) -> None:
        """Record that ``node`` has shed entries through reinsertion."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # public mutation API
    # ------------------------------------------------------------------

    def _insert_point(self, point, value: object = None) -> None:
        """Insert a point with an optional payload (any picklable object).

        The payload must pickle into the leaf data area (512 bytes by
        default); record ids or short strings are the intended use.
        Called by :meth:`~repro.indexes.base.SpatialIndex.insert`, which
        supplies WAL transactionality when the store is durable.
        """
        self._reinserted_levels: set[int] = set()
        self._insert_entry(Entry.for_point(point.copy(), value), 0)
        self._size += 1
        _obs.on_insert(self)

    def bulk_load(self, points, values=None) -> None:
        """Pack a complete data set into this (empty) tree bottom-up.

        VAM-split packing with this family's own region rules — see
        :func:`repro.indexes.bulk.bulk_load`.  The tree remains fully
        dynamic afterwards.
        """
        from .bulk import bulk_load

        bulk_load(self, points, values)

    def _delete_point(self, point, value: object = ...) -> None:
        """Remove one stored copy of ``point``.

        When ``value`` is given, only an entry carrying an equal payload
        matches.  Raises :class:`~repro.exceptions.KeyNotFoundError` if
        no matching entry exists.  Underfull nodes are dissolved and
        their entries reinserted, exactly as in the R-tree (Section 4.3).
        """
        self._reinserted_levels = set()
        found = self._find_point(point, value)
        if found is None:
            raise KeyNotFoundError(f"point {point.tolist()} not found")
        path, leaf_index = found
        leaf = path[-1]
        leaf.ensure_mutable()
        leaf.points[leaf_index] = leaf.points[leaf.count - 1]
        leaf.values[leaf_index] = leaf.values[leaf.count - 1]
        leaf.values.pop()
        leaf.count -= 1
        self._size -= 1
        self._condense(path)
        _obs.on_delete(self)

    # ------------------------------------------------------------------
    # insertion machinery
    # ------------------------------------------------------------------

    def _insert_entry(self, entry: Entry, container_level: int) -> None:
        """Insert ``entry`` into a node at ``container_level`` (0 = leaf)."""
        # A shrunken tree can make an orphan subtree taller than the spot
        # available for it; dissolve it into its children until it fits.
        root = self.read_node(self._root_id)
        if container_level > root.level:
            node = self.read_node(entry.child_id)
            for sub_entry in self._rows_to_entries(node):
                self._insert_entry(sub_entry, container_level - 1)
            self._store.free(node)
            return

        path, slots = self._choose_path(entry, container_level)
        self._add_entry(path[-1], entry)
        self._finish_insert(path, slots)

    def _choose_path(self, entry: Entry, level: int) -> tuple[list[Node], list[int]]:
        """Descend from the root to a node at ``level``.

        Returns the nodes on the way down and, for each but the last,
        the slot of its entry for the next one: ``path[d + 1]`` is
        ``path[d].child_ids[slots[d]]``.  The ascent that follows
        writes through those slots instead of searching for them.
        """
        node = self.read_node(self._root_id)
        path, slots = [node], []
        while node.level > level:
            slot = self._choose_child(node, entry)
            node = self.read_node(int(node.child_ids[slot]))
            path.append(node)
            slots.append(slot)
        return path, slots

    def _add_entry(self, node: Node, entry: Entry) -> None:
        if node.is_leaf:
            if not entry.is_point:
                raise ValueError("cannot add a subtree entry to a leaf")
            node.add(entry.point, entry.value)
        else:
            node.add(
                entry.child_id,
                low=entry.low,
                high=entry.high,
                center=entry.center,
                radius=entry.radius,
                weight=entry.weight,
            )

    def _finish_insert(self, path: list[Node], slots: list[int]) -> None:
        node = path[-1]
        if node.count <= node.capacity:
            self._store.write(node)
            self._adjust_upward(path, slots)
        else:
            self._overflow(path, slots)

    def _overflow(self, path: list[Node], slots: list[int]) -> None:
        node = path[-1]
        if not node.is_leaf:
            self._settle(node)  # splits and reinsertions read its rows
        is_root = len(path) == 1
        if not is_root and self._should_reinsert(node, is_root):
            self._forced_reinsert(path, slots)
        else:
            self._split_and_propagate(path, slots)

    def _forced_reinsert(self, path: list[Node], slots: list[int]) -> None:
        """Shed a fraction of an overflowing node's entries and reinsert them."""
        node = path[-1]
        self._mark_reinserted(node)
        _obs.on_reinsert(self, node)
        count = max(1, int(self._config.reinsert_fraction * node.count))
        indices = self._reinsert_indices(node, count)
        evicted = self._remove_entries(node, indices)
        self._store.write(node)
        self._adjust_upward(path, slots)
        container_level = node.level
        for entry in evicted:
            self._insert_entry(entry, container_level)

    def _reinsert_indices(self, node: Node, count: int) -> np.ndarray:
        """The ``count`` entries farthest from the node's center, the
        closest of them first (the order they are reinserted in).

        Entries sit at their sphere centers, measured from the node's
        centroid (SS, SR); a rectangle-only family has neither, so they
        sit at their rectangle centers, measured from the center of the
        box around those (R*).
        """
        n = node.count
        if self.HAS_SPHERES:
            coords = node.points[:n] if node.is_leaf else node.centers[:n]
            center = self._centroid(node)[0]
        else:
            coords = (node.points[:n] if node.is_leaf
                      else 0.5 * (node.lows[:n] + node.highs[:n]))
            center = 0.5 * (coords.min(axis=0) + coords.max(axis=0))
        diff = coords - center
        order = np.argsort(np.einsum("ij,ij->i", diff, diff), kind="stable")
        return order[-count:]

    def _prefer_supernode(self, node: InternalNode, group_a: np.ndarray,
                          group_b: np.ndarray) -> bool:
        """Hook: grow ``node`` into a supernode instead of splitting it.

        The base families always split; :class:`~repro.indexes.srx.SRXTree`
        overrides this with the X-tree overlap criterion.
        """
        return False

    def _split_and_propagate(self, path: list[Node], slots: list[int]) -> None:
        node = path[-1]
        group_a, group_b = self._split_indices(node)
        if not node.is_leaf and self._prefer_supernode(node, group_a, group_b):
            _obs.on_supernode_growth(self)
            self._grow_supernode(path, slots)
            return
        _obs.on_split(self, node)
        left, right = self._split_into_two(node, group_a, group_b)
        self._replace_split_node(path, slots, left, right)

    def _split_into_two(
        self, node: Node, group_a: np.ndarray, group_b: np.ndarray
    ) -> tuple[Node, Node]:
        """Distribute an overflowing node's entries into two right-sized nodes.

        Leaves split in place (group A stays, group B moves to a fresh
        leaf).  Internal nodes always get two fresh nodes sized to their
        groups, so an oversized supernode shrinks back to ordinary pages
        when a split finally becomes worthwhile.
        """
        if node.is_leaf:
            sibling = self._store.new_leaf()
            points, values = node.take_all()
            for i in group_a:
                node.add(points[i], values[i])
            for i in group_b:
                sibling.add(points[i], values[i])
            node.reinserted = False
            sibling.reinserted = False
            self._store.write(node)
            self._store.write(sibling)
            return node, sibling

        entries = self._rows_to_entries(node)
        left = self._store.new_internal(node.level, self._extent_for(len(group_a)))
        right = self._store.new_internal(node.level, self._extent_for(len(group_b)))
        for i in group_a:
            self._add_entry(left, entries[i])
        for i in group_b:
            self._add_entry(right, entries[i])
        self._store.write(left)
        self._store.write(right)
        self._store.free(node)
        return left, right

    def _extent_for(self, count: int) -> int:
        """Smallest page extent whose node capacity holds ``count`` entries."""
        extent = 1
        while self._layout.node_capacity_for(extent) < count:
            extent += 1
        return extent

    def _replace_split_node(self, path: list[Node], slots: list[int],
                            left: Node, right: Node) -> None:
        """Swap the split node's parent entry for its two halves."""
        if len(path) == 1:
            new_root = self._store.new_internal(left.level + 1)
            self._summarize(left, new_root)
            self._summarize(right, new_root)
            self._store.write(new_root)
            self._root_id = new_root.page_id
            self._height += 1
            return

        parent = path[-2]
        self._summarize(left, parent, slots[-1])
        self._summarize(right, parent)
        if parent.count > parent.capacity:
            self._overflow(path[:-1], slots[:-1])
        else:
            self._store.write(parent)
            self._adjust_upward(path[:-1], slots[:-1])

    def _grow_supernode(self, path: list[Node], slots: list[int]) -> None:
        """Replace an overflowing node with a one-page-larger supernode."""
        old = path[-1]
        grown = self._store.new_internal(old.level, old.extent + 1)
        for entry in self._rows_to_entries(old):
            self._add_entry(grown, entry)
        grown.reinserted = old.reinserted
        self._store.write(grown)
        if len(path) == 1:
            self._root_id = grown.page_id
        else:
            parent = path[-2]
            self._summarize(grown, parent, slots[-1])
            self._store.write(parent)
            self._adjust_upward(path[:-1], slots[:-1])
        self._store.free(old)

    def _adjust_upward(self, path: list[Node], slots: list[int]) -> None:
        """Refresh the parent entry of every node on the path, bottom-up.

        Eagerly, only what ``_choose_child`` reads: the whole entry where
        it steers by the rectangle (R, R*), the page id, centroid and
        weight where it steers by the centroid (SS, SR), whose MBR and
        radius settle later, once per node state (:meth:`_settle`).
        """
        defer = self.HAS_SPHERES
        for depth in range(len(path) - 1, 0, -1):
            parent = path[depth - 1]
            self._summarize(path[depth], parent, slots[depth - 1], defer=defer)
            self._store.write(parent)

    def _remove_entries(self, node: Node, indices: np.ndarray) -> list[Entry]:
        """Extract the given entries from ``node``, preserving their order."""
        entries: list[Entry] = []
        if node.is_leaf:
            for i in indices:
                entries.append(
                    Entry.for_point(node.points[i].copy(), node.values[i])
                )
        else:
            for i in indices:
                entries.append(self._row_entry(node, int(i)))
        for i in sorted((int(i) for i in indices), reverse=True):
            node.remove_at(i)
        return entries

    # ------------------------------------------------------------------
    # entry <-> node-row conversion
    # ------------------------------------------------------------------

    def _row_entry(self, node: InternalNode, index: int) -> Entry:
        """The ``index``-th child entry of ``node`` as an :class:`Entry`."""
        low = high = None
        if node.lows is not None:
            low = node.lows[index].copy()
            high = node.highs[index].copy()
        if node.centers is not None:
            center = node.centers[index].copy()
            radius = float(node.radii[index])
        else:
            center = 0.5 * (low + high)
            radius = 0.0
        weight = int(node.weights[index]) if node.weights is not None else 1
        return Entry(
            child_id=int(node.child_ids[index]),
            center=center,
            radius=radius,
            low=low,
            high=high,
            weight=weight,
        )

    def _rows_to_entries(self, node: InternalNode) -> list[Entry]:
        self._settle(node)
        return [self._row_entry(node, i) for i in range(node.count)]

    # ------------------------------------------------------------------
    # deletion machinery
    # ------------------------------------------------------------------

    def _find_point(
        self, point: np.ndarray, value: object
    ) -> tuple[list[Node], int] | None:
        """Locate a leaf holding exactly ``point`` (R-tree FindLeaf)."""

        def recurse(node: Node, path: list[Node]) -> int | None:
            path.append(node)
            if node.is_leaf:
                if node.count:
                    pts = node.points[: node.count]
                    for i in np.nonzero(np.all(pts == point, axis=1))[0]:
                        if value is ... or node.values[i] == value:
                            return int(i)
                path.pop()
                return None
            dists = self.child_mindists(node, point)
            for i in np.nonzero(dists <= _MATCH_EPS)[0]:
                child = self.read_node(int(node.child_ids[i]))
                found = recurse(child, path)
                if found is not None:
                    return found
            path.pop()
            return None

        path: list[Node] = []
        root = self.read_node(self._root_id)
        index = recurse(root, path)
        if index is None:
            return None
        return path, index

    def _condense(self, path: list[Node]) -> None:
        """R-tree CondenseTree: dissolve underfull nodes, reinsert orphans."""
        orphans: list[tuple[Entry, int]] = []
        for depth in range(len(path) - 1, 0, -1):
            node = path[depth]
            parent = path[depth - 1]
            min_fill = self.leaf_min_fill if node.is_leaf else self.node_min_fill
            if node.count < min_fill:
                parent.remove_at(parent.find_child(node.page_id))
                if node.is_leaf:
                    for i in range(node.count):
                        orphans.append(
                            (Entry.for_point(node.points[i].copy(), node.values[i]), 0)
                        )
                else:
                    for entry in self._rows_to_entries(node):
                        orphans.append((entry, node.level))
                self._store.free(node)
            else:
                self._store.write(node)
                self._summarize(node, parent, parent.find_child(node.page_id))
            self._store.write(parent)

        # Shrink the root while it is an internal node with a single child.
        root = path[0]
        self._store.write(root)
        while not root.is_leaf and root.count == 1:
            child_id = int(root.child_ids[0])
            self._store.free(root)
            self._root_id = child_id
            self._height -= 1
            root = self.read_node(child_id)
            self._store.write(root)

        # Reinsert orphans, deepest containers first so subtrees land
        # before the loose points that may have to pass through them.
        orphans.sort(key=lambda pair: -pair[1])
        for entry, container_level in orphans:
            self._insert_entry(entry, container_level)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def _check_entry(self, parent: InternalNode, slot: int, node: Node) -> None:
        """The region rules, after the two a dynamic tree keeps: a child
        exactly one level below its parent (the tree is balanced, and
        ``_choose_path`` descends by level) and the non-root minimum fill
        that CondenseTree keeps (Section 4.3)."""
        if node.level != parent.level - 1:
            raise _level_error(parent, node)
        min_fill = self.leaf_min_fill if node.is_leaf else self.node_min_fill
        if node.count < min_fill:
            raise InvariantViolationError(
                f"node {node.page_id} holds {node.count} entries, minimum "
                f"is {min_fill}"
            )
        super()._check_entry(parent, slot, node)
