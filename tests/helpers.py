"""Shared test helpers."""

from __future__ import annotations

import socket

import numpy as np

from repro.storage.nodes import InternalNode


def brute_force_knn(points: np.ndarray, query: np.ndarray, k: int) -> list[int]:
    """Ground-truth k-NN: indices of the k closest rows, ascending distance.

    Ties are broken by row index, matching the insertion order used by
    the tests (values default to row indices).
    """
    dists = np.linalg.norm(points - query, axis=1)
    order = np.lexsort((np.arange(len(points)), dists))
    return [int(i) for i in order[:k]]


def entry_of(tree, node) -> dict:
    """The parent entry ``tree`` would store for ``node``: its region
    rule's output by field name (``low``, ``high``, ``center``,
    ``radius``, ``weight``), written into a throwaway parent node."""
    layout = tree.layout
    parent = InternalNode(-1, layout.dims, 1, node.level + 1,
                          has_rects=tree.HAS_RECTS,
                          has_spheres=tree.HAS_SPHERES,
                          has_weights=tree.HAS_WEIGHTS)
    tree._summarize(node, parent)
    fields = {}
    if tree.HAS_RECTS:
        fields["low"], fields["high"] = parent.lows[0], parent.highs[0]
    if tree.HAS_SPHERES:
        fields["center"], fields["radius"] = parent.centers[0], parent.radii[0]
        fields["weight"] = int(parent.weights[0])
    return fields


def internal_entries(tree):
    """``(node, slot, child, points beneath child)`` for every entry of
    every internal node of ``tree``."""
    beneath = {}
    for node in sorted(tree.iter_nodes(), key=lambda node: node.level):
        n = node.count
        if node.is_leaf:
            beneath[node.page_id] = node.points[:n]
            continue
        children = [int(c) for c in node.child_ids[:n]]
        beneath[node.page_id] = np.vstack([beneath[c] for c in children])
        for slot, child in enumerate(children):
            yield node, slot, tree.read_node(child), beneath[child]


def raw_http(address, payload: bytes, *, timeout: float = 5.0) -> bytes:
    """Send raw bytes to ``address``; everything the server answers
    until it closes (or resets) the connection.

    A server that neither answers nor closes within ``timeout`` raises
    ``TimeoutError`` — which is how a wedged connection fails a test.
    """
    with socket.create_connection(tuple(address), timeout=timeout) as sock:
        sock.sendall(payload)
        chunks = []
        try:
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        except ConnectionResetError:
            pass  # closed with our unread bytes still in its buffer
        return b"".join(chunks)
