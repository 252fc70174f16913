"""Shared test helpers."""

from __future__ import annotations

import socket

import numpy as np


def brute_force_knn(points: np.ndarray, query: np.ndarray, k: int) -> list[int]:
    """Ground-truth k-NN: indices of the k closest rows, ascending distance.

    Ties are broken by row index, matching the insertion order used by
    the tests (values default to row indices).
    """
    dists = np.linalg.norm(points - query, axis=1)
    order = np.lexsort((np.arange(len(points)), dists))
    return [int(i) for i in order[:k]]


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
