"""Shared test helpers."""

from __future__ import annotations

import http.client
import json
import socket

import numpy as np

from repro.net.protocol import BINARY_CONTENT_TYPE, encode_matrix
from repro.storage.nodes import InternalNode


def brute_force_knn(points: np.ndarray, query: np.ndarray, k: int) -> list[int]:
    """Ground-truth k-NN: indices of the k closest rows, ascending distance.

    Ties are broken by row index, matching the insertion order used by
    the tests (values default to row indices).
    """
    dists = np.linalg.norm(points - query, axis=1)
    order = np.lexsort((np.arange(len(points)), dists))
    return [int(i) for i in order[:k]]


def ranked_knn(index, points: np.ndarray, query: np.ndarray,
               k: int) -> list[tuple[float, int]]:
    """Ground-truth k-NN in the engines' order, by brute force.

    ``(distance, value)`` of the ``k`` rows of ``points`` nearest
    ``query``, ranked by ``(distance, leaf page id, slot)`` where each
    row is stored in ``index`` (whose values are the row indices).
    """
    where = {leaf.values[slot]: (leaf.page_id, slot)
             for leaf in index.iter_leaves() for slot in range(leaf.count)}
    diff = points - query
    dists = np.sqrt(np.einsum("ij,ij->i", diff, diff)).tolist()
    rows = sorted(range(len(points)), key=lambda row: (dists[row], *where[row]))
    return [(dists[row], row) for row in rows[:k]]


def leaf_distances(node, point: np.ndarray, stats):
    """``(points, distances)`` over a leaf's entries: exact Euclidean
    distances from ``point`` to every point the leaf stores, tallied as
    distance computations.  The reference loops' own leaf scan, spelled
    out apart from the engines' ``cross_distances``."""
    pts = node.points[: node.count]
    diff = pts - point
    stats.distance_computations += node.count
    return pts, np.sqrt(np.einsum("ij,ij->i", diff, diff))


def retained_images(store) -> int:
    """Page images a ``NodeStore`` keeps only for pinned snapshots: its
    page table's entries at or below the epoch the data file holds."""
    return sum(epoch <= store._applied
               for chain in store._pages.values() for epoch, _ in chain)


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


def raw_http(address, payload: bytes, *, timeout: float = 5.0,
             half_close: bool = False) -> bytes:
    """Send raw bytes to ``address``; everything the server answers
    until it closes (or resets) the connection.

    ``half_close`` shuts the sending side after ``payload``, so the
    server sees end-of-stream where a request or body stops short
    instead of waiting for bytes that never come.  A server that
    neither answers nor closes within ``timeout`` raises
    ``TimeoutError`` — which is how a wedged connection fails a test.
    """
    with socket.create_connection(tuple(address), timeout=timeout) as sock:
        try:
            sock.sendall(payload)
            if half_close:
                sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # it answered and closed before reading all of it

        chunks = []
        try:
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        except ConnectionResetError:
            pass  # closed with our unread bytes still in its buffer
        return b"".join(chunks)


def post(address, endpoint: str, body, token: str | None = None):
    """One raw ``POST /v1/<endpoint>``: the status and body text a client
    of any language would see.

    ``body`` is a JSON document (Python's ``json`` writes ``NaN``) or a
    tuple of arrays, sent as matrix frames back to back; bytes go as a
    matrix body unchanged.
    """
    if isinstance(body, tuple):
        body = b"".join(encode_matrix(np.asarray(a)) for a in body)
    if isinstance(body, bytes):
        headers = {"Content-Type": BINARY_CONTENT_TYPE}
    else:
        body = json.dumps(body)
        headers = {"Content-Type": "application/json"}
    if token is not None:
        headers["X-Repro-Token"] = token
    conn = http.client.HTTPConnection(*address, timeout=10)
    try:
        conn.request("POST", f"/v1/{endpoint}", body, headers)
        response = conn.getresponse()
        return response.status, response.read().decode("utf-8", "replace")
    finally:
        conn.close()
