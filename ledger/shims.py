"""Which callables the traced run wraps, and the span name each one gets.

A span name is ``<layer>.<callable>``; the layer is the module under
``src/repro`` that owns the work, and the per-layer metrics are sums over
names with that prefix.  Shims go on before any handle is constructed.
Where a module imported a function by name, the importing module's
attribute is shimmed as well (same span name), otherwise the original
would be called unobserved.  Pool workers are never shimmed: their
numbers come from the public ``with_times`` / ``worker_stats()``.
"""

from __future__ import annotations

# (module, attribute path, span name)
ENGINE = [
    # api: the facade; its self time is Database.* minus the index.* call beneath
    ("repro.api", "Database.knn", "api.Database.knn"),
    ("repro.api", "Database.knn_batch", "api.Database.knn_batch"),
    ("repro.api", "Database.insert", "api.Database.insert"),
    # search: entry point, traversal, node fetch, candidate heap
    ("repro.indexes.base", "SpatialIndex.nearest", "search.nearest"),
    ("repro.search.knn", "knn_search", "search.knn_search"),
    ("repro.indexes.base", "SpatialIndex.read_node", "search.read_node"),
    ("repro.search.knn", "KnnCandidates.offer_batch", "search.heap.offer_batch"),
    ("repro.search.knn", "KnnCandidates.results", "search.heap.results"),
    # geometry: the MINDIST kernels and the leaf distance matrix
    ("repro.indexes.srtree", "SRTree.child_mindists", "geometry.mindist.scalar"),
    ("repro.indexes.srtree", "SRTree.child_mindists_batch", "geometry.mindist.batch"),
    ("repro.geometry.point", "cross_distances", "geometry.cross_distances"),
    ("repro.exec.batch", "cross_distances", "geometry.cross_distances"),
    # storage, read path
    ("repro.storage.store", "NodeStore.read", "storage.read"),
    ("repro.storage.pagefile", "FilePageFile.read", "storage.pagefile.file"),
    ("repro.storage.pagefile", "MmapPageFile.read", "storage.pagefile.mmap"),
    ("repro.storage.checksums", "ChecksumPageFile.read", "storage.pagefile.checksum"),
    ("repro.storage.serializer", "NodeCodec.decode", "storage.decode"),
    # storage, write path
    ("repro.storage.store", "NodeStore.commit_txn", "storage.txn"),
    ("repro.storage.wal", "WriteAheadLog.commit", "storage.wal_commit"),
    ("repro.storage.serializer", "NodeCodec.encode", "storage.encode"),
    ("repro.storage.store", "NodeStore.checkpoint", "storage.checkpoint"),
    # indexes: choose-subtree, split, reinsert, region recompute
    ("repro.indexes.base", "SpatialIndex.insert", "indexes.insert"),
    # exec: the block engine
    ("repro.indexes.base", "SpatialIndex.nearest_batch", "exec.nearest_batch"),
    ("repro.exec.batch", "batch_knn", "exec.batch_knn"),
    ("repro.exec", "batch_knn", "exec.batch_knn"),
]

POOL = [
    ("repro.exec.procpool", "ProcessServingPool.knn", "exec.pool.knn"),
    ("repro.exec.procpool", "ProcessServingPool._scatter", "exec.pool.scatter"),
    ("repro.exec.procpool", "ProcessServingPool._collect", "exec.pool.collect"),
]

CLIENT = [
    ("repro.net.client", "RemoteDatabase.knn", "net.client.knn"),
    # _call's self time is the request encode (JSON body, headers) and the
    # response envelope; _request is the socket round trip.
    ("repro.net.client", "RemoteDatabase._call", "net.client.encode"),
    ("repro.net.client", "RemoteDatabase._request", "net.client.round_trip"),
    ("repro.net.protocol", "decode_neighbor_block", "net.client.decode"),
]

SERVER = [
    ("repro.net.server", "QueryServer._handle", "net.server.request"),
    ("repro.net.server", "_Admission.acquire", "net.server.admission"),
    ("repro.net.server", "QueryServer._dispatch", "net.server.dispatch"),
    ("repro.net.server", "QueryServer._read_body", "net.server.read_body"),
    ("repro.net.server", "QueryServer._execute", "net.server.execute"),
    ("repro.net.server", "QueryServer._send_neighbors", "net.server.respond"),
    ("repro.net.protocol", "encode_neighbor_block", "net.server.encode"),
]


# Payload sizes ride on the spans that see them: the request body on the
# round trip, the response body on its decode.
MEASURES = {
    "net.client.round_trip": lambda args, kwargs, result: len(args[3] or b""),
    "net.client.decode": lambda args, kwargs, result: len(args[0]),
}


def install(recorder, *groups) -> None:
    for group in groups:
        for module, path, name in group:
            recorder.install(module, path, name, MEASURES.get(name))
