"""Network query service: serve an index over HTTP, query it remotely.

The serving stack so far terminated at the Python API boundary — every
consumer of :class:`~repro.api.Database`, :class:`~repro.api.Snapshot`,
or a serving pool had to run in-process.  This package is the data
plane that crosses the machine boundary:

* :class:`~repro.net.server.QueryServer` — a dependency-free threaded
  HTTP/1.1 front end exposing the full
  :class:`~repro.api.QuerySurface` read surface (``knn``,
  ``knn_batch``, ``range``, ``range_batch``, ``window``, ``lookup``,
  ``stats``, ``explain``) plus token-authenticated mutations over a live
  :class:`~repro.api.Database` or a
  :class:`~repro.exec.ServingPool`, with production behaviors built
  in: admission control (bounded in-flight + queue, overflow sheds
  with 429/``Retry-After``), per-request deadlines propagated from the
  ``X-Repro-Deadline-Ms`` header into the pools' ``timeout=``
  machinery, graceful drain on ``close()``/SIGTERM, and keep-alive
  connection reuse;
* :class:`~repro.net.client.RemoteDatabase` — the client handle that
  implements the *same* :class:`~repro.api.QuerySurface` protocol as
  the local handles, so ``Database.open(path)`` swaps for
  ``RemoteDatabase.connect(addr)`` with zero call-site changes;
* :mod:`~repro.net.protocol` — the shared wire format: matrix frames
  for every neighbor read (a single query is a one-row batch), one
  neighbor block for every neighbor list, JSON for everything else, and
  the header/status conventions both sides agree on.

::

    # server process
    with repro.Database.open("tree.db") as db, \\
         QueryServer(db, port=8750, auth_token="s3cret") as srv:
        ...                      # serving from a daemon thread already;
                                 # leaving the block drains and unbinds

    # client process — same calls as a local Database
    with RemoteDatabase.connect("localhost:8750", token="s3cret") as db:
        neighbors = db.knn([0.1] * db.dims, k=5)

See ``docs/SERVING.md`` for the endpoint table, wire formats,
admission-control knobs, deadline semantics, and the drain lifecycle.
"""

import importlib

__all__ = ["QueryServer", "RemoteDatabase"]


def __getattr__(name: str):
    # The pair resolves on first use, so a process that reads only the
    # wire formats (a pool worker imports repro.net.protocol) never loads
    # the server, the client or their socket stack.
    homes = {"QueryServer": ".server", "RemoteDatabase": ".client"}
    if name in homes:
        return getattr(importlib.import_module(homes[name], __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
