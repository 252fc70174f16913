"""What a process loads: the stdlib's HTTP stack stays out of every
import chain.

``repro.net`` resolves on first use (``repro.__getattr__``) and frames
HTTP/1.1 itself (``repro.httpd``), so neither ``import repro``, nor a
pool worker, nor the ``repro serve`` child loads ``http.client``,
``http.server``, ``email``, ``ssl`` or OpenSSL's ``_hashlib`` (about
7 MB of every such process).  A pool worker reads the wire's formats
(``repro.net.protocol``), and ``repro.net`` resolves its server and
client on first use too, so the worker loads neither them nor the HTTP
substrate.  Each chain runs in a fresh interpreter.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("http.client", "http.server", "email", "ssl", "_hashlib")
#: What a pool worker needs none of: the network pair and its substrate.
SERVING = ("repro.net.server", "repro.net.client", "repro.httpd",
           "socketserver")


def _loaded(chain: str, modules: tuple[str, ...]) -> list[str]:
    """Which of ``modules`` a fresh interpreter holds after ``chain``."""
    probe = (f"import sys\n{chain}\n"
             f"print(' '.join(m for m in {modules!r} if m in sys.modules))")
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", probe], check=True,
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    return done.stdout.split()


@pytest.mark.parametrize("chain", [
    "import repro",
    "from repro.exec.procpool import _worker_main",  # a spawned pool worker
    "from repro.net import QueryServer",  # the serve child
])
def test_chain_loads_no_stdlib_http_stack(chain):
    assert _loaded(chain, HEAVY) == []


def test_a_pool_worker_loads_the_wire_formats_but_not_the_network_pair():
    chain = "from repro.exec.procpool import _worker_main"
    assert _loaded(chain, ("repro.net.protocol",) + SERVING) == [
        "repro.net.protocol"]


def test_network_pair_resolves_from_the_package():
    import repro
    from repro.net import QueryServer, RemoteDatabase

    assert repro.QueryServer is QueryServer
    assert repro.RemoteDatabase is RemoteDatabase
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name
