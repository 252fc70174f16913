"""``python -m repro serve`` with the ledger's shims installed first.

The traced run starts its server child through this launcher: it wraps
the same callables as the generator process does (plus the server's own
request path), hands over to the ``serve`` entry point unchanged, and on
exit writes every span it recorded to ``$LEDGER_TRACE_OUT``.  Timestamps
are ``perf_counter`` (CLOCK_MONOTONIC), comparable with the parent's.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]


def main(argv: list[str]) -> int:
    from ledger import shims
    from ledger.spans import Recorder

    recorder = Recorder()
    shims.install(recorder, shims.ENGINE, shims.SERVER)

    from repro.cli import main as repro_main

    try:
        return repro_main(argv)
    finally:
        with open(os.environ["LEDGER_TRACE_OUT"], "w") as out:
            json.dump(recorder.columns(), out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
