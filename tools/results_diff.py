#!/usr/bin/env python
"""Gate for the archived paper tables under ``benchmarks/results/``.

Re-runs ``benchmarks/`` (each test rewrites its own ``results/*.txt``)
and compares every table with the copy that was on disk before the run
-- on a clean checkout, the committed one -- ignoring the timing
columns, which never repeat.  Every other column is a count (page
reads, pages, heights, volumes of seeded data) and must repeat exactly.

A table whose counts did not move is put back as it was, so a passing
run leaves the working tree clean; one whose counts moved is left
rewritten, to be inspected and committed with the change that moved it.

Usage::

    python tools/results_diff.py          # or: make results-check

Exit status is non-zero if a count column moved, a table appeared that
is not committed, or a benchmark failed; problems print one per line.
Only the scale-1 tables are gated: a run at ``REPRO_BENCH_SCALE=N``
archives under ``results/scaleN/``, which this never reads.
"""

from __future__ import annotations

import glob
import os
import re
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_DIR = os.path.join(REPO_ROOT, "benchmarks", "results")

#: Wall-clock columns: the only ones allowed to differ between runs.
TIMING_COLUMNS = frozenset({"cpu_ms", "cpu_ms_per_insert", "build_s"})


def counts_only(text: str) -> list[list[str]]:
    """The table's cells, row by row, without the timing columns.

    Columns are cut where the dashed rule under the header cuts them
    (a cell may contain spaces), so this reads exactly what
    ``repro.bench.report.format_table`` wrote.
    """
    lines = text.splitlines()
    rule = next(i for i, line in enumerate(lines) if line.startswith("-"))
    spans = [m.span() for m in re.finditer(r"-+", lines[rule])]
    header = [lines[rule - 1][a:b].strip() for a, b in spans]
    keep = [span for span, name in zip(spans, header) if name not in TIMING_COLUMNS]
    title = [[line] for line in lines[:rule - 1]]
    return title + [[line[a:b].strip() for a, b in keep] for line in lines[rule - 1:]]


def read_results() -> dict[str, str]:
    tables = {}
    for path in sorted(glob.glob(os.path.join(RESULTS_DIR, "*.txt"))):
        with open(path) as handle:
            tables[os.path.basename(path)] = handle.read()
    return tables


def main() -> int:
    before = read_results()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    # --benchmark-disable: the tables come from the test bodies; the timed
    # callable runs once instead of being calibrated.
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks", "-q", "--benchmark-disable"],
        cwd=REPO_ROOT, env=env,
    )
    after = read_results()

    problems = []
    if run.returncode:
        problems.append(f"pytest benchmarks/ exited {run.returncode}")
    for name in sorted(after):
        if name not in before:
            problems.append(f"{name}: new table, not committed")
            continue
        old, new = counts_only(before[name]), counts_only(after[name])
        if old != new:
            problems.append(f"{name}: a count column moved")
            problems.extend(f"    - {'  '.join(a)}\n    + {'  '.join(b)}"
                            for a, b in zip(old, new) if a != b)
        elif before[name] != after[name]:
            with open(os.path.join(RESULTS_DIR, name), "w") as handle:
                handle.write(before[name])
    for problem in problems:
        print(problem)
    if not problems:
        print(f"results-check: {len(after)} tables, no count column moved")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
