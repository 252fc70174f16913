"""Shared machinery for the per-figure benchmark modules.

Every module regenerates one table/figure of the paper: it runs the
corresponding experiment from :mod:`repro.bench.experiments`, archives
the table under ``benchmarks/results/``, prints it, asserts the
qualitative shape the paper reports, and times a representative
operation through pytest-benchmark.

Run with::

    pytest benchmarks/ --benchmark-only

Scale every data set up or down with ``REPRO_BENCH_SCALE`` (default 1;
the paper's original sizes correspond to roughly 10).  A scaled run
archives its tables under ``results/scale{N}/``, beside the committed
scale-1 tables that ``make results-check`` gates, not over them.
"""

from __future__ import annotations

import os

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def archive(name: str, title: str, headers, rows) -> str:
    """Format, archive, and print one experiment table."""
    from repro.bench.experiments import scale
    from repro.bench.report import format_table, write_report

    body = format_table(headers, rows)
    factor = scale()
    directory = (RESULTS_DIR if factor == 1
                 else os.path.join(RESULTS_DIR, f"scale{factor:g}"))
    text = write_report(os.path.join(directory, f"{name}.txt"), title, body)
    print(f"\n{text}")
    return text


def by_kind(rows, key_col: int, kind_col: int = 1):
    """Group rows into {kind: {key: row}} for qualitative assertions."""
    table: dict[str, dict] = {}
    for row in rows:
        table.setdefault(row[kind_col], {})[row[key_col]] = row
    return table


@pytest.fixture(scope="session", autouse=True)
def _shared_experiment_caches():
    """Keep experiment caches alive for the whole benchmark session."""
    yield
    from repro.bench.experiments import clear_caches

    clear_caches()
