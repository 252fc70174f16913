"""Benchmark harness: measurement runners and per-figure experiments.

* :mod:`~repro.bench.runner` — query batches and build-cost measurement
  with the paper's cold-buffer methodology;
* :mod:`~repro.bench.experiments` — one function per paper table/figure,
  with process-wide data-set/index memoization;
* :mod:`~repro.bench.report` — fixed-width table rendering and report
  archiving.
"""

from .report import format_table, format_value, write_report
from .runner import BuildCost, QueryCost, build_with_cost, run_query_batch

__all__ = [
    "BuildCost",
    "QueryCost",
    "build_with_cost",
    "format_table",
    "format_value",
    "run_query_batch",
    "write_report",
]
