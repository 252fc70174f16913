"""EXPLAIN: replay a recorded trace span into a readable tree walk.

Given a finished :class:`~repro.obs.tracer.Span`, :func:`explain`
renders the per-level story of the traversal — how many nodes each
level contributed, how many children were pruned on their region
MINDIST, how hard the priority queue was pressed, and how the page
fetches split between physical reads and buffer hits::

    EXPLAIN knn{k=21} — 3.42 ms
    level  visited  pruned  prune%   pages  buffer-hits
    2 (root)     1       0    0.0%       1            0
    1            4       9   69.2%       4            0
    0 (leaf)     11     35   76.1%      11            0
    ------------------------------------------------------
    nodes visited 16 · children pruned 44 · pruning efficiency 74.6%
    pages read 16 physical (5 node + 11 leaf) · buffer hits 0 (0.0%)
    queue: pushed 0 · popped 0 · peak 0

The physical-page total equals the query's
:class:`~repro.storage.stats.IOStats` ``page_reads`` delta by
construction (both count buffer misses, extent-weighted), which the
test suite asserts end-to-end.
"""

from __future__ import annotations

from collections import defaultdict

from .tracer import DESCENDED, Span

__all__ = ["explain", "level_breakdown", "ExplainError"]


class ExplainError(ValueError):
    """Raised when a span holds no trace events to explain."""


def _walk(span: Span):
    yield span
    for child in span.children:
        yield from _walk(child)


def level_breakdown(span: Span) -> dict[int, dict[str, int]]:
    """Aggregate a span (and nested spans) into per-level tallies.

    Returns ``{level: {"visited", "pruned", "pages", "hits"}}`` with
    level 0 = leaves.  ``pages`` is physical pages read (extent
    weighted); ``hits`` is buffer-pool hits.
    """
    levels: dict[int, dict[str, int]] = defaultdict(
        lambda: {"visited": 0, "pruned": 0, "pages": 0, "hits": 0}
    )
    for part in _walk(span):
        for visit in part.visits:
            key = "visited" if visit.verdict == DESCENDED else "pruned"
            levels[visit.level][key] += 1
        for fetch in part.fetches:
            if fetch.hit:
                levels[fetch.level]["hits"] += 1
            else:
                levels[fetch.level]["pages"] += fetch.pages
    return dict(levels)


def explain(span: Span) -> str:
    """Render a finished span as a human-readable EXPLAIN report."""
    levels = level_breakdown(span)
    if not levels:
        raise ExplainError(
            f"span {span.name!r} recorded no node events — was tracing "
            "enabled before the query ran?"
        )

    visited = pruned = pages = hits = 0
    node_pages = leaf_pages = 0
    for level, row in levels.items():
        visited += row["visited"]
        pruned += row["pruned"]
        pages += row["pages"]
        hits += row["hits"]
        if level == 0:
            leaf_pages += row["pages"]
        else:
            node_pages += row["pages"]

    top = max(levels)
    label = {0: "(leaf)", top: "(root)"}
    if top == 0:
        label[0] = "(root/leaf)"

    rows = []
    for level in sorted(levels, reverse=True):
        row = levels[level]
        decisions = row["visited"] + row["pruned"]
        prune_pct = (100.0 * row["pruned"] / decisions) if decisions else 0.0
        rows.append((
            f"{level} {label.get(level, '')}".strip(),
            str(row["visited"]),
            str(row["pruned"]),
            f"{prune_pct:.1f}%",
            str(row["pages"]),
            str(row["hits"]),
        ))

    headers = ("level", "visited", "pruned", "prune%", "pages", "buffer-hits")
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    table = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip()]
    for row in rows:
        table.append(
            "  ".join(
                cell.ljust(widths[0]) if i == 0 else cell.rjust(widths[i])
                for i, cell in enumerate(row)
            ).rstrip()
        )

    # Every visit event except the root entries decides one child; the
    # pruning efficiency is the fraction of considered children the
    # region MINDIST discarded without a page fetch.
    root_visits = levels[top]["visited"]
    child_decisions = max(visited - root_visits, 0) + pruned
    efficiency = (100.0 * pruned / child_decisions) if child_decisions else 0.0

    fetches = pages + hits
    hit_pct = (100.0 * hits / (hits + pages)) if fetches else 0.0

    labels = ", ".join(f"{k}={v}" for k, v in span.labels.items())
    title = f"EXPLAIN {span.name}" + (f"{{{labels}}}" if labels else "")

    lines = [f"{title} — {span.wall_ms:.2f} ms"]
    lines.extend(table)
    lines.append("-" * max(len(line) for line in table))
    lines.append(
        f"nodes visited {visited} · children pruned {pruned} · "
        f"pruning efficiency {efficiency:.1f}%"
    )
    lines.append(
        f"pages read {pages} physical ({node_pages} node + {leaf_pages} leaf) · "
        f"buffer hits {hits} ({hit_pct:.1f}%)"
    )
    pushes = sum(p.queue_pushes for p in _walk(span))
    pops = sum(p.queue_pops for p in _walk(span))
    peak = max(p.queue_peak for p in _walk(span))
    if pushes or pops or peak:
        lines.append(f"queue: pushed {pushes} · popped {pops} · peak {peak} pending")
    return "\n".join(lines)
