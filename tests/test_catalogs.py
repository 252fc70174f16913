"""The documented catalogs are the ones the code has.

``DESIGN.md``'s layout block names every module under ``src/repro``,
``docs/OBSERVABILITY.md`` lists every metric family and every event,
``docs/SERVING.md`` and the ``repro.net.protocol`` docstring every
endpoint (``docs/SERVING.md`` the telemetry paths too), ``README.md``
and ``docs/API.md`` every CLI sub-command (``docs/API.md`` its flags
too, and each handle's read keywords).  Each list is re-derived
here from the code — the families in ``REGISTRY``, the literals passed
to ``emit(`` under ``src/repro``, ``protocol.ENDPOINTS`` and
``repro.obs.server.PATHS``, the argparse sub-parsers, the handles'
signatures — and must match name for name, so a metric, event,
endpoint, command or keyword cannot be added, renamed or dropped on one
side only.
(A test, not a ``tools/lint.py`` policy: the linter imports nothing from
the package, and the registry is only knowable by importing it.)
"""

from __future__ import annotations

import argparse
import inspect
import re
from pathlib import Path

from repro import Database, Snapshot
from repro.cli import _build_parser
from repro.exec import ServingPool
from repro.net import RemoteDatabase, protocol
from repro.obs import REGISTRY
from repro.obs import server as telemetry

ROOT = Path(__file__).resolve().parents[1]


def _first_column(path: str, start: str, end: str, pattern: str) -> list[str]:
    """Names matching ``pattern`` in the first cell of every table row of
    the part of ``path`` between the lines ``start`` and ``end``."""
    text = (ROOT / path).read_text(encoding="utf-8")
    section = text[text.index(start):text.index(end)]
    return [name
            for line in section.splitlines() if line.startswith("| `")
            for name in re.findall(pattern, line.split("|")[1])]


def _in_source(pattern: str) -> set[str]:
    return {name
            for path in (ROOT / "src" / "repro").rglob("*.py")
            for name in re.findall(pattern, path.read_text(encoding="utf-8"))}


def _layout_modules() -> list[str]:
    """Every module ``DESIGN.md``'s layout block names, as its path under
    ``src/repro``: a line at two spaces opens a package (``name/``) or
    lists top-level modules, a deeper line continues the package."""
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    block = text[text.index("```\nsrc/repro/\n"):]
    block = block[:block.index("\ntests/")]
    named, package = [], ""
    for line in block.splitlines()[2:]:
        words = line.split()
        if not line.startswith("   "):
            package = words.pop(0) if words[0].endswith("/") else ""
        named.extend(package + word for word in words)
    return named


def test_design_layout_is_the_source_tree():
    source = ROOT / "src" / "repro"
    modules = [path.relative_to(source).as_posix()
               for path in source.rglob("*.py") if path.name != "__init__.py"]
    assert sorted(_layout_modules()) == sorted(modules)


def test_metric_catalog_is_the_registry():
    documented = _first_column("docs/OBSERVABILITY.md", "### Metric catalog",
                               "## The tracer", r"`(repro_\w+)`")
    assert sorted(documented) == sorted(f.name for f in REGISTRY.families())


def test_event_catalog_is_what_the_code_emits():
    documented = _first_column("docs/OBSERVABILITY.md",
                               "### The structured event log",
                               "Events land in a bounded ring", r"`(\w+)`")
    emitted = _in_source(r'\bemit\(\s*"(\w+)"')
    assert sorted(documented) == sorted(emitted)


def test_endpoint_tables_are_the_protocol():
    serving = _first_column("docs/SERVING.md", "## Endpoints",
                            "### Request framing", r"`/v1/(\w+)`")
    docstring = re.findall(r"^``/v1/(\w+)``", protocol.__doc__, re.MULTILINE)
    assert sorted(serving) == sorted(protocol.ENDPOINTS)
    assert sorted(docstring) == sorted(protocol.ENDPOINTS)
    # The telemetry paths share the query port, and the table.
    paths = _first_column("docs/SERVING.md", "## Endpoints",
                          "### Request framing", r"`(/(?!v1/)\w+)`")
    assert paths == list(telemetry.PATHS)


def test_cli_command_lists_are_the_parser():
    parsers, = (action.choices for action in _build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))
    commands = sorted(parsers)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    one_line, = re.findall(r"`python -m repro \{([\w,-]+)\}`", readme)
    api = (ROOT / "docs" / "API.md").read_text(encoding="utf-8")
    block = api[api.index("## CLI"):].split("```")[1]
    assert sorted(one_line.split(",")) == commands
    # continuation lines of a command's flags are indented
    assert sorted(re.findall(r"^([\w-]+)", block, re.MULTILINE)) == commands
    # Each command's documented flags (comments after `#` aside) are the
    # parser's, hidden ones left out.
    documented = {}
    for line in block.strip().splitlines():
        if not line[0].isspace():
            command = line.split()[0]
        flags = re.findall(r"(?<![\w-])(--?[a-z][\w-]*)", line.split("#")[0])
        documented.setdefault(command, set()).update(flags)
    for command, parser in parsers.items():
        flags = {flag for action in parser._actions
                 if action.help is not argparse.SUPPRESS
                 and not isinstance(action, argparse._HelpAction)
                 for flag in action.option_strings}
        assert documented[command] == flags, command


#: The first cell of each row of docs/API.md's extension table, and the
#: handle classes it speaks for.
EXTENSION_ROWS = {
    "`ServingPool`": (ServingPool,),
    "`RemoteDatabase`": (RemoteDatabase,),
    "`Database`, `Snapshot`": (Database, Snapshot),
}


def test_extension_rows_name_each_handles_read_keywords():
    api = (ROOT / "docs" / "API.md").read_text(encoding="utf-8")
    for cell, classes in EXTENSION_ROWS.items():
        row, = (line for line in api.splitlines()
                if line.startswith(f"| {cell} |"))
        keywords = {name
                    for cls in classes
                    for method in ("knn", "knn_batch", "range", "range_batch",
                                   "window", "lookup")
                    for name, param in inspect.signature(
                        getattr(cls, method)).parameters.items()
                    if param.kind is param.KEYWORD_ONLY}
        # Every ``x=`` the row names, inside a call (``knn(x=)``) or not.
        assert set(re.findall(r"(\w+)=", row)) == keywords, cell
