#!/usr/bin/env python
"""Dependency-free pyflakes-level lint for the repository.

Runs (a) ``compileall`` over the given trees to catch syntax errors,
(b) an AST pass flagging unused imports, duplicate top-level
definitions, and ``__all__`` names that don't exist in the module, and
(c) a repository policy pass: ``pickle.loads``/``pickle.load`` may
appear only in the storage serializer (everything else goes through
the codec), raw page files may be constructed neither in library code
outside the storage layer nor in the example programs, stores only
inside the storage layer and the index base module, and library code
under ``src/repro`` may not ``print`` or call ``logging.getLogger`` —
the CLI and the structured event log (``repro.obs.events``) are the
only output surfaces — nor import ``http.server``, ``http.client``,
``email`` or ``urllib.request`` at all, nor ``socketserver`` outside
``repro/httpd.py``, the one HTTP substrate both ends of the wire use,
nor ``mmap`` outside ``repro/storage/pagefile.py`` (pages reach a
process through its buffer pool), nor call a pickling ``Connection``'s
``.send``/``.recv`` under ``repro/exec/`` (a serving pool's pipe
carries the wire's frames, through ``send_bytes``/``recv_bytes``).
Falls through to the real ``pyflakes`` when it is installed (its
diagnostics are a strict superset of (b); the policy pass runs either
way).

Usage::

    python tools/lint.py [paths ...]      # defaults to src tests benchmarks examples tools
"""

from __future__ import annotations

import ast
import compileall
import os
import subprocess
import sys

DEFAULT_PATHS = ("src", "tests", "benchmarks", "examples", "tools")


def iter_py_files(paths):
    for path in paths:
        if os.path.isfile(path) and path.endswith(".py"):
            yield path
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = [d for d in dirnames
                           if d not in {"__pycache__", ".git", "results"}]
            for name in filenames:
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)


class _ImportChecker(ast.NodeVisitor):
    """Collect imported names and every identifier the module mentions."""

    def __init__(self) -> None:
        self.imports: dict[str, tuple[int, str]] = {}
        self.used: set[str] = set()
        self.string_mentions: set[str] = set()

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            self.imports[name] = (node.lineno, alias.name)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "__future__":
            return
        for alias in node.names:
            if alias.name == "*":
                continue
            name = alias.asname or alias.name
            self.imports[name] = (node.lineno, alias.name)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.used.add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        # ``__all__`` entries and docstring references keep a name alive.
        if isinstance(node.value, str) and node.value.isidentifier():
            self.string_mentions.add(node.value)


def check_file(path: str) -> list[str]:
    with open(path, "rb") as handle:
        source = handle.read()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [f"{path}:{exc.lineno}: syntax error: {exc.msg}"]

    problems: list[str] = []
    checker = _ImportChecker()
    checker.visit(tree)
    live = checker.used | checker.string_mentions
    for name, (lineno, target) in sorted(checker.imports.items()):
        if name.startswith("_"):
            continue
        if name not in live:
            problems.append(
                f"{path}:{lineno}: '{target}' imported but unused"
            )

    # __all__ names must exist at module scope (imports count).
    module_names = set(checker.imports)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            module_names.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    module_names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            module_names.add(node.target.id)
        if isinstance(node, ast.FunctionDef) and node.name == "__getattr__":
            # A module __getattr__ (PEP 562) defines the names it spells.
            module_names.update(
                sub.value for sub in ast.walk(node)
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            for element in node.value.elts:
                if (isinstance(element, ast.Constant)
                        and isinstance(element.value, str)
                        and element.value not in module_names):
                    problems.append(
                        f"{path}:{element.lineno}: __all__ exports "
                        f"undefined name {element.value!r}"
                    )
    return problems


#: Files allowed to call ``pickle.loads``/``pickle.load`` directly: the
#: codec wraps them in ``SerializationError`` handling so a corrupt page
#: surfaces as a storage error, not a raw pickle traceback.
PICKLE_ALLOWED = (os.path.join("storage", "serializer.py"),)


def check_pickle_usage(path: str, tree: ast.Module) -> list[str]:
    """Flag ``pickle.loads``/``pickle.load`` outside the serializer."""
    if path.replace(os.sep, "/").endswith(
            tuple(p.replace(os.sep, "/") for p in PICKLE_ALLOWED)):
        return []
    problems: list[str] = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and node.attr in ("loads", "load")
                and isinstance(node.value, ast.Name)
                and node.value.id == "pickle"):
            problems.append(
                f"{path}:{node.lineno}: pickle.{node.attr} outside the "
                f"storage serializer; decode pages through NodeCodec"
            )
        elif isinstance(node, ast.ImportFrom) and node.module == "pickle":
            for alias in node.names:
                if alias.name in ("loads", "load"):
                    problems.append(
                        f"{path}:{node.lineno}: 'from pickle import "
                        f"{alias.name}' outside the storage serializer; "
                        f"decode pages through NodeCodec"
                    )
    return problems


#: Page-file classes that may be constructed only inside the storage
#: package (and its tests): the rest of the library must go through
#: ``repro.storage.open_pagefile`` / ``open_existing`` so checksum
#: trailers, fault injection, and WAL recovery stack in the right order,
#: and a user-facing program through ``repro.Database.create`` / ``open``.
PAGEFILE_CLASSES = frozenset({
    "FilePageFile",
    "InMemoryPageFile",
    "MmapPageFile",
    "ChecksumPageFile",
    "FaultInjectingPageFile",
})

#: Where direct page-file construction is policed: the library and the
#: example programs.  Tests and benchmarks legitimately build raw layers.
PAGEFILE_POLICED_PREFIXES = (
    os.path.join("src", "repro") + os.sep,
    "examples" + os.sep,
)

#: Inside the policed trees, the storage package defines the stack.
PAGEFILE_ALLOWED_PREFIXES = (
    os.path.join("src", "repro", "storage") + os.sep,
)


def check_pagefile_construction(path: str, tree: ast.Module) -> list[str]:
    """Flag direct ``*PageFile(...)`` construction in the library outside
    ``repro.storage`` and in the example programs."""
    norm = path.replace("/", os.sep)
    if not norm.startswith(PAGEFILE_POLICED_PREFIXES):
        return []
    if norm.startswith(PAGEFILE_ALLOWED_PREFIXES):
        return []
    problems: list[str] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name in PAGEFILE_CLASSES:
            problems.append(
                f"{path}:{node.lineno}: direct {name}(...) construction "
                f"outside repro.storage; use repro.Database.create/open "
                f"(inside repro: repro.storage.open_pagefile/open_existing)"
            )
    return problems


#: Index-handle stores that may be constructed from a raw page file /
#: base store only inside the storage package and the index base
#: module: everyone else must go through ``open_existing`` /
#: ``Database.open`` (live handles) or ``open_snapshot_store`` /
#: ``index.snapshot_view`` (epoch-pinned views), so a reader can never
#: observe a torn mix of pre- and post-commit pages — and a throw-away
#: "probe" store cannot come back unnoticed.
STORE_CLASSES = frozenset({
    "NodeStore",
    "SnapshotStore",
})

#: Where direct store construction is allowed: the storage package
#: (defines the stores) and the index base module, whose constructor,
#: move routine and restore routine own handle lifecycle.
STORE_ALLOWED_PREFIXES = (
    os.path.join("src", "repro", "storage") + os.sep,
    os.path.join("src", "repro", "indexes", "base.py"),
)


def check_store_construction(path: str, tree: ast.Module) -> list[str]:
    """Flag ``NodeStore``/``SnapshotStore`` construction outside the
    storage package and ``indexes/base.py``.

    Only library code under ``src/repro`` is policed; tests and
    benchmarks legitimately build raw stores to exercise single layers.
    """
    norm = path.replace("/", os.sep)
    if not norm.startswith(os.path.join("src", "repro") + os.sep):
        return []
    if any(norm.startswith(prefix) for prefix in STORE_ALLOWED_PREFIXES):
        return []
    problems: list[str] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name in STORE_CLASSES:
            problems.append(
                f"{path}:{node.lineno}: direct {name}(...) construction "
                f"outside repro.storage and indexes/base.py; open handles "
                f"through Database.open or index.snapshot_view()"
            )
    return problems


#: Library files allowed to write to stdout/stderr directly: the CLI
#: (whose job is printing) and the event log (the single logging
#: surface — everything else emits through ``repro.obs.events.EVENTS``
#: so operators get one structured, level-filtered stream).
LOGGING_ALLOWED = (
    os.path.join("src", "repro", "cli.py"),
    os.path.join("src", "repro", "obs", "events.py"),
)


def check_logging_surface(path: str, tree: ast.Module) -> list[str]:
    """Flag ``print(...)`` calls and ``logging.getLogger`` under
    ``src/repro`` outside the CLI and the event log.

    Keeps the library silent by construction: diagnostics go through
    the structured event log (``repro.obs.events``), never ad-hoc
    stdout writes or per-module loggers.
    """
    norm = path.replace("/", os.sep)
    if not norm.startswith(os.path.join("src", "repro") + os.sep):
        return []
    if norm.endswith(LOGGING_ALLOWED):
        return []
    problems: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "print":
                problems.append(
                    f"{path}:{node.lineno}: print() in library code; "
                    f"emit a structured event through repro.obs.events "
                    f"instead"
                )
            elif (isinstance(func, ast.Attribute)
                    and func.attr == "getLogger"
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "logging"):
                problems.append(
                    f"{path}:{node.lineno}: logging.getLogger in library "
                    f"code; emit through repro.obs.events instead"
                )
        elif isinstance(node, ast.ImportFrom) and node.module == "logging":
            for alias in node.names:
                if alias.name == "getLogger":
                    problems.append(
                        f"{path}:{node.lineno}: 'from logging import "
                        f"getLogger' in library code; emit through "
                        f"repro.obs.events instead"
                    )
    return problems


#: The one library module that may stand on ``socketserver``: both ends
#: of the wire frame HTTP through it, so keep-alive, body framing, the
#: head reader and the response writer exist (and get fixed, and get
#: fuzzed) once.
HTTP_STACK_ALLOWED = os.path.join("src", "repro", "httpd.py")
#: The stdlib's HTTP stack, which no library module loads: it costs
#: every process that imports ``repro`` ~7 MB, and the substrate frames
#: HTTP/1.1 itself.
HTTP_STACK_REFUSED = ("http.server", "http.client", "email",
                      "urllib.request")


def _refused_http_module(module: str) -> str | None:
    for refused in HTTP_STACK_REFUSED:
        if module == refused or module.startswith(refused + "."):
            return refused
    return None


def check_http_stack(path: str, tree: ast.Module) -> list[str]:
    """Flag ``http.server``/``http.client``/``email``/``urllib.request``
    imports anywhere under ``src/repro``, and ``socketserver`` imports
    outside the HTTP substrate."""
    norm = path.replace("/", os.sep)
    if not norm.startswith(os.path.join("src", "repro") + os.sep):
        return []
    problems: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module] + [f"{node.module}.{alias.name}"
                                       for alias in node.names]
        else:
            continue
        for module in modules:
            refused = _refused_http_module(module)
            if refused is not None:
                problems.append(
                    f"{path}:{node.lineno}: {refused} imported in library "
                    f"code; frame HTTP through repro.httpd"
                )
                break
            if module == "socketserver" and norm != HTTP_STACK_ALLOWED:
                problems.append(
                    f"{path}:{node.lineno}: socketserver imported outside "
                    f"repro/httpd.py; serve through repro.httpd.HttpListener"
                )
    return problems


#: The one library module that may import ``mmap``: a page reaches a
#: process through its buffer pool, whose frames own their rows, and a
#: map under it only adds a second, uncounted copy of every page touched.
MMAP_ALLOWED = os.path.join("src", "repro", "storage", "pagefile.py")


def check_mmap_import(path: str, tree: ast.Module) -> list[str]:
    """Flag ``mmap`` imports under ``src/repro`` outside the page-file
    module."""
    norm = path.replace("/", os.sep)
    if (not norm.startswith(os.path.join("src", "repro") + os.sep)
            or norm == MMAP_ALLOWED):
        return []
    return [
        f"{path}:{node.lineno}: mmap imported outside "
        f"repro/storage/pagefile.py; read pages through "
        f"repro.storage.open_pagefile/open_existing"
        for node in ast.walk(tree)
        if (isinstance(node, ast.Import)
            and any(alias.name == "mmap" for alias in node.names))
        or (isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module == "mmap")
    ]


#: The query packages, and the one module per traversal that may read a
#: node there: the depth-first search (a single k-NN, range or window
#: query is a block of one) and the best-first search.
TRAVERSAL_PACKAGES = tuple(os.path.join("src", "repro", package) + os.sep
                           for package in ("search", "exec"))
TRAVERSALS = {os.path.join("src", "repro", *parts) for parts in (
    ("exec", "batch.py"), ("search", "incremental.py"))}


def check_query_traversals(path: str, tree: ast.Module) -> list[str]:
    """Flag ``read_node(...)`` calls under ``repro/search/`` and
    ``repro/exec/`` outside the two traversal modules: a second
    depth-first loop is a second engine to keep in step."""
    norm = path.replace("/", os.sep)
    if not norm.startswith(TRAVERSAL_PACKAGES) or norm in TRAVERSALS:
        return []
    return [
        f"{path}:{node.lineno}: read_node() outside the query traversals; "
        f"a depth-first query runs repro.exec.batch.depth_first "
        f"(a single query is a block of one)"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "read_node"
    ]


#: Where a pipe is a serving pool's: its messages are the wire's JSON
#: parts, matrix frames and neighbor blocks, never pickles.
PIPE_POLICED = os.path.join("src", "repro", "exec") + os.sep


def check_pipe_pickling(path: str, tree: ast.Module) -> list[str]:
    """Flag ``.send(...)``/``.recv(...)`` calls under ``repro/exec/``:
    on a ``multiprocessing`` connection they pickle and unpickle."""
    if not path.replace("/", os.sep).startswith(PIPE_POLICED):
        return []
    return [
        f"{path}:{node.lineno}: .{node.func.attr}() pickles over the pipe; "
        f"send the wire's bytes with send_bytes/recv_bytes"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("send", "recv")
    ]


#: The one package that may spell a distance to a box out in numpy.
GEOMETRY_PACKAGE = os.path.join("src", "repro", "geometry") + os.sep


def _is_np_call(node: ast.AST, names: tuple[str, ...]) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in names
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "np")


def check_box_distance_spelling(path: str, tree: ast.Module) -> list[str]:
    """Flag ``np.maximum(np.maximum(...), ...)`` and
    ``np.maximum(np.abs(...), ...)`` under ``src/repro`` outside
    ``repro/geometry/``.

    Those are the box-MINDIST and farthest-vertex formulas; the kernels in
    ``repro.geometry.rectangle`` are their one spelling.
    """
    norm = path.replace("/", os.sep)
    if (not norm.startswith(os.path.join("src", "repro") + os.sep)
            or norm.startswith(GEOMETRY_PACKAGE)):
        return []
    return [
        f"{path}:{node.lineno}: box distance spelled out in numpy; call "
        f"repro.geometry's mindist_point_rects / farthest_point_rects"
        for node in ast.walk(tree)
        if _is_np_call(node, ("maximum",)) and node.args
        and _is_np_call(node.args[0], ("maximum", "abs"))
    ]


def run_policy_pass(paths) -> int:
    """Repository policy checks that run even when pyflakes is installed."""
    problems: list[str] = []
    for path in iter_py_files(paths):
        with open(path, "rb") as handle:
            source = handle.read()
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError:
            continue  # compileall/pyflakes already reported it
        problems.extend(check_pickle_usage(path, tree))
        problems.extend(check_pagefile_construction(path, tree))
        problems.extend(check_store_construction(path, tree))
        problems.extend(check_logging_surface(path, tree))
        problems.extend(check_http_stack(path, tree))
        problems.extend(check_mmap_import(path, tree))
        problems.extend(check_pipe_pickling(path, tree))
        problems.extend(check_query_traversals(path, tree))
        problems.extend(check_box_distance_spelling(path, tree))
    for problem in problems:
        print(problem)
    if problems:
        print(f"lint: {len(problems)} policy problem(s)", file=sys.stderr)
    return 1 if problems else 0


def main(argv: list[str]) -> int:
    paths = [p for p in (argv or list(DEFAULT_PATHS)) if os.path.exists(p)]

    ok = True
    for path in paths:
        if os.path.isdir(path):
            ok &= compileall.compile_dir(path, quiet=2, force=False)
        else:
            ok &= compileall.compile_file(path, quiet=2)
    if not ok:
        print("lint: compileall failed", file=sys.stderr)
        return 1

    policy_rc = run_policy_pass(paths)

    # Prefer the real pyflakes when present.
    try:
        import pyflakes  # noqa: F401

        result = subprocess.run(
            [sys.executable, "-m", "pyflakes", *paths], check=False
        )
        return result.returncode or policy_rc
    except ImportError:
        pass

    problems: list[str] = []
    for path in iter_py_files(paths):
        problems.extend(check_file(path))
    for problem in problems:
        print(problem)
    if problems:
        print(f"lint: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    if policy_rc:
        return policy_rc
    print(f"lint: ok ({len(list(iter_py_files(paths)))} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
