#!/usr/bin/env python
"""Code lines per file and per package: ``python tools/sloc.py [root]``.

A code line is a physical line carrying a token that is neither a
comment nor part of a docstring (any bare string statement), so blank
lines, comments and docstring edits do not move the count.
"""

import ast
import os
import sys
import tokenize

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: str) -> int:
    with open(path, "rb") as handle:
        tree = ast.parse(handle.read(), filename=path)
        handle.seek(0)
        tokens = list(tokenize.tokenize(handle.readline))
    lines: set[int] = set()
    for token in tokens:
        if token.type not in _SKIP:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            lines.difference_update(range(node.lineno, node.end_lineno + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    root = argv[0] if argv else os.path.join("src", "repro")
    packages: dict[str, int] = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            count = code_lines(os.path.join(dirpath, name))
            packages[dirpath] = packages.get(dirpath, 0) + count
            print(f"{count:6d}  {os.path.join(dirpath, name)}")
    for package, count in packages.items():
        print(f"{count:6d}  {package}{os.sep}")
    print(f"{sum(packages.values()):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
