#!/usr/bin/env python3
"""Count code lines: non-blank, non-comment lines outside docstrings.

A docstring is the string literal that opens a module, class or function
body; every line it spans is left out.  Prints the count of each Python
module under the given paths (files or directories, default ``src/proxmg``)
and their total:

    python3 tools/code_lines.py src/proxmg
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers spanned by the docstrings of a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    skip = docstring_lines(ast.parse(source))
    return sum(1 for number, line in enumerate(source.splitlines(), start=1)
               if number not in skip and line.strip() and not line.lstrip().startswith("#"))


def main(argv: list[str]) -> int:
    files = []
    for arg in argv or ["src/proxmg"]:
        path = Path(arg)
        files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    total = 0
    for path in files:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
