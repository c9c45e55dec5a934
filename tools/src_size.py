#!/usr/bin/env python3
"""Lines and code lines of each ``src/moricensus`` module, then the totals.

A code line holds at least one token that is not a comment and not
part of a docstring (the string that opens a module, class or
function body); blank, comment and docstring lines are excluded.

Usage:
    python tools/src_size.py [PATH ...]

With no PATH it counts every ``*.py`` file in ``src/moricensus``.
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "moricensus"

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple:
    """(lines, code lines) of one module's source."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - _docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", type=Path, metavar="PATH")
    args = parser.parse_args(argv)
    paths = args.paths or sorted(PACKAGE.glob("*.py"))
    rows = [(path.name, *count(path.read_text("utf-8"))) for path in paths]
    print(f"{'module':<16} {'lines':>6} {'code':>6}")
    for name, lines, code in rows:
        print(f"{name:<16} {lines:>6} {code:>6}")
    print(f"{'total':<16} {sum(r[1] for r in rows):>6} {sum(r[2] for r in rows):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
