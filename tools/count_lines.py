"""Count the lines of the divpos package: all lines, and lines of code.

A line of code holds at least one token that is not a comment, a docstring
or layout.  Every .py file under the package is counted; one line per file
comes first, then the package total.

Usage: python3 tools/count_lines.py [PACKAGE_DIR]   (default: src/divpos)
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(all lines, lines of code) of one source file."""
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docstring_lines(ast.parse(text)))


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else "src/divpos")
    total = code = 0
    for path in sorted(root.rglob("*.py")):
        t, c = count(path.read_text(encoding="utf-8"))
        print(f"{path}: {t:,} lines, {c:,} of code")
        total += t
        code += c
    print(f"{root}: {total:,} lines, {code:,} of code")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
