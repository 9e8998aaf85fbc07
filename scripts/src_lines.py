#!/usr/bin/env python3
"""Count the lines and the code lines of each module of the package.

A code line holds at least one token that is not a comment, and is not
part of a docstring (the first statement of a module, class or function
when it is a string literal).  Blank lines and comment-only lines are not
code.  Prints one row per module, then the totals.

Usage: python scripts/src_lines.py [path ...]
(default: every .py file of src/pentaset)
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(lines, code lines) of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - _docstring_lines(ast.parse(source)))


def main() -> None:
    root = Path(__file__).resolve().parent.parent
    paths = [Path(a) for a in sys.argv[1:]] or sorted((root / "src" / "pentaset").glob("*.py"))
    total_lines = total_code = 0
    print(f"{'module':<24} {'lines':>6} {'code':>6}")
    for path in paths:
        lines, code = count(path.read_text(encoding="utf-8"))
        total_lines, total_code = total_lines + lines, total_code + code
        print(f"{path.name:<24} {lines:>6} {code:>6}")
    print(f"{'total':<24} {total_lines:>6} {total_code:>6}")


if __name__ == "__main__":
    main()
