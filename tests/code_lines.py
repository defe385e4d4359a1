#!/usr/bin/env python3
"""Code lines of src/bapp, per module and in total.

    python3 tests/code_lines.py [DIR]

A code line holds at least one token other than a comment, a newline, an
indent or a dedent, and lies outside every module, class and function
docstring. Blank lines, comment lines and docstrings are not counted;
a line with code and a trailing comment is. DIR defaults to src/bapp.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "bapp"

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(source))


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else SRC
    total = 0
    for path in sorted(src.glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6,d}  {path.name}")
    print(f"{total:6,d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
