#!/usr/bin/env python3
"""Code lines of src/bapp, per module and in total.

    python3 tests/code_lines.py [DIR]
    python3 tests/code_lines.py --base REV

A code line holds at least one token other than a comment, a newline, an
indent or a dedent, and lies outside every module, class and function
docstring. Blank lines, comment lines and docstrings are not counted;
a line with code and a trailing comment is. DIR defaults to src/bapp.
With --base, each module of src/bapp is counted at git revision REV
(read with `git show`) and in the working tree, and the delta is printed.
"""

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bapp"

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


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout


def counts_at(rev: str) -> dict[str, int]:
    """Code lines of each src/bapp module at git revision `rev`."""
    rel = SRC.relative_to(ROOT).as_posix()
    names = [Path(p).name for p in _git("ls-tree", "--name-only", f"{rev}:{rel}").split()]
    return {name: code_lines(_git("show", f"{rev}:{rel}/{name}"))
            for name in names if name.endswith(".py")}


def counts_in(src: Path) -> dict[str, int]:
    return {path.name: code_lines(path.read_text(encoding="utf-8"))
            for path in sorted(src.glob("*.py"))}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Count the code lines of src/bapp.")
    parser.add_argument("dir", nargs="?", type=Path, default=SRC)
    parser.add_argument("--base", metavar="REV", help="also count at this git revision")
    args = parser.parse_args(argv)
    now = counts_in(args.dir)
    if args.base is None:
        for name, n in now.items():
            print(f"{n:6,d}  {name}")
        print(f"{sum(now.values()):6,d}  total")
        return 0
    base = counts_at(args.base)
    print(f"{args.base[:10]:>10}  {'now':>6}  {'delta':>6}")
    for name in sorted(set(base) | set(now)):
        b, n = base.get(name, 0), now.get(name, 0)
        print(f"{b:10,d}  {n:6,d}  {n - b:+6,d}  {name}")
    b, n = sum(base.values()), sum(now.values())
    print(f"{b:10,d}  {n:6,d}  {n - b:+6,d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
