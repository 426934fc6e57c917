"""Count the code lines of a Python source tree.

A code line is a line that holds at least one token of code: blank lines,
comment-only lines and the lines of docstrings (the leading string of a
module, class or function) do not count.  A statement that spans several
lines counts each line it is written on.

    python scripts/code_lines.py            # src/graphabac
    python scripts/code_lines.py some/dir   # any other tree
"""

from __future__ import annotations

import argparse
import ast
import io
import pathlib
import sys
import tokenize

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers that docstrings take up in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _HAS_DOCSTRING) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    skip = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip)
    return len(lines)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("root", nargs="?", default="src/graphabac", help="directory to count")
    args = ap.parse_args(argv)
    root = pathlib.Path(args.root)
    files = sorted(root.rglob("*.py"))
    if not files:
        print(f"code_lines: no Python files under {root}", file=sys.stderr)
        return 1
    print(sum(code_lines(path.read_text(encoding="utf-8")) for path in files))
    return 0


if __name__ == "__main__":
    sys.exit(main())
