"""Line counts of ``src/lco_lab``: lines, code lines and docstring lines per module.

Run from anywhere:

    python tests/srcloc.py

A code line holds a token other than a comment, NL, INDENT or DEDENT (a
token spanning lines, such as a multi-line string, holds each of them) and
is not inside a docstring.  Docstrings are those of modules, classes and
functions, nested ones included.  It is not a test module, so pytest does
not collect it.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lco_lab"
# ENDMARKER sits on the line after the last
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def counts(text: str) -> tuple[int, int, int]:
    """``(lines, code lines, docstring lines)`` of the Python source ``text``."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(text.splitlines()), len(code - docstrings), len(docstrings)


def main() -> int:
    rows = [(path.name, *counts(path.read_text(encoding="utf-8"))) for path in sorted(SRC.glob("*.py"))]
    rows.append(("total", *(sum(column) for column in list(zip(*rows))[1:])))
    print(f"{'module':<16}{'lines':>7}{'code':>7}{'doc':>7}")
    for name, lines, code, doc in rows:
        print(f"{name:<16}{lines:>7}{code:>7}{doc:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
