"""A pytest plugin that lists every statement of ``src/lco_lab`` no test ran.

Run on request, from the repository root:

    python -m pytest -p linetrace

It is not a test module, so pytest does not collect it.  From
``pytest_configure`` on, before any test module imports the library, a
``sys.settrace`` tracer records the line events of the library's frames
(frames of other files are not line-traced).  At the end of the test run it
prints, under "statements no test ran", each statement of ``src/lco_lab``
none of whose lines ran, outermost only: the statements inside one that
never ran are not listed again.  A compound statement (``if``, ``for``,
``def``, ...) counts as run when any line of it ran.  Docstrings and
``from __future__`` imports are not statements that run.  The trace slows
the suite several times over.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lco_lab"
_PREFIX = str(SRC) + "/"
_ran: dict[str, set[int]] = {}


def _trace(frame, event, arg):
    filename = frame.f_code.co_filename
    if not filename.startswith(_PREFIX):
        return None
    lines = _ran.setdefault(filename, set())

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    return local


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and parent.body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _unrun(node: ast.AST, ran: set[int]):
    """The outermost statements (and ``except`` clauses) under ``node`` none of whose lines ran, as (line, node)."""
    for field in ("body", "orelse", "finalbody", "handlers"):
        for child in getattr(node, field, ()):
            if _is_docstring(child, node) or (isinstance(child, ast.ImportFrom) and child.module == "__future__"):
                continue
            first = min([child.lineno, *(d.lineno for d in getattr(child, "decorator_list", ()))])
            if ran.isdisjoint(range(first, child.end_lineno + 1)):
                yield child.lineno, child
            else:
                yield from _unrun(child, ran)


def unrun_statements() -> list[str]:
    """Each statement no traced test ran, as "file:line: first line of source"."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        ran = _ran.get(str(path), set())
        for lineno, _ in _unrun(ast.parse(text), ran):
            found.append(f"{path.name}:{lineno}: {lines[lineno - 1].strip()}")
    return found


def pytest_configure(config):
    sys.settrace(_trace)
    threading.settrace(_trace)


def pytest_unconfigure(config):
    sys.settrace(None)
    threading.settrace(None)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    found = unrun_statements()
    terminalreporter.section(f"statements no test ran: {len(found)}")
    for line in found:
        terminalreporter.write_line(line)
