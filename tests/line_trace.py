"""List the statements of ``src/reslat`` that the tier-1 suite never runs.

Run from the repository root, with pytest arguments after the script's
name if wanted:

    PYTHONPATH=src python tests/line_trace.py

The suite runs in this process under ``sys.settrace``, started before
anything imports reslat, so module-level code is seen as well.  Lines run
only in a subprocess or a pool worker are not seen.  A statement counts as
run when any line of its own fires a line event: all its lines for a
simple statement, the header for a compound one (decorators included).
Docstrings, ``global``, ``nonlocal``, ``try:`` and bare annotations inside
functions compile to no line events and are not statements here.

Prints the unrun statements as ``file:line: source``, ``raise`` statements
apart, and exits 1 when a test fails or an unrun statement that is not a
``raise`` is missing from ``ALLOWED``.  The standard library only:
``coverage`` is not a dependency.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "reslat"

# (file, source line stripped) of the statements that may stay unrun
ALLOWED = {
    # the entry point of `python -m reslat.cli`
    ("cli.py", "sys.exit(main())"),
}


def _own_lines(node: ast.stmt) -> range:
    start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    body = getattr(node, "body", None)
    end = body[0].lineno - 1 if body else node.end_lineno
    return range(start, max(start, end) + 1)


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and parent.body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def statements(path: Path) -> list[ast.stmt]:
    """The statements of a module that compile to at least one line event."""
    tree = ast.parse(path.read_text("utf-8"))
    out = []

    def visit(parent: ast.AST, in_function: bool) -> None:
        for field in ("body", "orelse", "finalbody", "handlers"):
            for node in getattr(parent, field, ()):
                if isinstance(node, ast.ExceptHandler):
                    visit(node, in_function)
                    continue
                silent = (
                    _is_docstring(node, parent)
                    or isinstance(node, (ast.Global, ast.Nonlocal, ast.Try))
                    or (in_function and isinstance(node, ast.AnnAssign) and node.value is None)
                )
                if not silent:
                    out.append(node)
                inner = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                visit(node, inner)

    visit(tree, False)
    return out


def main(argv: list[str]) -> int:
    hits: dict[str, set[int]] = {str(p): set() for p in SRC.glob("*.py")}

    def local_for(lines: set[int]):
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    # co_filename, as the code object gives it -> its local tracer, or None
    # outside src/reslat
    locals_by_name: dict[str, object] = {}

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in locals_by_name:
            lines = hits.get(os.path.abspath(name))
            locals_by_name[name] = None if lines is None else local_for(lines)
        return locals_by_name[name]

    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    unrun, raises = [], []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text("utf-8").splitlines()
        ran = hits[str(path)]
        for node in statements(path):
            if not ran.intersection(_own_lines(node)):
                text = source[node.lineno - 1].strip()
                entry = (path.name, node.lineno, text)
                (raises if isinstance(node, ast.Raise) else unrun).append(entry)
    unexpected = [e for e in unrun if (e[0], e[2]) not in ALLOWED]
    print(f"\nunrun statements in src/reslat: {len(unrun)} ({len(unexpected)} not allowed)")
    for name, line, text in unrun:
        mark = "" if (name, text) in ALLOWED else "  <- not allowed"
        print(f"  {name}:{line}: {text}{mark}")
    print(f"unrun raise statements: {len(raises)}")
    for name, line, text in raises:
        print(f"  {name}:{line}: {text}")
    return 1 if status != 0 or unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
