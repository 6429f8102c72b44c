"""Every public module-level function and class in ``src/reslat`` has a reader.

A name counts as read when code outside its own definition refers to it
(as a name, an attribute or an imported name) or when ``reslat.__all__``
exports it.  A helper that only tests call belongs in ``tests/oracles.py``
or at its call site, not in the package.
"""

from __future__ import annotations

import ast
from pathlib import Path

import reslat

SRC = Path(reslat.__file__).parent


def _referenced_names(node: ast.AST):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def unread_public_names() -> list[str]:
    """``module.name`` for each public module-level def or class that no
    other code in the package reads and ``reslat.__all__`` does not list."""
    defined: list[tuple[str, str]] = []
    # (module, name) of the definition a reference sits in, or None
    reads: dict[str, set[tuple[str, str] | None]] = {}
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for stmt in ast.parse(path.read_text("utf-8")).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = (module, stmt.name)
                if not stmt.name.startswith("_"):
                    defined.append(owner)
            for name in _referenced_names(stmt):
                reads.setdefault(name, set()).add(owner)
    exported = set(reslat.__all__)
    return [
        f"{module}.{name}"
        for module, name in defined
        if name not in exported and not reads.get(name, set()) - {(module, name)}
    ]


def test_every_public_name_in_src_has_a_reader():
    assert unread_public_names() == []
