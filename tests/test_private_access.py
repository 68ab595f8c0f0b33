"""No module of the package uses another module's private names.

Two forms count as a use: ``from .x import _name``, and an attribute
``obj._name`` (not a dunder, ``obj`` not ``self``/``cls``) where ``_name``
is defined nowhere in the same module.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "phylorank"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _defined_names(tree: ast.AST) -> set[str]:
    """Every name the module defines: functions, classes, assignment targets
    (names and attributes) and ``__slots__`` entries."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets
        ):
            names.update(
                c.value for c in ast.walk(node.value)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            )
    return names


def foreign_private_uses(source: str) -> list[str]:
    """Each use, in `source`, of a private name another module defines."""
    tree = ast.parse(source)
    own = _defined_names(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [
                f"line {node.lineno}: from {'.' * node.level}{node.module or ''} import {a.name}"
                for a in node.names if _private(a.name)
            ]
        elif (
            isinstance(node, ast.Attribute)
            and _private(node.attr)
            and node.attr not in own
            and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
        ):
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_access_across_modules(path):
    assert foreign_private_uses(path.read_text(encoding="utf-8")) == []


def test_guard_catches_both_forms():
    source = (
        "from .exactcount import _bounded_c, CountTable\n"
        "def f(table, tree):\n"
        "    tree._members = None\n"
        "    return table._g, tree._members, table.__class__, self._x\n"
    )
    assert foreign_private_uses(source) == [
        "line 1: from .exactcount import _bounded_c",
        "line 4: table._g",
    ]
