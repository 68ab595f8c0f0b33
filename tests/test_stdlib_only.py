"""The package's runtime is the standard library alone: every import in
``src/phylorank`` names a standard-library module or ``phylorank`` itself
(relative imports are the package's own).  Importing it loads none of the
introspection modules that would add to every process's start-up."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "phylorank"


def foreign_imports(source: str) -> list[str]:
    """Each top-level module `source` imports from outside the standard
    library and the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top not in sys.stdlib_module_names and top != "phylorank":
                found.append(top)
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_runtime_imports_are_stdlib_only(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


def test_guard_catches_foreign_imports():
    source = (
        "import os.path, numpy as np\n"
        "from scipy.stats import chi2\n"
        "from operator import attrgetter\n"
        "from . import exactcount\n"
        "from phylorank.errors import DomainError\n"
    )
    assert foreign_imports(source) == ["numpy", "scipy"]


def loaded_at_import(names: set[str]) -> str:
    """Which of ``names`` ``import phylorank, phylorank.cli`` loads in a bare
    interpreter, as the printed sorted list."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import phylorank, phylorank.cli; "
        f"print(sorted(set({sorted(names)!r}) & set(sys.modules)))"
    )
    return subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, str(SRC.parent)],
        capture_output=True, text=True, check=True,
    ).stdout.strip()


def test_import_loads_no_introspection_modules():
    """``import phylorank, phylorank.cli`` in a bare interpreter loads none of
    the modules that ``dataclasses`` pulls in; each would add to start-up."""
    assert loaded_at_import({"dataclasses", "inspect", "ast", "dis"}) == "[]"


def test_import_loads_no_openssl_binding():
    """The same import leaves out ``hashlib`` and its OpenSSL binding
    ``_hashlib``: only sampling seeds by ``blake2b``, so only a batch imports it."""
    assert loaded_at_import({"hashlib", "_hashlib"}) == "[]"
