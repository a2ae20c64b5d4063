"""No module of the package imports a name it never uses.

No linter ships with the test dependencies, so this reads each module's
syntax tree: every name an import binds must appear as a name elsewhere in
that module. ``__init__.py`` re-exports its imports and is exempt, and so
is ``from __future__``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sgembed"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by imports in ``source`` that no expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_every_package_module_is_checked():
    assert {p.name for p in MODULES} >= {"cli.py", "evalkit.py", "trainer.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source, unused",
    [
        ("import json\n", ["line 1: json"]),
        ("import os.path\nos.sep\n", []),
        ("import numpy as np\nx = np.zeros(1)\n", []),
        ("from a import b as c\nb\n", ["line 1: c"]),
        ("from __future__ import annotations\n", []),
        ("from .m import T\ndef f(x: T): pass\n", []),
    ],
)
def test_unused_imports_reads_bindings_and_uses(source, unused):
    assert unused_imports(source) == unused
