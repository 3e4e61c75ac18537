"""No linter ships with the project, so this stdlib-only check stands in
for the unused-import rule: a module under ``src/spanner``, ``tests`` or
``demos`` imports no name it never uses.  Package ``__init__`` modules are
left out, since they import names to re-export them."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "spanner"
MODULES = (sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
           + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py")))


def unused_imports(source):
    """(line, name) of every name that ``source`` imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_check_finds_unused_names():
    source = ("from __future__ import annotations\nimport os, os.path\n"
              "from a import b as c, d\nimport e.f\nd(e.f)\n")
    assert unused_imports(source) == [(2, "os"), (3, "c")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(
    p.relative_to(SRC if SRC in p.parents else ROOT)))
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []
