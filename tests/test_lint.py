"""No linter ships with the project, so these stdlib-only checks stand in
for the unused-import rule: a module under ``src/spanner``, ``tests`` or
``demos`` imports no name it never uses.  Package ``__init__`` modules are
left out, since they import names to re-export them; instead, each one's
``__all__`` lists exactly the names it imports, each once."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "spanner"
MODULES = (sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
           + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py")))
PACKAGES = (SRC / "__init__.py", SRC / "kspanner" / "__init__.py")


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


def exports(source):
    """(the names ``source`` imports, its ``__all__`` list), in order."""
    tree = ast.parse(source)
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    listed = [ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign)
              and [t.id for t in node.targets] == ["__all__"]]
    return imported, listed[0] if listed else []


def test_the_export_check_reads_imports_and_all():
    source = "from .a import b, c as d\nfrom .e import f\n__all__ = ['b', 'd', 'd']\n"
    assert exports(source) == (["b", "d", "f"], ["b", "d", "d"])


@pytest.mark.parametrize("path", PACKAGES, ids=lambda p: str(p.relative_to(SRC)))
def test_package_exports_exactly_its_imports(path):
    imported, listed = exports(path.read_text())
    assert sorted(listed) == sorted(set(listed)) == sorted(imported)
