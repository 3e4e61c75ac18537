"""No linter ships with the project, so these stdlib-only checks stand in
for the unused-import rule: a module under ``src/spanner``, ``tests`` or
``demos`` imports no name it never uses.  Package ``__init__`` modules are
left out, since they import names to re-export them; instead, each one's
``__all__`` lists exactly the names it imports, each once.  They also
stand in for the unused-variable rule: no function under ``src/spanner``,
``tests`` or ``demos`` assigns a local that nothing in it reads (``_``
names one on purpose).  And no name that a package exports lives only for
its tests: a library module or a demo reads each one, but the test
oracles."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "spanner"
OTHERS = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py") + OTHERS
PACKAGES = (SRC / "__init__.py", SRC / "kspanner" / "__init__.py")
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


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


def module_id(path):
    return str(path.relative_to(SRC if SRC in path.parents else ROOT))


@pytest.mark.parametrize("path", MODULES, ids=module_id)
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


def unread_locals(source):
    """(line, name) of every local that a function of ``source`` assigns,
    not counting names that start with ``_``, and that no code in the
    function, nested functions included, reads or declares ``global`` or
    ``nonlocal``.  A nested function's own locals are its own check."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {node.id for node in ast.walk(fn)
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        read.update(name for node in ast.walk(fn)
                    if isinstance(node, (ast.Global, ast.Nonlocal)) for name in node.names)
        todo = list(fn.body)
        while todo:
            node = todo.pop()
            if isinstance(node, SCOPES):
                continue
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                    and not node.id.startswith("_") and node.id not in read):
                found.add((node.lineno, node.id))
            todo.extend(ast.iter_child_nodes(node))
    return sorted(found)


def test_the_local_check_finds_unread_names():
    source = ("def f(a):\n    b, c = a\n    d = 1\n    d += 1\n    _e = a\n"
              "    def g():\n        h = b\n    for i in a:\n        pass\n"
              "    return g, [j for j in a]\n"
              "def k():\n    global m\n    m = 1\n")
    assert unread_locals(source) == [(2, "c"), (3, "d"), (4, "d"), (7, "h"), (8, "i")]


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")) + OTHERS, ids=module_id)
def test_module_reads_every_local(path):
    assert unread_locals(path.read_text()) == []


# Exported only for the tests, as the independent checks they compare against.
TEST_ORACLES = {"audit_ruling_set", "verify_stretch_allpairs"}
READERS = [p for p in MODULES if p.parent != ROOT / "tests"]


def outside_reads(source):
    """Every name that ``source`` reads (as a name or an attribute)
    outside a function or class of that name, so a recursive call or a
    class's use of itself does not count."""
    found = set()

    def walk(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        name = (node.id if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                else node.attr if isinstance(node, ast.Attribute) else None)
        if name is not None and name not in inside:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            walk(child, inside)

    walk(ast.parse(source), frozenset())
    return found


def test_the_read_check_skips_a_names_own_definition():
    source = ("def f(n):\n    return f(n - 1)\nclass C:\n    def m(self):\n"
              "        return C, g\ndef h():\n    return x.attr\n")
    assert outside_reads(source) == {"n", "g", "x", "attr"}


def test_every_export_has_a_reader():
    """A public name that no library module (package ``__init__``s left
    out) and no demo reads is kept alive only by its tests."""
    read = set().union(*(outside_reads(p.read_text()) for p in READERS))
    unread = set()
    for path in PACKAGES:
        unread |= set(exports(path.read_text())[1]) - read
    assert sorted(unread) == sorted(TEST_ORACLES)
