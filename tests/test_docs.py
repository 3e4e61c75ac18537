"""The README names package code in backticks (`sim._to_all`,
`kspanner.common.signal`, ...), and docstrings in double backticks
(``sim._charge``) or with a Sphinx role naming a name of their own module
(:func:`_charge`); every such reference must still resolve, so a rename
or a deletion cannot leave the docs stale."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import spanner

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
SRC = ROOT / "src" / "spanner"
DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\(\))?`")
DOUBLE_DOTTED = re.compile(r"``([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\(\))?``")
ROLE = re.compile(r":(?:func|class|data):`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)`")


def _modules():
    """Every way the docs may name a module: ``spanner.kspanner.common``,
    ``kspanner.common`` and ``common``."""
    names = {}
    for info in pkgutil.walk_packages(spanner.__path__, "spanner."):
        short = info.name[len("spanner."):]
        names[info.name] = names[short] = info.name
        names.setdefault(short.rsplit(".", 1)[-1], info.name)
    return names


def _resolve(refs):
    """The references into the package, and those of them that do not
    resolve."""
    modules = _modules()
    checked, missing = [], []
    for ref in refs:
        parts = ref.split(".")
        cut = next((i for i in range(len(parts), 0, -1)
                    if ".".join(parts[:i]) in modules), None)
        if cut is None:
            continue  # not a reference into the package (e.g. a method)
        checked.append(ref)
        obj = importlib.import_module(modules[".".join(parts[:cut])])
        try:
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
        except AttributeError:
            missing.append(ref)
    return checked, missing


def _docstrings(path):
    """Every module, class and function docstring in ``path``."""
    return [ast.get_docstring(node) or "" for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))]


def test_readme_references_resolve():
    checked, missing = _resolve(DOTTED.findall(README.read_text()))
    assert checked
    assert missing == []


def test_docstring_references_resolve():
    refs = []
    for path in sorted(SRC.rglob("*.py")):
        for doc in _docstrings(path):
            refs += DOUBLE_DOTTED.findall(doc)
    checked, missing = _resolve(refs)
    assert checked
    assert missing == []


def test_docstring_roles_resolve_in_their_module():
    checked, missing = 0, []
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        module = importlib.import_module(
            ".".join(parts[:-1] if parts[-1] == "__init__" else parts))
        for ref in ROLE.findall("\n".join(_docstrings(path))):
            checked += 1
            obj = module
            try:
                for attr in ref.split("."):
                    obj = getattr(obj, attr)
            except AttributeError:
                missing.append((path.name, ref))
    assert checked
    assert missing == []
