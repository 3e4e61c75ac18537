"""The README names package code in backticks (`sim.exchange`,
`kspanner.common.signal`, ...), and docstrings in double backticks
(``sim._charge``); every such dotted reference must still resolve, so a
rename or a deletion cannot leave the docs stale."""

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


def test_readme_references_resolve():
    checked, missing = _resolve(DOTTED.findall(README.read_text()))
    assert checked
    assert missing == []


def test_docstring_references_resolve():
    refs = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                refs += DOUBLE_DOTTED.findall(ast.get_docstring(node) or "")
    checked, missing = _resolve(refs)
    assert checked
    assert missing == []
