"""The README names package code in backticks (``sim.exchange``,
``kspanner.common.signal``, ...); every such dotted reference must still
resolve, so a rename or a deletion cannot leave the docs stale."""

import importlib
import pkgutil
import re
from pathlib import Path

import spanner

README = Path(__file__).resolve().parent.parent / "README.md"
DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\(\))?`")


def _modules():
    """Every way the README may name a module: ``spanner.kspanner.common``,
    ``kspanner.common`` and ``common``."""
    names = {}
    for info in pkgutil.walk_packages(spanner.__path__, "spanner."):
        short = info.name[len("spanner."):]
        names[info.name] = names[short] = info.name
        names.setdefault(short.rsplit(".", 1)[-1], info.name)
    return names


def test_readme_references_resolve():
    modules = _modules()
    checked, missing = [], []
    for ref in DOTTED.findall(README.read_text()):
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
    assert checked
    assert missing == []
