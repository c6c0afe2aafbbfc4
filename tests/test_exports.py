"""The public surface resolves: every name a module lists in ``__all__``
exists in it, and every name the package re-exports is public where it is
defined.  A deletion that leaves an export behind fails here."""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import roughlaplace

MODULES = sorted(m.name for m in pkgutil.iter_modules(roughlaplace.__path__))


def _package_reexports():
    tree = ast.parse(Path(roughlaplace.__file__).read_text())
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"roughlaplace.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"roughlaplace.{name}.__all__ lists undefined {missing}"


def test_package_reexports_resolve():
    pairs = _package_reexports()
    assert pairs
    for module, name in pairs:
        mod = importlib.import_module(f"roughlaplace.{module}")
        assert getattr(roughlaplace, name) is getattr(mod, name)
        assert name in mod.__all__, f"{name} is re-exported but not in {module}.__all__"
