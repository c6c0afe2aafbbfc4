"""The public surface resolves: every name a module lists in ``__all__``
exists in it, and every name the package re-exports is public where it is
defined.  A deletion that leaves an export behind fails here, and so does
a module under ``src/`` or ``tests/`` that imports a name it never uses."""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import roughlaplace

MODULES = sorted(m.name for m in pkgutil.iter_modules(roughlaplace.__path__))
REPO = Path(__file__).resolve().parent.parent
# the package __init__ imports only to re-export; test_package_reexports_resolve
# checks those names
SOURCES = sorted(p for p in (REPO / "src").rglob("*.py") if p.name != "__init__.py")
SOURCES += sorted((REPO / "tests").glob("*.py"))


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


def _unused_imports(tree: ast.Module) -> list:
    """Names bound by an import statement that no expression reads and
    ``__all__`` does not list."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(REPO)))
def test_no_unused_imports(path):
    unused = _unused_imports(ast.parse(path.read_text()))
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_unused_import_detected():
    tree = ast.parse("import math\nimport numpy as np\nfrom os import path, sep\n"
                     "__all__ = ['sep']\nprint(np.pi)\n")
    assert _unused_imports(tree) == [(1, "math"), (3, "path")]
