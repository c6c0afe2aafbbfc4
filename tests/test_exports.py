"""The public surface resolves: every name a module lists in ``__all__``
exists in it, and every name the package re-exports is public where it is
defined.  A deletion that leaves an export behind fails here, and so does
a module under ``src/`` or ``tests/`` that imports a name it never uses, or
a private module-level name in ``src/`` that no code under ``src/`` reads."""
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
PACKAGE = sorted((REPO / "src").rglob("*.py"))


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


def _unread_privates(trees: dict) -> list:
    """(module, line, name) of each private module-level function, class or
    constant of the modules ``trees`` that none of them reads: no load of the
    name, attribute of that name or import of it."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            unread += [(module, node.lineno, name) for name in names
                       if name.startswith("_") and not name.startswith("__") and name not in read]
    return sorted(unread)


def test_no_unread_privates():
    # a private name that only tests read belongs in tests/, not in src/
    trees = {str(p.relative_to(REPO)): ast.parse(p.read_text()) for p in PACKAGE}
    unread = _unread_privates(trees)
    assert not unread, f"private names no src code reads: {unread}"


def test_unread_private_detected():
    trees = {
        "a": ast.parse("_USED = 1\n_UNUSED = 2\n__all__ = []\n"
                       "def _helper():\n    return _USED\nclass _Box:\n    pass\n"),
        "b": ast.parse("from a import _helper\n"),
    }
    assert _unread_privates(trees) == [("a", 2, "_UNUSED"), ("a", 6, "_Box")]
