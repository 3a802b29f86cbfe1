"""The package's export lists name only what exists: a deleted function leaves no stale entry;
and every private helper is read somewhere: a function no caller reaches does not linger."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import masim

MODULES = sorted(info.name for info in pkgutil.iter_modules(masim.__path__))
SOURCES = sorted(Path(masim.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"masim.{name}")
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert missing == []


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(masim.__file__).read_text())
    imports = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names]
    assert imports
    stale = [f"{module}.{name}" for module, name in imports
             if name not in importlib.import_module(f"masim.{module}").__all__]
    assert stale == []


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_every_private_name_is_read():
    # Private top-level functions, classes and assigned names of every module, as module.name.
    defined = set()
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
            else:
                continue
            defined.update(f"{path.stem}.{name}" for name in names if _private(name))
    assert "positioning._coarse" in defined
    # A read is a loaded name, an attribute or an imported name, in the package or its tests.
    read = set()
    for path in SOURCES + TESTS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    assert sorted(name for name in defined if name.split(".", 1)[1] not in read) == []
