"""The package's export lists name only what exists: a deleted function leaves no stale entry."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import masim

MODULES = sorted(info.name for info in pkgutil.iter_modules(masim.__path__))


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
