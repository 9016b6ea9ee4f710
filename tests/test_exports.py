"""Exported names: each module's ``__all__`` and the package re-exports resolve."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import almostiso

MODULES = sorted(m.name for m in pkgutil.iter_modules(almostiso.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves(module):
    mod = importlib.import_module(f"almostiso.{module}")
    assert [n for n in getattr(mod, "__all__", []) if not hasattr(mod, n)] == []


def test_package_imports_resolve():
    tree = ast.parse(pathlib.Path(almostiso.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        mod = importlib.import_module(f"almostiso.{node.module}")
        for alias in node.names:
            assert hasattr(mod, alias.name), f"{node.module}.{alias.name}"
            assert hasattr(almostiso, alias.asname or alias.name), alias.name
