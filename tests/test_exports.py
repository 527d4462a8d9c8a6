"""Public names: each module's ``__all__`` and what the package exports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import dtrkit

MODULES = sorted(info.name for info in pkgutil.iter_modules(dtrkit.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_exists(name):
    module = importlib.import_module(f"dtrkit.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_package_exports_only_listed_names():
    # A name the package imports must be one its module lists in __all__,
    # so a deleted or private name cannot stay exported.
    tree = ast.parse(Path(dtrkit.__file__).read_text())
    unlisted = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            assert node.level == 1 and node.module, ast.unparse(node)
            listed = importlib.import_module(f"dtrkit.{node.module}").__all__
            unlisted += [f"{node.module}.{a.name}" for a in node.names if a.name not in listed]
    assert unlisted == []
