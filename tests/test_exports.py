"""Every name an ``oraclelab`` module lists in ``__all__`` exists."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import oraclelab

MODULES = [
    importlib.import_module(f"oraclelab.{m.name}")
    for m in pkgutil.iter_modules(oraclelab.__path__)
]


def test_some_modules_declare_exports():
    assert any(hasattr(m, "__all__") for m in MODULES)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_entries_resolve(module):
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{module.__name__}.__all__ names missing {missing}"
