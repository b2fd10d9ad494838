import importlib
import pkgutil

import pytest

import coinfer

MODULES = [
    name
    for name in ["coinfer"] + [f"coinfer.{m.name}" for m in pkgutil.iter_modules(coinfer.__path__)]
    if hasattr(importlib.import_module(name), "__all__")
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
