"""Every name an export list promises is defined in its module."""

import importlib
import pkgutil

import pytest

import blochpriors

MODULES = ["blochpriors"] + [
    f"blochpriors.{info.name}"
    for info in pkgutil.iter_modules(blochpriors.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"

