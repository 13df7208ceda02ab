"""The package's public names: each export resolves to its defining module."""

import importlib
import pkgutil

import pytest

import diracstep

MODULES = [importlib.import_module(f"diracstep.{info.name}")
           for info in pkgutil.iter_modules(diracstep.__path__)]


@pytest.mark.parametrize("name", [n for n in diracstep.__all__ if n != "__version__"])
def test_package_export_is_listed_by_its_defining_module(name):
    obj = getattr(diracstep, name)
    module = importlib.import_module(obj.__module__)
    assert getattr(module, name) is obj
    assert name in module.__all__


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_module_exports_exist(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
