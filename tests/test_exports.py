"""Every module's __all__ names only what the module defines."""

import importlib
import pkgutil

import pytest

import spheremra

MODULES = [info.name for info in pkgutil.iter_modules(spheremra.__path__)]


def test_every_module_is_listed():
    assert {"cli", "formats", "mra", "quadrature", "specfun", "verify"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_and_star_import_works(name):
    module = importlib.import_module(f"spheremra.{name}")
    missing = [item for item in module.__all__ if not hasattr(module, item)]
    assert not missing
    namespace = {}
    exec(f"from spheremra.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
