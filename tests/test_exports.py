"""Every module's __all__ names only what the module defines, and every
cache it holds is bounded."""

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


@pytest.mark.parametrize("name", MODULES)
def test_every_cache_is_bounded(name):
    module = importlib.import_module(f"spheremra.{name}")
    caches = {key: value for key, value in vars(module).items() if hasattr(value, "cache_parameters")}
    unbounded = [key for key, cache in caches.items() if cache.cache_parameters()["maxsize"] is None]
    assert not unbounded
