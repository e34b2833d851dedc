"""Every name a module exports exists, and the package re-exports only such
names, so a deletion cannot leave a stale export behind."""

import importlib
import pkgutil
from types import ModuleType

import pytest

import su2fourier

_MODULES = sorted(m.name for m in pkgutil.iter_modules(su2fourier.__path__))


def _module(name):
    return importlib.import_module(f"su2fourier.{name}")


@pytest.mark.parametrize("name", _MODULES)
def test_every_name_in_all_exists(name):
    module = _module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_reexports_only_exported_names():
    exported = {n for name in _MODULES for n in _module(name).__all__}
    public = {
        n for n, v in vars(su2fourier).items()
        if not n.startswith("_") and not isinstance(v, ModuleType)
    }
    assert public and public <= exported
