"""Every name a ghcs module exports through __all__ exists."""

import importlib
import pkgutil

import pytest

import ghcs

MODULES = ["ghcs"] + sorted(f"ghcs.{m.name}" for m in pkgutil.iter_modules(ghcs.__path__))


def test_every_module_is_checked():
    assert {"ghcs.specfun", "ghcs.states", "ghcs.measure", "ghcs.kernel"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [attr for attr in getattr(mod, "__all__", []) if not hasattr(mod, attr)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"
