import importlib
import types

import pytest

import gridbias

MODULES = ("linalg2", "sde", "estimands", "estimation", "config", "cli")
LIBRARY = ("linalg2", "sde", "estimands", "estimation")


@pytest.mark.parametrize("short", MODULES)
def test_every_exported_name_resolves(short):
    module = importlib.import_module(f"gridbias.{short}")
    assert len(module.__all__) == len(set(module.__all__))
    for name in module.__all__:
        assert hasattr(module, name), name


def test_package_reexports_exactly_the_library_modules():
    want = {}
    for short in LIBRARY:
        module = importlib.import_module(f"gridbias.{short}")
        want.update((name, getattr(module, name)) for name in module.__all__)
    got = {
        name: value
        for name, value in vars(gridbias).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert got.keys() == want.keys()
    for name, value in want.items():
        assert got[name] is value, name
