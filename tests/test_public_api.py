import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

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


def test_importing_the_package_does_not_load_numpy_random():
    # numpy.random takes milliseconds to import; it loads when a stream is
    # first drawn, not with the package, its CLI or its config loader.
    script = (
        "import sys\n"
        "import numpy\n"
        "print('numpy.random' in sys.modules)\n"
        "import gridbias, gridbias.cli, gridbias.config\n"
        "print('numpy.random' in sys.modules)\n"
    )
    src = str(Path(gridbias.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    with_numpy, with_package = done.stdout.split()
    if with_numpy == "True":
        pytest.skip("this NumPy loads numpy.random when numpy is imported")
    assert with_package == "False"
