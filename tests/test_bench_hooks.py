"""The benchmark's tracer patches greedyrecon names; they must all exist.

``perfbench/tracing.py`` wraps functions and methods by name.  Deleting or
renaming one of them breaks the benchmark without failing any other test
here, so this loads the tracer from its file, installs it (which looks up
every patched name) and checks that uninstalling restores every original.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import greedyrecon.objectives as objectives
import greedyrecon.optimize as optimize

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Identity snapshot of every greedyrecon module and class namespace."""
    owners = [mod for name, mod in sorted(sys.modules.items())
              if name == "greedyrecon" or name.startswith("greedyrecon.")]
    owners += [cls for mod in list(owners)
               for _, cls in inspect.getmembers(mod, inspect.isclass)
               if cls.__module__.startswith("greedyrecon")]
    return {(id(owner), attr): value
            for owner in owners for attr, value in list(vars(owner).items())}


def test_install_patches_and_uninstall_restores(tracing):
    before = _bindings()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        during = _bindings()
    finally:
        tracer.uninstall()
    after = _bindings()

    patched = {key for key, value in before.items() if during.get(key) is not value}
    assert (id(optimize), "minimize_box") in patched
    assert (id(objectives.DiscriminationObjective), "__call__") in patched
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
