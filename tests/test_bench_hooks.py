"""The benchmark's tracer patches greedyrecon names; they must all exist.

``perfbench/tracing.py`` wraps functions and methods by name.  Deleting or
renaming one of them breaks the benchmark without failing any other test
here, so this loads the tracer from its file, installs it (which looks up
every patched name) and checks that uninstalling restores every original.
A traced design checks that the tracer's counts and the design's own
records agree.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import greedyrecon.objectives as objectives
import greedyrecon.optimize as optimize
from greedyrecon import GreedyConfig, OptimConfig, run_greedy

from conftest import make_context

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


def test_traced_design_counts_one_subproblem_per_stage(tracing):
    ctx = make_context(n=8, degree=2)
    cfg = GreedyConfig(optim_control=OptimConfig(grad_tol=1e-6, max_iters=60))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run = run_greedy(ctx, cfg)
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    # the initialization, then one fitting sweep and one splitting per step
    assert run.k_final > 1
    assert totals["greedy.subproblem.calls"] == 2 * run.k_final - 1
    # every fit evaluation is one call of its objective
    fitting = [rec["fitting"] for rec in run.progress[1:]]
    assert sum(stats["evals"] for stats in fitting) == totals[
        "objectives.FittingObjective.calls"]
