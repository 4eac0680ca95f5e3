"""The import footprint, in fresh interpreters: greedyrecon runs on numpy
plus two compiled scipy files loaded by path, L-BFGS-B's ``_lbfgsb`` at the
first optimizer run and pocketfft's ``pypocketfft`` at the first mesh above
n = 112, imports no scipy package for any mesh, maps neither ``_lbfgsb`` nor
scipy's own BLAS in a process that only solves forward problems, and shares
each file with scipy whichever loads it first."""

import ast
import json
import os
import subprocess
import sys
from importlib.machinery import ModuleSpec
from pathlib import Path

import pytest

from greedyrecon import _compiled

ROOT = Path(__file__).resolve().parent.parent

# the Rosenbrock run of tests/test_optimize.py, by minimize_box and by
# scipy.optimize.minimize with the options the engine replicates
ROSENBROCK = """
import numpy as np
from greedyrecon.objectives import ObjectiveEval

def rosenbrock(x):
    v = (1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2
    g = np.array([-2.0 * (1.0 - x[0]) - 400.0 * x[0] * (x[1] - x[0] ** 2),
                  200.0 * (x[1] - x[0] ** 2)])
    return ObjectiveEval(v, g)

cfg = optimize.OptimConfig(max_iters=5000, grad_tol=1e-9)
x0, lo, hi = np.array([-1.2, 1.0]), np.full(2, -2.0), np.full(2, 2.0)
res = optimize.minimize_box(rosenbrock, x0, lo, hi, cfg)
ref = scipy.optimize.minimize(
    rosenbrock, x0, jac=True, method="L-BFGS-B",
    bounds=list(zip(lo, hi)),
    options={"maxcor": optimize.LBFGS_MEMORY, "maxiter": cfg.max_iters,
             "maxfun": 10**8, "ftol": 0.0, "gtol": cfg.grad_tol / np.sqrt(2)})
assert ref.success and ref.nit > 20, ref
assert np.array_equal(res.x, ref.x) and res.value == ref.fun
assert (res.iterations, res.evals) == (ref.nit, ref.nfev)
"""


def run_fresh(script: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


SCIPY_MODULES = "print(sorted(m for m in sys.modules if m.startswith('scipy')))"


def test_cli_import_loads_no_scipy_package():
    out = run_fresh(f"import sys, greedyrecon.cli; {SCIPY_MODULES}")
    assert ast.literal_eval(out) == []


def test_fine_mesh_solves_load_no_scipy_module():
    out = run_fresh(
        "import sys, numpy as np\n"
        "from greedyrecon.grid import Grid, NegLaplacian\n"
        "for n in (128, 256):\n"
        "    u = NegLaplacian(Grid(n, 1.0)).solve(np.ones((n + 1, n + 1)))\n"
        "    assert np.isfinite(u).all()\n"
        f"{SCIPY_MODULES}")
    assert ast.literal_eval(out) == []


# one optimizer run, which loads L-BFGS-B's file if it is the process's first
OPTIMIZER_RUN = """
import numpy as np
from greedyrecon import optimize
from greedyrecon.objectives import ObjectiveEval
optimize.minimize_box(lambda x: ObjectiveEval(float(x @ x), 2.0 * x), np.ones(2),
                      np.full(2, -2.0), np.full(2, 2.0), optimize.OptimConfig())
"""

# each compiled file greedyrecon loads, with the scipy import that loads it,
# the greedyrecon code whose first run loads it, and a check, run after
# both, that both sides call the one routine
SHARED = {
    "_lbfgsb": ("import scipy.optimize", OPTIMIZER_RUN,
                ROSENBROCK + "import scipy.optimize._lbfgsb\n"
                "assert scipy.optimize._lbfgsb.setulb is optimize._setulb()\n"),
    "pypocketfft": ("import scipy.fft",
                    "from greedyrecon.grid import Grid, NegLaplacian\n"
                    "op = NegLaplacian(Grid(128, 1.0))",
                    "import scipy.fft._pocketfft.pypocketfft\n"
                    "assert scipy.fft._pocketfft.pypocketfft.dst is op._dst\n"),
}


@pytest.mark.parametrize("first", ["scipy", "greedyrecon"])
@pytest.mark.parametrize("extension", sorted(SHARED))
def test_extension_shared_with_scipy(extension, first):
    scipy_import, greedyrecon_load, check = SHARED[extension]
    steps = [scipy_import, greedyrecon_load]
    if first == "greedyrecon":
        steps.reverse()
    run_fresh("\n".join(steps) + "\n" + check)


# the files mapped into the process after numpy's import, after forward
# solves at n = 16 and n = 128 (either side of the pocketfft switch), and
# after one optimizer run
MAPPED_FILES = """
import json

def mapped():
    with open("/proc/self/maps") as fh:
        parts = (line.split(None, 5) for line in fh)
        return sorted({p[5].strip() for p in parts if len(p) == 6})

steps = {}
import numpy as np
steps["numpy"] = mapped()
import greedyrecon.cli
from greedyrecon.config import ExperimentConfig, build_context
for n in (16, 128):
    ctx = build_context(ExperimentConfig(n=n))
    eps = np.ones((2, n + 1, n + 1))
    eps[:, [0, -1]] = eps[:, :, [0, -1]] = 0.0
    assert np.isfinite(ctx.solve(ctx.combo(np.full(ctx.basis.size, 0.5)), eps)).all()
steps["forward"] = mapped()
""" + OPTIMIZER_RUN + """
steps["optimizer"] = mapped()
print(json.dumps(steps))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
def test_forward_solves_map_no_optimizer_and_no_second_blas():
    # scipy's _lbfgsb links scipy's own OpenBLAS, a second BLAS next to
    # numpy's: forward work maps neither, the first optimizer run _lbfgsb
    steps = json.loads(run_fresh(MAPPED_FILES))

    def named(step, part):
        return {p for p in steps[step] if part in os.path.basename(p)}

    assert named("forward", "_lbfgsb") == set()
    assert named("forward", "openblas") == named("numpy", "openblas")
    assert named("optimizer", "_lbfgsb")


def test_loader_names_the_directory_it_searched(tmp_path, monkeypatch):
    scipy_spec = ModuleSpec("scipy", None, is_package=True)
    scipy_spec.submodule_search_locations.append(str(tmp_path))
    monkeypatch.setattr(_compiled, "find_spec", lambda name: scipy_spec)
    monkeypatch.delitem(sys.modules, "scipy.optimize._lbfgsb", raising=False)
    with pytest.raises(ImportError, match="_lbfgsb") as info:
        _compiled.load("optimize", "_lbfgsb")
    assert str(tmp_path / "optimize") in str(info.value)


# the only scipy imports left in the package: scipy.sparse inside the two
# reference assemblies that tests and perfbench/tracing.py compare against
REFERENCE_SCIPY_IMPORTS = {
    ("forward.py", "coupled_linear_matrix", "scipy.sparse"),
    ("grid.py", "NegLaplacian.matrix", "scipy.sparse"),
}


SOURCES = sorted((ROOT / "src" / "greedyrecon").glob("*.py"))


def scoped_nodes(path: Path):
    """(enclosing def or class, node) for each node of a file's syntax tree
    outside the def and class statements themselves; the scope is "" at
    module level."""

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            yield scope, child
            yield from visit(child, scope)

    return visit(ast.parse(path.read_text()), "")


def scipy_imports(path: Path) -> set:
    """(file, enclosing def or class, module) of each scipy import in a file."""
    found = set()
    for scope, node in scoped_nodes(path):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found.update((path.name, scope, name) for name in names
                     if name.split(".")[0] == "scipy")
    return found


def calls_of(name: str) -> set:
    """(file, enclosing def or class) of each call of ``name``, bare or as
    an attribute, in the package's sources."""
    found = set()
    for path in SOURCES:
        for scope, node in scoped_nodes(path):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called == name:
                    found.add((path.name, scope))
    return found


def test_scipy_imported_only_by_reference_assemblies():
    # a scipy package import costs a process 0.2-0.3 s of start-up
    assert set().union(*map(scipy_imports, SOURCES)) == REFERENCE_SCIPY_IMPORTS


def test_every_optimizer_run_goes_through_the_engine():
    # only the engine's run loop steps setulb, and no pipeline code takes the
    # one-run shortcut, so the engine's counts, which greedy.json and
    # identify.json record, cover every optimizer run
    assert calls_of("setulb") == {("optimize.py", "_lbfgsb")}
    assert calls_of("minimize_box") == set()


# imported by name for perfbench's tracer test, which checks that it is the
# function it patches in forward
UNUSED_IMPORTS_KEPT = {("analysis.py", "solve_semilinear")}


def module_imports(path: Path) -> set:
    """(file, bound name) of each module-level import in a file, apart from
    ``from __future__``."""
    found = set()
    for scope, node in scoped_nodes(path):
        if scope or not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            found.add((path.name, alias.asname or alias.name.split(".")[0]))
    return found


def test_every_module_level_import_is_used():
    # a name left imported after the code that used it is deleted
    unused = set()
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        used = {node.id for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Name)}
        unused |= {(file, name) for file, name in module_imports(path) if name not in used}
    assert unused == UNUSED_IMPORTS_KEPT


def private_helpers(path: Path) -> set:
    """(file, name) of each module-level def or class named ``_name``."""
    return {(path.name, node.name) for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")}


def referenced_names(path: Path) -> set:
    """Every name a file reads, bare, as an attribute or in a from-import."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def test_every_private_helper_is_used():
    # a helper left defined after its last caller is deleted; a definition's
    # own name is no reference, so it is found unless some source reads it
    used = set().union(*map(referenced_names, SOURCES))
    helpers = set().union(*map(private_helpers, SOURCES))
    assert helpers and {(file, name) for file, name in helpers if name not in used} == set()
