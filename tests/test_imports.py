"""The import footprint, in fresh interpreters: greedyrecon starts on numpy
and scipy's compiled L-BFGS-B extension alone, loads scipy.fft only for a
mesh that needs it, and shares that extension with scipy.optimize whichever
is imported first."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from greedyrecon import optimize

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
    assert set(ast.literal_eval(out)) <= {"scipy.optimize._lbfgsb"}


def test_fine_mesh_solve_loads_scipy_fft():
    out = run_fresh(
        "import sys, numpy as np\n"
        "from greedyrecon.grid import DENSE_SINE_MAX_N, Grid, NegLaplacian\n"
        "NegLaplacian(Grid(DENSE_SINE_MAX_N, 1.0)).solve(np.ones((113, 113)))\n"
        "assert 'scipy.fft' not in sys.modules\n"
        "u = NegLaplacian(Grid(128, 1.0)).solve(np.ones((129, 129)))\n"
        "assert np.isfinite(u).all()\n"
        f"{SCIPY_MODULES}")
    assert "scipy.fft" in ast.literal_eval(out)


@pytest.mark.parametrize("first", ["scipy", "greedyrecon"])
def test_setulb_shared_with_scipy_optimize(first):
    imports = ["import scipy.optimize", "from greedyrecon import optimize"]
    if first == "greedyrecon":
        imports.reverse()
    run_fresh("\n".join(imports) + "\n" + ROSENBROCK + "\n"
              "import scipy.optimize._lbfgsb\n"
              "assert scipy.optimize._lbfgsb.setulb is optimize.setulb\n")


def test_loader_names_the_directory_it_searched(tmp_path):
    with pytest.raises(ImportError, match="_lbfgsb") as info:
        optimize._load_setulb(str(tmp_path))
    assert str(tmp_path) in str(info.value)
