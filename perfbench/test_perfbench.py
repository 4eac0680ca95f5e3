"""Tests of the benchmark itself: every check rejects a perturbed result, the
tracer reaches every call site, and a traced run changes no output.

    python3 -m pytest perfbench

The last test runs each workload three times through ``run.py`` and takes
about three minutes.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import greedyrecon as gr  # noqa: E402
import tracing  # noqa: E402
from greedyrecon import forward, objectives  # noqa: E402


def smooth_state(n):
    h = 2.0 / n
    x = np.arange(n + 1) * h - 1.0
    x1, x2 = np.meshgrid(x, x, indexing="ij")
    k = checks.kappa(x1, x2)
    return np.stack([0.3 * k, -0.2 * k * (1.0 + x1)]), h


def exact_control(y, G, gamma, h):
    """eps = L y + g(y) from the benchmark's own stencil."""
    c = y[:, 1:-1, 1:-1]
    eps = np.zeros_like(y)
    eps[:, 1:-1, 1:-1] = (4.0 * c - y[:, :-2, 1:-1] - y[:, 2:, 1:-1]
                          - y[:, 1:-1, :-2] - y[:, 1:-1, 2:]) / h**2
    g = G(c[0], c[1])
    eps[0, 1:-1, 1:-1] += gamma * g
    eps[1, 1:-1, 1:-1] -= gamma * g
    return eps


@pytest.mark.parametrize("kind", ["bilinear", "sinusoidal", "exponential"])
def test_residual_check_rejects_perturbed_state(kind):
    y, h = smooth_state(32)
    G = lambda a, b: checks.closed_form_G(kind, a, b)  # noqa: E731
    eps = exact_control(y, G, 0.2, h)
    assert checks.check_residual("exact", y, eps, G, 0.2, 0.2, h) == []
    bad = y.copy()
    bad[1, 10, 12] += 1e-6
    assert checks.check_residual("perturbed", bad, eps, G, 0.2, 0.2, h)
    # the wrong interaction is caught as well
    other = "sinusoidal" if kind != "sinusoidal" else "bilinear"
    G2 = lambda a, b: checks.closed_form_G(other, a, b)  # noqa: E731
    assert checks.check_residual("wrong G", y, eps, G2, 0.2, 0.2, h)


def test_residual_check_accepts_program_solve_and_monomials():
    grid = gr.Grid(32, 1.0)
    op = gr.NegLaplacian(grid)
    basis = gr.MonomialBasis(2)
    coeffs = dict(zip(basis.ordered_exponents(), [0.3, 0.2, 0.1, 0.4, 0.5, 0.6]))
    combo = gr.BasisCombo(1.0, 1.0, basis=basis,
                          coeffs=np.array(list(coeffs.values())))
    eps = grid.sample_field(lambda a, b: 0.5 + 0 * a, lambda a, b: -0.4 + 0 * a)
    y, report = gr.solve_semilinear(op, combo, eps, gr.FixedPointConfig())
    assert report.converged
    G = lambda a, b: checks.monomial_G(coeffs, a, b)  # noqa: E731
    assert checks.check_residual("solve", y, eps, G, 1.0, 1.0, grid.h) == []
    coeffs[(1, 1)] += 0.01
    assert checks.check_residual("wrong coefficient", y, eps, G, 1.0, 1.0, grid.h)


def test_h2_ratio_check():
    assert checks.check_h2_ratio(4e-5, 1e-5) == []
    assert checks.check_h2_ratio(2e-5, 1e-5)  # first order
    assert checks.check_h2_ratio(8e-5, 1e-5)
    assert checks.check_h2_ratio(1e-5, 0.0)


def test_manufactured_error_is_zero_on_the_exact_modes():
    n = 16
    y, _ = smooth_state(n)
    x = np.arange(n + 1) * (2.0 / n) - 1.0
    k = checks.kappa(*np.meshgrid(x, x, indexing="ij"))
    exact = np.stack([0.5 * k, -0.25 * k])
    assert checks.manufactured_error(exact, 0.5, 0.25, n) < 1e-15
    assert checks.manufactured_error(exact, 0.5, 0.3, n) > 1e-3


def test_landscape_check():
    values = np.add.outer((np.arange(5) - 0.0) ** 2, (np.arange(7) - 2.0) ** 2)
    assert checks.check_landscape(values, (0, 2)) == []
    assert checks.check_landscape(values + 1e-10, (0, 2))  # minimum not near 0
    assert checks.check_landscape(np.roll(values, 1, axis=1), (0, 2))
    failed = values.copy()
    failed[3, 3] = np.nan
    assert checks.check_landscape(failed, (0, 2))


def write_design_artifact(out: Path, n=4):
    out.mkdir(parents=True, exist_ok=True)
    exps = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]
    rows = ["position,i1,i2,coefficient"]
    for p, (i1, i2) in enumerate(exps):
        rows.append(f"{p},{i1},{i2},{0.05 if (i1, i2) == (1, 1) else 1e-9}")
    (out / "identified.csv").write_text("\n".join(rows) + "\n")
    (out / "identify.json").write_text(json.dumps({
        "objective_value": 1e-20, "collinearity_union": 1e-3,
        "max_error_on_sets": 1e-9, "max_error_on_square": 1e-3}))
    (out / "basis.json").write_text(json.dumps({"order": [3, 1, 0, 2, 5, 4]}))
    lines = ["control,component,i,j,value"]
    for comp in range(2):
        for i in range(n + 1):
            for j in range(n + 1):
                inner = 0 < i < n and 0 < j < n
                lines.append(f"0,{comp},{i},{j},{0.5 if inner else 0.0}")
    (out / "controls.csv").write_text("\n".join(lines) + "\n")


def edit(path: Path, old: str, new: str):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def test_design_check_rejects_each_perturbation(tmp_path):
    box = ((-1.0, -1.0), (1.0, 1.0))
    good = tmp_path / "good"
    write_design_artifact(good)
    assert checks.check_design(good, *box, 6) == []
    perturbations = [
        ("identified.csv", "3,1,1,0.05", "3,1,1,0.0515"),
        ("identified.csv", "4,2,0,1e-09", "4,2,0,0.0011"),
        ("identify.json", "1e-20", "1e-09"),
        ("controls.csv", "0,1,2,2,0.5", "0,1,2,2,1.5"),
        ("controls.csv", "0,0,0,1,0.0", "0,0,0,1,0.1"),
        ("basis.json", "[3, 1, 0, 2, 5, 4]", "[3, 1, 0, 2, 5, 5]"),
    ]
    for k, (name, old, new) in enumerate(perturbations):
        out = tmp_path / f"bad{k}"
        write_design_artifact(out)
        edit(out / name, old, new)
        assert checks.check_design(out, *box, 6), (name, new)


def test_baseline_check_rejects_each_perturbation(tmp_path):
    good = tmp_path / "good"
    write_design_artifact(good)
    assert checks.check_baseline(good, 1.0) == []
    perturbations = [
        ("identify.json", '"objective_value": 1e-20', '"objective_value": 1e-07'),
        ("identify.json", '"collinearity_union": 0.001', '"collinearity_union": 0.2'),
        ("identify.json", '"max_error_on_square": 0.001', '"max_error_on_square": 5e-09'),
        ("identified.csv", "3,1,1,0.05", "3,1,1,-0.05"),
    ]
    for k, (name, old, new) in enumerate(perturbations):
        out = tmp_path / f"bad{k}"
        write_design_artifact(out)
        edit(out / name, old, new)
        assert checks.check_baseline(out, 1.0), (name, new)


def test_tracer_reaches_every_call_site_and_counts_consistently():
    tracer = tracing.Tracer()
    originals = (objectives.solve_adjoint, forward.solve_semilinear,
                 gr.NegLaplacian.solve)
    tracer.install()
    try:
        assert objectives.solve_adjoint is not originals[0]
        assert gr.solve_semilinear is forward.solve_semilinear
        assert gr.analysis.solve_semilinear is forward.solve_semilinear
        ctx = objectives.SolverContext(gr.NegLaplacian(gr.Grid(8, 1.0)),
                                       gr.MonomialBasis(2), 0.2, 0.2,
                                       gr.FixedPointConfig())
        eps = ctx.grid.sample_field(lambda a, b: 0.5 + 0 * a, lambda a, b: 0.2 + 0 * a)
        data = gr.generate_data(gr.ClosedForm(0.2, 0.2), [eps], ctx)
        obj = objectives.IdentificationObjective(ctx, [eps], data)
        obj(np.full(6, 0.1))
        obj(np.full(6, 0.1), need_grad=False)
    finally:
        tracer.uninstall()
    assert (objectives.solve_adjoint, forward.solve_semilinear,
            gr.NegLaplacian.solve) == originals
    t = tracer.totals()
    m = tracing.layer_metrics(t, threads=1)
    # each fixed-point solve is one Poisson solve plus one per iteration
    assert m["grid.NegLaplacian.solve.calls"][0] == (
        m["forward.solve_semilinear.calls"][0] + m["forward.solve_semilinear.iterations"][0])
    assert m["nonlinearity.g.calls"][0] == m["forward.solve_semilinear.iterations"][0]
    assert m["objectives.IdentificationObjective.calls"][0] == 2
    assert m["objectives.IdentificationObjective.grad_calls"][0] == 1
    # the one-slot cache: the second call at the same point solves nothing
    assert m["objectives.solves_per_eval"][0] == 0.5
    assert m["forward.solve_adjoint.calls"][0] == 1
    assert m["analysis.generate_data.s"][0] > 0
    ids = {span[0] for span in tracer.spans}
    assert all(span[4] is None or span[4] in ids for span in tracer.spans)


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    run = json.loads((ROOT / ".perfbench_out" / workload / "run.json").read_text())
    return result, run


@pytest.mark.parametrize("workload", ["design16", "identify32p5", "forward-fine"])
def test_traced_run_changes_no_output_and_repeats_its_counts(workload):
    plain, plain_run = run_bench(workload, 0)
    traced, traced_run = run_bench(workload, 1)
    again, _ = run_bench(workload, 1)
    assert plain["correct"] and traced["correct"] and again["correct"]
    assert plain["failed"] == traced["failed"] == 0
    # the digest covers the CSV artifacts, or the solved states of forward-fine
    assert plain_run["digests"] == traced_run["digests"]
    assert len(plain_run["digests"]) == 1
    counts = {k: v["value"] for k, v in traced["metrics"].items() if v["unit"] == "count"}
    repeat = {k: v["value"] for k, v in again["metrics"].items() if v["unit"] == "count"}
    assert counts == repeat
    assert counts["forward.solve_semilinear.calls"] > 0
