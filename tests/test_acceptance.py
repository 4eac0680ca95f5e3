"""Acceptance gate: every criterion at its stated tolerance and budget.

Shared pipelines (the expensive greedy designs and identifications) run
once in session fixtures and are reused across criteria; the determinism
criterion reruns them through the command-line layer and compares output
bytes.  Each test prints one PASS line; a failed assertion marks the
criterion FAIL.
"""

import json
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import greedyrecon as gr
from greedyrecon.cli import main as cli_main
from greedyrecon.cli import _load_artifact
from greedyrecon.greedy import (
    _select_winner,
    promote,
    run_fitting_sweep,
    run_initialization,
    run_splitting,
)
from greedyrecon.objectives import (
    DiscriminationObjective,
    FittingObjective,
    IdentificationObjective,
)

from conftest import constant_control, kappa, make_context, random_control
from test_greedy import oracle_best

BUDGETS = {1: 10, 2: 60, 3: 900, 4: 600, 5: 1200, 6: 600, 7: 1800, 8: 600}


def report(criterion, elapsed, detail=""):
    budget = BUDGETS.get(criterion)
    line = f"[criterion {criterion}] PASS in {elapsed:.1f}s"
    if budget:
        line += f" (budget {budget}s)"
    if detail:
        line += f" -- {detail}"
    print(line, flush=True)


@pytest.fixture(scope="session")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


def run_pipeline(cfg_doc: dict, out: Path, commands) -> None:
    cfg_path = out.parent / (out.name + ".json")
    doc = dict(cfg_doc)
    doc["output_dir"] = str(out)
    cfg_path.write_text(json.dumps(doc))
    for cmd in commands:
        code = cli_main(["--config", str(cfg_path)] + cmd)
        assert code == 0, f"command {cmd} exited {code}"


GREEDY32_DOC = {
    "n": 32, "degree": 2, "truth": "bilinear", "seed": 0, "threads": 2,
    "optim_coeff": {"grad_tol": 1e-12, "max_iters": 3000, "restarts": 1},
}

BASELINE32P5_DOC = {
    "n": 32, "degree": 5, "truth": "bilinear", "seed": 0, "threads": 2,
    "optim_coeff": {"grad_tol": 1e-12, "max_iters": 3000, "restarts": 1},
}

BASELINE32P2_DOC = {
    "n": 32, "degree": 2, "truth": "bilinear", "seed": 0, "threads": 2,
    "optim_coeff": {"grad_tol": 1e-12, "max_iters": 3000, "restarts": 1},
}


@pytest.fixture(scope="session")
def greedy32(workdir):
    out = workdir / "greedy32"
    t0 = time.perf_counter()
    run_pipeline(GREEDY32_DOC, out, [["greedy"], ["identify"]])
    return {"out": out, "seconds": time.perf_counter() - t0}


@pytest.fixture(scope="session")
def baseline32p5(workdir):
    out = workdir / "baseline32p5"
    t0 = time.perf_counter()
    run_pipeline(BASELINE32P5_DOC, out, [["baseline", "--count", "19"]])
    return {"out": out, "seconds": time.perf_counter() - t0}


@pytest.fixture(scope="session")
def baseline32p2(workdir):
    out = workdir / "baseline32p2"
    t0 = time.perf_counter()
    run_pipeline(BASELINE32P2_DOC, out, [["baseline", "--count", "19"]])
    return {"out": out, "seconds": time.perf_counter() - t0}


def read_coefficients(out: Path):
    rows = (out / "identified.csv").read_text().strip().split("\n")[1:]
    coeffs = {}
    for row in rows:
        pos, i1, i2, value = row.split(",")
        coeffs[(int(i1), int(i2))] = float(value)
    return coeffs


def test_criterion_1_manufactured_convergence():
    t0 = time.perf_counter()
    errs = {}
    for n in (16, 32, 64):
        g = gr.Grid(n, 1.0)
        eps = gr.constructed_control(0.5, 1.0, 0.2, 0.2, g)
        y, rep = gr.solve_semilinear(gr.NegLaplacian(g),
                                     gr.ClosedForm(0.2, 0.2, kind="bilinear"),
                                     eps, gr.FixedPointConfig())
        assert rep.converged
        exact = np.stack([0.5 * g.sample_scalar(kappa), -g.sample_scalar(kappa)])
        errs[n] = gr.l2_norm(g, y - exact)
    r1 = errs[16] / errs[32]
    r2 = errs[32] / errs[64]
    elapsed = time.perf_counter() - t0
    assert 3.5 <= r1 <= 4.5
    assert 3.5 <= r2 <= 4.5
    assert elapsed <= BUDGETS[1]
    report(1, elapsed, f"ratios {r1:.2f}, {r2:.2f}")


def test_criterion_2_adjoint_gradients():
    t0 = time.perf_counter()
    rel_errors = []
    for seed in range(5):
        ctx = make_context(n=16, degree=2, tol2=1e-13)
        rng = np.random.default_rng(seed)
        controls = [random_control(ctx.grid, rng) for _ in range(2)]

        beta = rng.uniform(0.02, 0.4, 2)
        targets = [ctx.solve(ctx.unit(4), eps) for eps in controls]
        fit = FittingObjective(ctx, controls, targets, nu=1e-6)
        rel_errors += fd_errors(fit, beta, range(2), 1e-6)

        alpha = rng.uniform(0.02, 0.4, 6)
        truth = ctx.combo(rng.uniform(0.0, 0.1, 6))
        data = gr.generate_data(truth, controls, ctx)
        ident = IdentificationObjective(ctx, controls, data)
        rel_errors += fd_errors(ident, alpha, range(6), 1e-6)

        x = rng.uniform(-1, 1, 2 * 15 * 15)
        split = DiscriminationObjective(ctx, rng.uniform(0, 0.3, 3), 4, nu=1e-6)
        idx = rng.choice(x.size, 10, replace=False)
        rel_errors += fd_errors(split, x, idx, 1e-5)

        init = DiscriminationObjective(ctx, np.zeros(0), 3, nu=1e-6)
        idx = rng.choice(x.size, 10, replace=False)
        rel_errors += fd_errors(init, x, idx, 1e-5)

    rel_errors = np.array(rel_errors)
    share_ok = float(np.mean(rel_errors <= 1e-5))
    worst = float(rel_errors.max())
    elapsed = time.perf_counter() - t0
    assert share_ok >= 0.95, f"only {share_ok:.1%} of coordinates within 1e-5"
    assert worst <= 1e-3
    assert elapsed <= BUDGETS[2]
    report(2, elapsed, f"{share_ok:.1%} within 1e-5, worst {worst:.2e}")


def fd_errors(obj, x, indices, step):
    _, grad = obj(x, True)
    errors = []
    for i in indices:
        e = np.zeros_like(x)
        e[i] = step
        fd = (obj(x + e, False).value - obj(x - e, False).value) / (2.0 * step)
        errors.append(abs(grad[i] - fd) / max(abs(fd), 1e-12))
    return errors


def test_criterion_3_in_span_recovery(greedy32):
    out = greedy32["out"]
    coeffs = read_coefficients(out)
    doc = json.loads((out / "identify.json").read_text())
    elapsed = greedy32["seconds"]
    assert abs(coeffs[(1, 1)] - 0.05) <= 1e-3
    for key, value in coeffs.items():
        if key != (1, 1):
            assert abs(value) <= 1e-3, f"stray coefficient on {key}: {value}"
    assert doc["objective_value"] <= 1e-10
    assert elapsed <= BUDGETS[3]
    report(3, elapsed, f"coeff(1,1)={coeffs[(1, 1)]:.6f}, "
                       f"objective {doc['objective_value']:.2e}")


def test_criterion_4_baseline_degeneracy(baseline32p5):
    out = baseline32p5["out"]
    doc = json.loads((out / "identify.json").read_text())
    elapsed = baseline32p5["seconds"]
    coll = doc["collinearity_union"]
    onset = doc["max_error_on_sets"]
    offset = doc["max_error_on_square"]
    assert coll <= 0.05
    assert offset >= 10.0 * onset, f"off-set/on-set factor {offset / onset:.2f}"
    assert doc["objective_value"] <= 1e-8
    assert elapsed <= BUDGETS[4]
    report(4, elapsed, f"collinearity {coll:.2e}, error factor {offset / onset:.1f}, "
                       f"objective {doc['objective_value']:.2e}")


def test_criterion_5_convexification(greedy32, baseline32p2):
    t0 = time.perf_counter()
    eigen = {}
    for tag, bundle in (("greedy", greedy32), ("random", baseline32p2)):
        cfg, ctx, controls = _load_artifact(bundle["out"])
        truth = gr.ClosedForm(cfg.gamma1, cfg.gamma2, kind="bilinear")
        data = gr.generate_data(truth, controls, ctx)
        coeffs = read_coefficients(bundle["out"])
        alpha = np.array([coeffs[e] for e in ctx.basis.ordered_exponents()])
        pair = (ctx.basis.position_of((2, 0)), ctx.basis.position_of((1, 1)))
        hess = gr.slice_hessian(controls, data, ctx, alpha, pair, step=1e-3)
        eigen[tag] = float(np.linalg.eigvalsh(hess)[0])
    elapsed = (time.perf_counter() - t0) + greedy32["seconds"] + baseline32p2["seconds"]
    ratio = eigen["greedy"] / eigen["random"] if eigen["random"] != 0 else np.inf
    assert eigen["greedy"] > 0.0
    assert eigen["greedy"] > eigen["random"], (
        f"greedy {eigen['greedy']:.3e} vs random {eigen['random']:.3e}")
    assert ratio > 1.0
    assert elapsed <= BUDGETS[5]
    report(5, elapsed, f"min eig greedy {eigen['greedy']:.3e}, "
                       f"random {eigen['random']:.3e}, ratio {ratio:.2f}")


def test_criterion_6_greedy_invariants_and_oracle():
    t0 = time.perf_counter()
    # structural invariants for both desk-scale degrees
    for degree in (1, 2):
        ctx = make_context(n=16, degree=degree)
        cfg = gr.GreedyConfig(seed=0)
        run = gr.run_greedy(ctx, cfg)
        size = ctx.basis.size
        assert run.k_final <= size
        assert all(cfg.box.contains(c) for c in run.controls)
        assert sorted(run.basis.order) == list(range(size))
        assert all(f >= 0.0 for f in run.f_max_history)
        if run.stopped_by == "exhausted":
            assert run.k_final == size
        if degree == 1:
            p1_run = run

    # winner-by-winner agreement with a 10-restart brute-force sweep on P=1:
    # replay the stages, validating each selection against the oracle
    ctx = make_context(n=16, degree=1)
    cfg = gr.GreedyConfig(seed=0)
    control, record = run_initialization(ctx, cfg)
    winner, f_max = record["winner"], record["f_max"]
    scores = {c: oracle_best(ctx, np.zeros(0), c, cfg, None).value
              for c in range(3)}
    assert _select_winner(scores) == winner == p1_run.winners[0]
    ctx = promote(ctx, 0, winner)
    controls = [control]
    k = 1
    while k <= 2 and f_max > cfg.tol1:
        betas, _ = run_fitting_sweep(ctx, k, controls, cfg)
        scores = {c: oracle_best(ctx, betas[c], c, cfg, controls[-1]).value
                  for c in sorted(betas)}
        oracle_winner = _select_winner(scores)
        assert oracle_winner == p1_run.winners[k], (
            f"step {k}: oracle {oracle_winner} vs run {p1_run.winners[k]}")
        control, record = run_splitting(ctx, k, betas, cfg,
                                        prev_control=controls[-1])
        winner, f_max = record["winner"], record["f_max"]
        assert winner == oracle_winner
        ctx = promote(ctx, k, winner)
        controls.append(control)
        k += 1
    elapsed = time.perf_counter() - t0
    assert elapsed <= BUDGETS[6]
    report(6, elapsed, f"P=1 winners {p1_run.winners} match oracle")


def test_criterion_7_taylor_saturation(greedy32, workdir):
    t0 = time.perf_counter()
    # degree-2 run reuses the stored controls (the design is offline and
    # truth-independent); degree-3 needs its own design
    tables = {}
    cfg2, ctx2, controls2 = _load_artifact(greedy32["out"])
    truth = gr.ClosedForm(0.2, 0.2, kind="exponential")
    data2 = gr.generate_data(truth, controls2, ctx2)
    alpha2, _, _ = gr.identify(controls2, data2, ctx2, cfg2.optim_coeff,
                               cfg2.alpha_max, seed=cfg2.seed)
    tables[2] = gr.taylor_error_table("exponential", alpha2, ctx2.basis, d=2)

    doc3 = {"n": 32, "degree": 3, "truth": "exponential", "seed": 0, "threads": 2,
            "optim_coeff": {"grad_tol": 1e-12, "max_iters": 3000, "restarts": 1}}
    out3 = workdir / "greedy32p3"
    run_pipeline(doc3, out3, [["greedy"], ["identify"]])
    cfg3, ctx3, controls3 = _load_artifact(out3)
    coeffs3 = read_coefficients(out3)
    alpha3 = np.array([coeffs3[e] for e in ctx3.basis.ordered_exponents()])
    tables[3] = gr.taylor_error_table("exponential", alpha3, ctx3.basis, d=2)

    # hard check: all entries finite
    for table in tables.values():
        for truth_c, ident_c, err in table.values():
            assert np.isfinite(err) and np.isfinite(ident_c)
    # soft check: low-order errors shrink with the richer basis
    low = [(i1, i2) for i1 in range(3) for i2 in range(3) if i1 + i2 <= 2]
    worse = [key for key in low if tables[3][key][2] > tables[2][key][2] + 1e-12]
    if worse:
        warnings.warn(f"saturation soft check: degree-3 errors not smaller on {worse}")
    err2 = sum(tables[2][k][2] for k in low)
    err3 = sum(tables[3][k][2] for k in low)
    elapsed = time.perf_counter() - t0
    assert elapsed <= BUDGETS[7]
    report(7, elapsed, f"sum low-order error P=2: {err2:.4e}, P=3: {err3:.4e}")


def test_criterion_8_stability_probes():
    t0 = time.perf_counter()
    ctx = make_context(n=32, degree=2)
    control = constant_control(ctx.grid, (0.5, 0.5))
    maxima = {}
    for k in (1, 2, 3):
        stats = gr.stability_probe(ctx, k=k, samples=50, seed=0, control=control)
        if k == 3:
            for family in (stats.h1_per_dalpha, stats.y_per_dalpha,
                           stats.dalpha_per_y):
                assert np.isfinite(family[0])
        maxima[k] = stats.h1_per_dalpha[0]
    for k in (2, 3):
        assert maxima[k] <= 2.0 * k * maxima[1], (
            f"H1 ratio grew faster than linear: {maxima}")
    elapsed = time.perf_counter() - t0
    assert elapsed <= BUDGETS[8]
    report(8, elapsed, f"H1 ratio maxima {maxima[1]:.3e} / {maxima[2]:.3e} / "
                       f"{maxima[3]:.3e}")


def test_criterion_9_determinism(greedy32, baseline32p5, workdir):
    t0 = time.perf_counter()
    csvs = ("controls.csv", "identified.csv", "error_field.csv", "taylor.csv")

    rerun3 = workdir / "greedy32_rerun"
    run_pipeline(GREEDY32_DOC, rerun3, [["greedy"], ["identify"]])
    for name in csvs:
        assert (rerun3 / name).read_bytes() == (greedy32["out"] / name).read_bytes(), (
            f"criterion 3 rerun differs in {name}")

    rerun4 = workdir / "baseline32p5_rerun"
    run_pipeline(BASELINE32P5_DOC, rerun4, [["baseline", "--count", "19"]])
    for name in csvs:
        assert (rerun4 / name).read_bytes() == (baseline32p5["out"] / name).read_bytes(), (
            f"criterion 4 rerun differs in {name}")

    # criterion 5 artifacts: repeated landscape scans on the same stored run
    for out in (greedy32["out"], rerun3):
        code = cli_main(["--config", str(out / "config.json"), "--out", str(out),
                         "landscape", "--points", "9"])
        assert code == 0
    a = (greedy32["out"] / "landscape.csv").read_bytes()
    b = (rerun3 / "landscape.csv").read_bytes()
    assert a == b, "criterion 5 landscape rerun differs"
    elapsed = time.perf_counter() - t0
    report(9, elapsed, "criteria 3-5 outputs byte-identical across reruns")
