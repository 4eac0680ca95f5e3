"""The benchmark's workloads: inputs made from a seed, one round of work, checks.

A workload object is built in a fresh process.  ``setup`` does everything a
user pays before the first result: it loads the configuration, builds the
solver context and makes the first Poisson solve on each mesh (which pays
the lazy sparse factorization).  Each round then calls ``reset`` and
``operate``, which the worker times, and ``verify``, which it does not:
``operate`` runs the workload's operations on the same inputs every round,
and ``verify`` checks their outputs and counts what was attempted and what
failed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import shutil
from pathlib import Path

import numpy as np

from greedyrecon import analysis, cli, config, forward, nonlinearity
from greedyrecon.exceptions import NumericalError

import checks

# The acceptance configs of the program's test suite.  The CLI workloads keep
# their master seed 0 whatever the benchmark seed: the master seed sets the
# optimizer's starting points, and with them its path length, which moved
# the work of identify32p5 by 47% between two seeds.
ACCEPTANCE_OPTIM_COEFF = {"grad_tol": 1e-12, "max_iters": 3000, "restarts": 1}
DESIGN_DOC = {"n": 32, "degree": 2, "truth": "bilinear", "seed": 0, "threads": 2,
              "optim_coeff": ACCEPTANCE_OPTIM_COEFF}
BASELINE_DOC = {"n": 32, "degree": 5, "truth": "bilinear", "seed": 0, "threads": 2,
                "optim_coeff": ACCEPTANCE_OPTIM_COEFF}
GREEDY_SPANS = ("greedy.run_initialization", "greedy.run_fitting_sweep",
                "greedy.run_splitting", "greedy.subproblem")
ARTIFACT_CSVS = ("controls.csv", "identified.csv", "error_field.csv", "taylor.csv")


@dataclasses.dataclass
class RoundResult:
    attempted: int
    failed: int
    failures: list  # messages of failed correctness checks
    digest: str  # hash of the round's outputs, equal for equal inputs
    greedy: dict = dataclasses.field(default_factory=dict)


def first_poisson_solve(ctx) -> None:
    rhs = ctx.grid.zero_field()
    rhs[:, 1:-1, 1:-1] = 1.0
    ctx.op.solve(rhs)


class CliWorkload:
    """A chain of CLI commands on one config document."""

    def __init__(self, doc, commands, out_root: Path, bypassed=()):
        self.bypassed = bypassed
        self.out = out_root / "artifacts"
        self.doc = dict(doc, output_dir=str(self.out))
        self.commands = commands
        self.cfg_path = out_root / "config.json"
        self.log_path = out_root / "cli.log"
        self.threads = self.doc.get("threads", 1)

    def setup(self):
        self.cfg_path.write_text(json.dumps(self.doc, indent=2, sort_keys=True))
        self.cfg = config.ExperimentConfig.load(self.cfg_path)
        first_poisson_solve(config.build_context(self.cfg))

    def reset(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def operate(self):
        """Run the command chain; returns the exit codes of the commands run."""
        codes = []
        with open(self.log_path, "a") as log, contextlib.redirect_stdout(log), \
                contextlib.redirect_stderr(log):
            for cmd in self.commands:
                codes.append(cli.main(["--config", str(self.cfg_path)] + cmd))
                if codes[-1] != cli.EXIT_OK:
                    break
        return codes

    def verify(self, codes) -> RoundResult:
        attempted = len(self.commands)
        failed = sum(1 for c in codes if c != cli.EXIT_OK) + attempted - len(codes)
        stats = self.greedy_stats()
        attempted += stats.get("candidates", 0)
        failed += stats.get("candidates_failed", 0)
        failures = [] if failed else self.check()
        return RoundResult(attempted, failed, failures, self.digest(), stats)

    def greedy_stats(self) -> dict:
        path = self.out / "greedy.json"
        if not path.exists():
            return {}
        scores = [s for rec in json.loads(path.read_text()).get("progress", [])
                  for s in rec["scores"].values()]
        return {"candidates": len(scores),
                "candidates_failed": sum(1 for s in scores if s is None),
                "zero_scores": sum(1 for s in scores if s == 0.0)}

    def check(self) -> list:
        size = (self.cfg.degree + 1) * (self.cfg.degree + 2) // 2
        if "greedy" in [c[0] for c in self.commands]:
            return checks.check_design(self.out, self.cfg.eps_a, self.cfg.eps_b, size)
        return checks.check_baseline(self.out, self.cfg.alpha_max)

    def digest(self) -> str:
        h = hashlib.sha256()
        for name in ARTIFACT_CSVS:
            path = self.out / name
            if path.exists():
                h.update(name.encode())
                h.update(path.read_bytes())
        return h.hexdigest()


def smooth_controls(params, grid):
    """Controls a0 + a1*sin(k1*pi*(x1+1)/2)*sin(k2*pi*(x2+1)/2) per component,
    one per (a0, a1, (k1, k2)) in ``params``; |a0| + |a1| <= 1 keeps them in
    the box [-1, 1]^2."""
    x1, x2 = grid.meshgrid()
    fields = []
    for a0, a1, (k1, k2) in params:
        mode = np.sin(k1 * np.pi * (x1 + 1.0) / 2.0) * np.sin(k2 * np.pi * (x2 + 1.0) / 2.0)
        f = np.stack([a0[c] + a1[c] * mode for c in range(2)])
        f[:, 0, :] = f[:, -1, :] = f[:, :, 0] = f[:, :, -1] = 0.0
        fields.append(f)
    return fields


class ForwardFine:
    """Forward solves at n=128 (cached sparse LU) and n=256 (conjugate
    gradients), through ``solve_semilinear``, ``generate_data`` and a
    value-only ``landscape_scan``; no adjoint, optimizer or greedy call.

    The coarse mesh carries the manufactured solutions, the three closed-form
    truths under two seeded controls, four P=2 coefficient draws at each of
    gamma = 0.2 and 1, and a 5x5 landscape; the fine mesh carries the
    manufactured solutions.
    """

    COARSE, FINE = 128, 256
    KINDS = ("bilinear", "sinusoidal", "exponential")
    # The seed sets amplitudes and coefficients, not mode shapes.  On the fine
    # mesh only the manufactured solutions run: their solver work hardly
    # depends on the seed, where the fixed-point and conjugate-gradient
    # iterations under a seeded control moved a fine-mesh solve by 20%
    # between seeds.  The fine mesh carries about half of a round, because
    # the coarse-mesh LU solves swing by up to 1.5x with the load of the
    # machine's other tenants, and the fine-mesh solves do not.
    MANUFACTURED = 3  # seeded (eta, theta) pairs, solved on both meshes
    MODES = ((1, 2), (2, 1))  # (k1, k2) of the two seeded controls
    DRAWS = {0.2: 4, 1.0: 4}  # coefficient draws per coupling strength at n=128
    LATTICE = 0.025 * np.arange(5)  # holds the true (2,0) and (1,1) values 0, 0.05

    def __init__(self, seed: int):
        self.seed = seed
        self.threads = 1
        self.bypassed = ("forward.solve_adjoint", "optimize.minimize_box") + GREEDY_SPANS

    def setup(self):
        self.ctx = {}
        for n in (self.COARSE, self.FINE):
            cfg = config.ExperimentConfig(n=n, degree=2)
            self.ctx[n] = config.build_context(cfg)
            first_poisson_solve(self.ctx[n])
        rng = np.random.default_rng(self.seed)
        self.manufactured = [tuple(rng.uniform(0.25, 1.0, 2))
                             for _ in range(self.MANUFACTURED)]
        params = [(rng.uniform(-0.5, 0.5, 2), rng.uniform(-0.5, 0.5, 2), k)
                  for k in self.MODES]
        self.controls = smooth_controls(params, self.ctx[self.COARSE].grid)
        exps = self.ctx[self.COARSE].basis.ordered_exponents()
        self.draws = [(gamma, dict(zip(exps, rng.uniform(0.0, 1.0, len(exps)))))
                      for gamma, count in self.DRAWS.items() for _ in range(count)]

    def reset(self):
        pass

    def _solve(self, ctx, nonlin, eps, tally):
        """One forward solve; a stall or blow-up counts as a failed operation."""
        tally[0] += 1
        try:
            state, report = forward.solve_semilinear(ctx.op, nonlin, eps, ctx.fp)
        except NumericalError:
            tally[1] += 1
            return None
        if not report.converged:
            tally[1] += 1
            return None
        return state

    def operate(self) -> dict:
        """All solves of one round; returns the states with what checks them."""
        tally = [0, 0]
        solved = []  # (label, state, control, G, gamma, n)
        manufactured = {}
        gam = 0.2

        # manufactured bilinear solutions on both meshes
        bilinear = nonlinearity.ClosedForm(gam, gam, kind="bilinear")
        G = functools.partial(checks.closed_form_G, "bilinear")
        for k, (eta, theta) in enumerate(self.manufactured):
            for n, ctx in self.ctx.items():
                eps = analysis.constructed_control(eta, theta, gam, gam, ctx.grid)
                y = self._solve(ctx, bilinear, eps, tally)
                if y is not None:
                    manufactured[k, n] = y
                    solved.append((f"manufactured {k} n={n}", y, eps, G, gam, n))

        # closed-form truths under the seeded controls on the coarse mesh
        n, ctx = self.COARSE, self.ctx[self.COARSE]
        data = {}
        for kind in self.KINDS:
            truth = nonlinearity.ClosedForm(gam, gam, kind=kind)
            tally[0] += len(self.controls)
            try:
                ys = analysis.generate_data(truth, self.controls, ctx)
            except NumericalError:
                tally[1] += len(self.controls)
                continue
            data[kind] = ys
            G = functools.partial(checks.closed_form_G, kind)
            for m, (y, eps) in enumerate(zip(ys, self.controls)):
                solved.append((f"{kind} n={n} control {m}", y, eps, G, gam, n))

        # random P=2 interactions at two coupling strengths
        exps = ctx.basis.ordered_exponents()
        for m, (gamma, coeffs) in enumerate(self.draws):
            combo = nonlinearity.BasisCombo(
                gamma, gamma, basis=ctx.basis, coeffs=np.array([coeffs[e] for e in exps]))
            eps = self.controls[m % 2]
            y = self._solve(ctx, combo, eps, tally)
            if y is not None:
                solved.append((f"P=2 draw gamma={gamma} n={n}", y, eps,
                               functools.partial(checks.monomial_G, coeffs), gamma, n))

        # value-only identification landscape around the in-span truth
        scan = None
        if "bilinear" in data:
            pair = (ctx.basis.position_of((2, 0)), ctx.basis.position_of((1, 1)))
            alpha = np.zeros(ctx.basis.size)
            alpha[pair[1]] = 0.05
            scan = analysis.landscape_scan(self.controls, data["bilinear"], ctx, alpha,
                                           pair, self.LATTICE, self.LATTICE).values
            tally[0] += scan.size
            tally[1] += int(np.sum(~np.isfinite(scan)))
        return {"tally": tally, "solved": solved, "manufactured": manufactured,
                "scan": scan}

    def verify(self, raw) -> RoundResult:
        failures = []
        digest = hashlib.sha256()
        for label, y, eps, G, gamma, n in raw["solved"]:
            failures += checks.check_residual(label, y, eps, G, gamma, gamma,
                                              self.ctx[n].grid.h)
            digest.update(y.tobytes())
        for k, (eta, theta) in enumerate(self.manufactured):
            ys = [raw["manufactured"].get((k, n)) for n in (self.COARSE, self.FINE)]
            if all(y is not None for y in ys):
                failures += checks.check_h2_ratio(
                    checks.manufactured_error(ys[0], eta, theta, self.COARSE),
                    checks.manufactured_error(ys[1], eta, theta, self.FINE))
        if raw["scan"] is not None:
            # (2,0) = LATTICE[0] = 0 and (1,1) = LATTICE[2] = 0.05
            failures += checks.check_landscape(raw["scan"], (0, 2))
            digest.update(raw["scan"].tobytes())
        attempted, failed = raw["tally"]
        return RoundResult(attempted, failed, failures, digest.hexdigest())


def make(name: str, out_root: Path, seed: int):
    """The workload called ``name``; forward-fine makes its inputs from ``seed``."""
    design = [["greedy"], ["identify"]]
    if name == "design16":
        return CliWorkload(dict(DESIGN_DOC, n=16), design, out_root)
    if name == "identify32p5":
        return CliWorkload(BASELINE_DOC, [["baseline", "--count", "19"]],
                           out_root, bypassed=GREEDY_SPANS)
    if name == "forward-fine":
        return ForwardFine(seed)
    # one-off reference pipelines, too long for a timed workload
    if name == "design32":
        return CliWorkload(DESIGN_DOC, design, out_root)
    if name == "design64":  # the paper-default config at two threads
        return CliWorkload({"n": 64, "degree": 2, "truth": "bilinear", "seed": 0,
                            "threads": 2}, design, out_root)
    if name == "design16p3":
        return CliWorkload(dict(DESIGN_DOC, n=16, degree=3), design, out_root)
    raise KeyError(name)
