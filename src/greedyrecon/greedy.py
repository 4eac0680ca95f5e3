"""Greedy optimal-input design: initialization, fitting sweeps and splitting.

The driver designs one control per accepted basis candidate.  Position 0
is filled by the initialization problem (discriminating each candidate
against the zero nonlinearity); afterwards the loop alternates a fitting
sweep (for every remaining candidate, fit coefficients on the already
selected elements that best mimic the candidate's states under the current
controls) and a splitting step (find the control that maximally separates
the fitted surrogate from its candidate).  The winning candidate is swapped
into the next position.  The loop stops when the winner's unregularized
discrimination value f_max falls to tol1 or the basis is exhausted.

Per-candidate subproblems are independent and run in turn; each draws from
its own seeded stream keyed by (stage, iteration, candidate position), so a
result does not depend on which other candidates are solved.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .exceptions import GreedyFailure, NumericalError
from .objectives import (
    ControlBox,
    DiscriminationObjective,
    FittingObjective,
    SolverContext,
    constant_control,
    control_to_vec,
    vec_to_control,
)
from .optimize import OptimConfig, multistart_maximize, multistart_minimize

# stage ids keying the random streams of stage_rng
STAGE_INIT = 1
STAGE_FIT = 2
STAGE_SPLIT = 3
STAGE_IDENTIFY = 4


def stage_rng(seed: int, stage: int, iteration: int, candidate: int) -> np.random.Generator:
    """Independent stream per (stage, iteration, candidate), order-invariant."""
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), stage, iteration, candidate])
    )


DEFAULT_OPTIM_CONTROL = OptimConfig(grad_tol=1e-6, max_iters=80)


@dataclass(frozen=True)
class GreedyConfig:
    box: ControlBox = ControlBox((-1.0, -1.0), (1.0, 1.0))
    optim_coeff: OptimConfig = OptimConfig()
    optim_control: OptimConfig = DEFAULT_OPTIM_CONTROL
    tol1: float = float(np.finfo(float).eps)
    nu: float = 1e-6
    alpha_max: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.tol1 <= 0:
            raise ValueError("tol1 must be positive")
        if self.nu < 0 or self.alpha_max < 0:
            raise ValueError("nu and alpha_max must be nonnegative")


@dataclass
class GreedyRun:
    """A greedy design; each completed step is one control and one progress
    record (stage, k, scores, errors, winner, f_max), so a run that fails at
    step k still holds k usable controls; ``stopped_by`` is "tol1",
    "exhausted" or "failed"."""

    basis: object
    controls: list = dc_field(default_factory=list)
    progress: list = dc_field(default_factory=list)
    stopped_by: str = "failed"

    @property
    def k_final(self) -> int:
        return len(self.controls)

    @property
    def winners(self) -> list:
        return [rec["winner"] for rec in self.progress]

    @property
    def swaps(self) -> list:
        return [(rec["k"], rec["winner"]) for rec in self.progress]

    @property
    def f_max_history(self) -> list:
        return [rec["f_max"] for rec in self.progress]


def _map_candidates(fn, candidates):
    """Run ``fn`` on every candidate; returns ({cand: result}, {cand: message}).

    A candidate whose subproblem raises NumericalError is left out of the
    results and keeps the error message instead.
    """
    results, errors = {}, {}
    for cand in candidates:
        try:
            results[cand] = fn(cand)
        except NumericalError as exc:
            errors[cand] = str(exc)
    return results, errors


def _all_failed(what: str, errors: dict) -> GreedyFailure:
    cand, message = min(errors.items())
    return GreedyFailure(f"every {what} failed (candidate {cand}: {message})")


# scores within this relative band count as equal and the lowest candidate
# position wins; symmetric candidate pairs (e.g. the two linear monomials
# under equal couplings) have exactly equal optima that solvers only
# resolve to roundoff
WINNER_TIE_REL = 1e-6


def _select_winner(scores: dict) -> int:
    viable = {c: s for c, s in scores.items() if s is not None}
    best = max(viable.values())
    band = WINNER_TIE_REL * abs(best)
    return min(c for c, s in viable.items() if s >= best - band)


def control_optim_config(cfg: GreedyConfig, grid) -> OptimConfig:
    """Control-space optimizer settings with a mesh-consistent tolerance.

    Gradients with respect to nodal control values carry the quadrature
    weight h^2, so a flat Euclidean tolerance would be mesh-dependent;
    ``grad_tol`` is interpreted in the L2-representer scale and converted
    to the flat scale by one factor of h.
    """
    return replace(cfg.optim_control, grad_tol=cfg.optim_control.grad_tol * grid.h)


def _optimize_discrimination(ctx, beta, cand, cfg, starts, rng):
    obj = DiscriminationObjective(ctx, beta, cand, cfg.nu)
    lo, hi = cfg.box.flat_bounds(ctx.grid)
    # the random start is a CONSTANT control: uniform nodal noise is
    # smoothed away by the solve and makes a poor start at fine meshes,
    # while the informative controls are smooth and large-scale
    random_start = control_to_vec(constant_control(ctx.grid, cfg.box.sample_constant(rng)))
    return multistart_maximize(obj, [*starts, random_start], lo, hi,
                               control_optim_config(cfg, ctx.grid))


def _discrimination_stage(ctx: SolverContext, cfg: GreedyConfig, stage: int,
                          k: int, betas: dict, starts):
    """Optimize a control for every candidate in ``betas`` against its fitted
    surrogate, then swap the winner to position k.

    Returns (control, progress record)."""
    name = "initialization" if stage == STAGE_INIT else "splitting"

    def attempt(cand):
        rng = stage_rng(cfg.seed, stage, k, cand)
        return _optimize_discrimination(ctx, betas[cand], cand, cfg, starts, rng)

    candidates = sorted(betas)
    results, errors = _map_candidates(attempt, candidates)
    if not results:
        raise _all_failed(f"{name} subproblem at k={k}", errors)
    scores = {c: (results[c].value if c in results else None) for c in candidates}
    winner = _select_winner(scores)
    control = vec_to_control(ctx.grid, results[winner].x)
    f_max = DiscriminationObjective(ctx, betas[winner], winner, nu=0.0)(
        results[winner].x, need_grad=False).value
    ctx.basis.swap(k, winner)
    record = {"stage": name, "k": k, "scores": scores,
              "errors": errors, "winner": winner, "f_max": f_max}
    return control, record


def run_initialization(ctx: SolverContext, cfg: GreedyConfig):
    """Pick the most distinguishable candidate and its control; swap it to
    position 0.  Every candidate is discriminated against the zero
    nonlinearity (``beta=()``), starting from the zero control.

    Returns (control, progress record)."""
    betas = {c: np.zeros(0) for c in range(ctx.basis.size)}
    zero_start = control_to_vec(ctx.grid.zero_field())
    return _discrimination_stage(ctx, cfg, STAGE_INIT, 0, betas, [zero_start])


def fitting_targets(ctx: SolverContext, candidate_pos: int, controls):
    """States of the candidate's single-element nonlinearity under each
    control, solved as one stack."""
    return list(ctx.solve(ctx.unit(candidate_pos), np.stack(controls)))


def run_fitting_sweep(ctx: SolverContext, k: int, controls, cfg: GreedyConfig):
    """Fit coefficients on the first k elements for every remaining candidate.

    Returns ({candidate position: fitted coefficient vector of length k},
    {candidate position: failure message}): a candidate whose fit fails is
    left out of the first and keeps its message in the second.  Raises
    GreedyFailure if every fit fails.
    """
    size = ctx.basis.size
    if not (1 <= k <= size - 1):
        raise ValueError(f"fitting sweep needs 1 <= k <= K-1, got k={k}")
    if len(controls) != k:
        raise ValueError("need exactly k controls")
    lo = np.zeros(k)
    hi = np.full(k, cfg.alpha_max)

    def attempt(cand):
        rng = stage_rng(cfg.seed, STAGE_FIT, k, cand)
        targets = fitting_targets(ctx, cand, controls)
        obj = FittingObjective(ctx, controls, targets, cfg.nu)
        return multistart_minimize(obj, [np.zeros(k), rng.uniform(lo, hi)], lo, hi,
                                   cfg.optim_coeff)

    results, errors = _map_candidates(attempt, range(k, size))
    if not results:
        raise _all_failed(f"fitting subproblem at k={k}", errors)
    return {c: r.x for c, r in results.items()}, errors


def run_splitting(ctx: SolverContext, k: int, betas: dict, cfg: GreedyConfig,
                  prev_control=None):
    """Find the next control and candidate; swap the winner to position k.

    Returns (control, progress record)."""
    starts = [control_to_vec(ctx.grid.zero_field())]
    if prev_control is not None:
        starts.append(control_to_vec(prev_control))
    return _discrimination_stage(ctx, cfg, STAGE_SPLIT, k, betas, starts)


def run_greedy(ctx: SolverContext, cfg: GreedyConfig) -> GreedyRun:
    """Full greedy sweep; returns the reordered basis and all designed controls.

    A GreedyFailure escaping from a stage carries the run up to the last
    completed step on its ``partial`` attribute, with ``stopped_by="failed"``.
    """
    run = GreedyRun(ctx.basis)
    try:
        control, record = run_initialization(ctx, cfg)
        run.controls.append(control)
        run.progress.append(record)
        for k in range(1, ctx.basis.size):
            if record["f_max"] <= cfg.tol1:
                break
            betas, fit_errors = run_fitting_sweep(ctx, k, run.controls, cfg)
            control, record = run_splitting(ctx, k, betas, cfg,
                                            prev_control=run.controls[-1])
            # a candidate whose fit failed never reaches the splitting step
            errors = {c: f"fitting: {msg}" for c, msg in fit_errors.items()}
            errors.update(record["errors"])
            record["errors"] = dict(sorted(errors.items()))
            run.controls.append(control)
            run.progress.append(record)
    except GreedyFailure as exc:
        exc.partial = run
        raise
    run.stopped_by = "tol1" if record["f_max"] <= cfg.tol1 else "exhausted"
    return run
