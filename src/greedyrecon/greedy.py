"""Greedy optimal-input design: initialization, fitting sweeps and splitting.

The driver designs one control per accepted basis candidate.  Position 0
is filled by the initialization problem (discriminating each candidate
against the zero nonlinearity); afterwards the loop alternates a fitting
sweep (for every remaining candidate, fit coefficients on the already
selected elements that best mimic the candidate's states under the current
controls) and a splitting step (find the control that maximally separates
the fitted surrogate from its candidate).  The next step runs on a basis
with the winner at the next position (:func:`promote`); no stage changes
the context it is handed.  The loop stops when the winner's unregularized
discrimination value f_max falls to tol1 or the basis is exhausted.

Per-candidate subproblems are independent, so a result does not depend on
which other candidates are solved.  Each stage is one multistart call
whose (candidate, start) runs advance in lockstep, each on the path it
takes alone.  The fits of a sweep start from zero and draw nothing.  A
discrimination stage solves each round as one stack and draws each
candidate's random start from its own stream keyed by (stage, iteration,
candidate position).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .exceptions import GreedyFailure, NumericalError
from .objectives import (
    ControlBox,
    DiscriminationObjective,
    FittingObjective,
    ObjectiveEval,
    SolverContext,
    constant_control,
    control_to_vec,
    discriminate,
    vec_to_control,
)
from .optimize import OptimConfig, multistart_maximize, multistart_minimize

# stage ids keying stage_rng's streams; 2 stays unused so no stream moves
STAGE_INIT = 1
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
    record (stage, k, scores, errors, winner, f_max), and ``basis`` is in the
    order after the last, so a run that fails at step k still holds k usable
    controls; ``stopped_by`` is "tol1", "exhausted" or "failed"."""

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


def _stage_outcome(what: str, candidates, runs, errors: dict):
    """(results, errors, stats) of a stage's multistart outcomes, one per
    candidate: each error's message joins ``errors``, and the stats hold the
    stage's rounds and evaluations, and the iterations, evaluations and
    convergence of each candidate's winning start.  Raises GreedyFailure if
    no candidate has a result."""
    outcomes = dict(zip(candidates, runs.outcomes))
    errors.update((c, str(r)) for c, r in outcomes.items() if isinstance(r, NumericalError))
    results = {c: r for c, r in outcomes.items() if c not in errors}
    if not results:
        cand, message = min(errors.items())
        raise GreedyFailure(f"every {what} failed (candidate {cand}: {message})")
    stats = {"rounds": runs.rounds, "evals": runs.evals,
             "candidates": {c: {"iterations": r.iterations, "evals": r.evals,
                                "converged": r.converged} for c, r in results.items()}}
    return results, errors, stats


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


# The discrimination runs see the score, its gradient and their flat
# tolerance times a power of two near DISCRIMINATION_C / h^2.  Unscaled, the
# gradient carries h^2, and L-BFGS-B, which skips the updates of the locally
# concave score, began each line search at a step of about 1e-6 and grew it
# x4 per evaluation up to the box.  Of c = 2^8 .. 2^14 on the P=2 designs at
# n=16, 32 and 64 and the P=3 design at n=16 (master seed 0), only 2^11 kept
# every winning start converged, the unscaled winners at n=16 and 32 and the
# same winners on all three meshes.
DISCRIMINATION_C = 2048.0


def discrimination_scale(grid) -> float:
    """The power of two nearest DISCRIMINATION_C / h^2 on a log scale; a
    power of two, so scaling a score and scaling it back are exact."""
    return 2.0 ** round(math.log2(DISCRIMINATION_C / grid.h**2))


def promote(ctx: SolverContext, k: int, winner: int) -> SolverContext:
    """A new context like ``ctx``, on a basis with positions k and ``winner`` swapped."""
    order = list(ctx.basis.order)
    order[k], order[winner] = order[winner], order[k]
    return replace(ctx, basis=replace(ctx.basis, order=order))


def _discrimination_stage(ctx: SolverContext, cfg: GreedyConfig, stage: int,
                          k: int, betas: dict, starts):
    """Optimize a control for every candidate in ``betas`` against its fitted
    surrogate, and pick the winner for position k.

    Every candidate runs from ``starts`` and one random constant control
    drawn from its own stream; all runs of the stage advance in lockstep on
    the score times discrimination_scale(ctx.grid).  Returns (control,
    progress record); the record's scores and f_max are unscaled, and its
    ``stats`` are the stage's from :func:`_stage_outcome`."""
    name = "initialization" if stage == STAGE_INIT else "splitting"
    candidates = sorted(betas)
    objectives = [DiscriminationObjective(ctx, betas[c], c, cfg.nu) for c in candidates]
    # the random start is a CONSTANT control: uniform nodal noise is
    # smoothed away by the solve and makes a poor start at fine meshes,
    # while the informative controls are smooth and large-scale
    run_starts = [
        [*starts, control_to_vec(constant_control(
            ctx.grid, cfg.box.sample_constant(stage_rng(cfg.seed, stage, k, c))))]
        for c in candidates]
    lo, hi = cfg.box.flat_bounds(ctx.grid)
    scale = discrimination_scale(ctx.grid)
    # grad_tol holds in the L2-representer scale: one factor of h takes it to
    # the flat gradient (which carries h^2), and scale to the scaled score
    ocfg = replace(cfg.optim_control, grad_tol=cfg.optim_control.grad_tol * ctx.grid.h * scale)

    def evaluate(problems, vecs):
        return [ObjectiveEval(scale * ev.value, scale * ev.grad)
                for ev in discriminate([objectives[p] for p in problems], vecs)]

    runs = multistart_maximize(evaluate, run_starts, lo, hi, ocfg)
    results, errors, stats = _stage_outcome(f"{name} subproblem at k={k}",
                                            candidates, runs, {})
    scores = {c: (results[c].value / scale if c in results else None) for c in candidates}
    winner = _select_winner(scores)
    control = vec_to_control(ctx.grid, results[winner].x)
    f_max = DiscriminationObjective(ctx, betas[winner], winner, nu=0.0)(
        results[winner].x, need_grad=False).value
    record = {"stage": name, "k": k, "scores": scores, "errors": errors,
              "winner": winner, "f_max": f_max, "stats": stats}
    return control, record


def run_initialization(ctx: SolverContext, cfg: GreedyConfig):
    """Pick the most distinguishable candidate for position 0 and its
    control.  Every candidate is discriminated against the zero
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
    """Fit coefficients on the first k elements for every remaining candidate,
    all fits from zero in one multistart call.

    Returns ({candidate position: fitted coefficient vector of length k},
    {candidate position: failure message}, stats): a candidate whose
    targets or fit fail is left out of the first and keeps its message in
    the second.  Raises GreedyFailure if every fit fails.
    """
    size = ctx.basis.size
    if not (1 <= k <= size - 1):
        raise ValueError(f"fitting sweep needs 1 <= k <= K-1, got k={k}")
    if len(controls) != k:
        raise ValueError("need exactly k controls")
    fits, errors = {}, {}
    for cand in range(k, size):
        try:
            targets = fitting_targets(ctx, cand, controls)
            fits[cand] = FittingObjective(ctx, controls, targets, cfg.nu)
        except NumericalError as exc:
            errors[cand] = str(exc)
    objectives = list(fits.values())

    def evaluate(problems, betas):
        return [objectives[p](beta) for p, beta in zip(problems, betas)]

    runs = multistart_minimize(evaluate, [[np.zeros(k)]] * len(fits), np.zeros(k),
                               np.full(k, cfg.alpha_max), cfg.optim_coeff)
    results, errors, stats = _stage_outcome(f"fitting subproblem at k={k}",
                                            list(fits), runs, errors)
    return {c: res.x for c, res in results.items()}, errors, stats


def run_splitting(ctx: SolverContext, k: int, betas: dict, cfg: GreedyConfig,
                  prev_control=None):
    """Find the next control and the candidate for position k.

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
        for k in range(1, ctx.basis.size + 1):
            # keep step k-1, whose winner takes position k-1; position k is next
            run.controls.append(control)
            run.progress.append(record)
            ctx = promote(ctx, record["k"], record["winner"])
            run.basis = ctx.basis
            if record["f_max"] <= cfg.tol1 or k == ctx.basis.size:
                break
            betas, fit_errors, fit_stats = run_fitting_sweep(ctx, k, run.controls, cfg)
            control, record = run_splitting(ctx, k, betas, cfg,
                                            prev_control=run.controls[-1])
            # a candidate whose fit failed never reaches the splitting step
            errors = {c: f"fitting: {msg}" for c, msg in fit_errors.items()}
            errors.update(record["errors"])
            record["errors"] = dict(sorted(errors.items()))
            record["fitting"] = fit_stats
    except GreedyFailure as exc:
        exc.partial = run
        raise
    run.stopped_by = "tol1" if record["f_max"] <= cfg.tol1 else "exhausted"
    return run
