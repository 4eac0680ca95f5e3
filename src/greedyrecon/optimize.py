"""Box-constrained smooth minimization, many runs at once.

One engine serves every subproblem: scipy's limited-memory projected
quasi-Newton method (L-BFGS-B, ``LBFGS_MEMORY`` correction pairs), stepped
through its reverse-communication routine ``setulb`` by the same loop
``scipy.optimize.minimize(method="L-BFGS-B", jac=True)`` runs around it.
A run asks for the value and gradient at a point and reuses them while the
point does not move, so each run takes the path that ``minimize`` takes,
bit for bit.

:func:`multistart_minimize` holds one run per start of every problem and
advances them together: each round, every run that asks is evaluated by one
call of the caller's oracle, which can solve them as one stack.  A run's
path depends only on its own values, so running in lockstep changes no
result.  Every subproblem of the pipeline runs through it, the maximizing
:func:`multistart_maximize` negates the oracle in one place, and
:func:`minimize_box` is the one-run case.

Every iterate stays inside the box and the value sequence is monotone.
Stationarity is reported as ``||x - P(x - grad)||_2`` (projected gradient
with unit step) and ``converged`` means that norm fell to ``grad_tol``.
The multistart functions run exactly the starts their caller hands them and
draw nothing themselves, so everything is deterministic for fixed inputs.
A problem's result is its best finished start, the first on ties; an
oracle failure ends only the run it hit, and the problem fails only when
every start fails, with the first start's error.

``setulb`` lives in scipy's compiled extension ``scipy/optimize/_lbfgsb``,
which needs only numpy.  :func:`greedyrecon._compiled.load` loads that one
file by path instead of importing ``scipy.optimize``, which costs about
0.3 s and 45 MiB per process and pulls in ``scipy.sparse``,
``scipy.linalg`` and ``scipy.fft``.  The file links scipy's own OpenBLAS,
so it is loaded at the first optimizer run, not at import: a process that
only solves forward problems maps neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np

from ._compiled import load
from .exceptions import NumericalError
from .objectives import ObjectiveEval, project_box

# correction pairs kept by L-BFGS-B
LBFGS_MEMORY = 10
# line-search steps per iteration, scipy's default
LBFGS_MAXLS = 20
# setulb's task codes: (f, g) wanted at x, a new iterate, and a stop with
# the reason "iteration limit reached"
_TASK_FG, _TASK_NEW_X, _TASK_STOP, _STOP_MAX_ITERS = 3, 1, 5, 504


@dataclass(frozen=True)
class OptimConfig:
    max_iters: int = 500
    grad_tol: float = 1e-8

    def __post_init__(self):
        if self.max_iters < 1 or self.grad_tol <= 0:
            raise ValueError("max_iters and grad_tol must be positive")


@dataclass
class OptimResult:
    x: np.ndarray
    value: float
    projected_grad_norm: float
    iterations: int
    converged: bool
    evals: int


class Lockstep(NamedTuple):
    """Outcome of :func:`multistart_minimize`: per problem its best result or
    its error, the rounds the runs took, and their evaluations in total."""

    outcomes: list
    rounds: int
    evals: int


@cache
def _setulb():
    """scipy's ``setulb``, its extension loaded by the first call."""
    return load("optimize", "_lbfgsb").setulb


def _pg_norm(x, grad, lo, hi) -> float:
    return float(np.linalg.norm(x - np.clip(x - grad, lo, hi)))


def _lbfgsb(x0, lo, hi, cfg: OptimConfig):
    """One L-BFGS-B run as a generator: it yields each point it wants
    (value, gradient) at, is sent the ObjectiveEval there, and returns its
    OptimResult.

    The loop is scipy's ``_minimize_lbfgsb``: a request at the point last
    evaluated reuses its values, the gradient is cast to float64 before
    every step, and the run stops at ``max_iters`` iterations.  The
    value-based stop is off (``factr = 0``): our objectives live at tiny
    absolute scales, so stopping is by stationarity, the iteration cap, or
    a stalled line search.  A box that fixes every variable needs no case
    of its own: setulb evaluates the start once and stops converged.
    """
    x = project_box(x0, lo, hi)
    n = x.size
    f, g = np.array(0.0), np.zeros(n)
    evals = iterations = 0
    # setulb's bound kinds: 0 none, 1 lower only, 2 both, 3 upper only
    has_lo, has_hi = np.isfinite(lo), np.isfinite(hi)
    nbd = np.where(has_lo, np.where(has_hi, 2, 1), np.where(has_hi, 3, 0)).astype(np.int32)
    low, up = np.where(has_lo, lo, 0.0), np.where(has_hi, hi, 0.0)
    m = LBFGS_MEMORY
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, dtype=np.int32)
    task, ln_task = np.zeros(2, dtype=np.int32), np.zeros(2, dtype=np.int32)
    lsave, isave, dsave = np.zeros(4, np.int32), np.zeros(44, np.int32), np.zeros(29)
    pgtol = cfg.grad_tol / max(1.0, np.sqrt(n))
    x_seen = np.full(n, np.nan)  # equal to no point, so the start is evaluated
    setulb = _setulb()
    while True:
        g = g.astype(np.float64)
        setulb(m, x, low, up, nbd, f, g, 0.0, pgtol, wa, iwa, task, lsave, isave, dsave,
               LBFGS_MAXLS, ln_task)
        if task[0] == _TASK_FG:
            if not np.array_equal(x, x_seen):
                x_seen = x.copy()
                seen = yield x.copy()
                evals += 1
            f, g = seen
        elif task[0] == _TASK_NEW_X:
            iterations += 1
            if iterations >= cfg.max_iters:
                task[:] = (_TASK_STOP, _STOP_MAX_ITERS)
        else:
            break
    x = np.clip(x, lo, hi)
    pgn = _pg_norm(x, g, lo, hi)
    return OptimResult(x, float(f), pgn, iterations, pgn <= cfg.grad_tol, evals)


def _evaluate_round(evaluate, problems, xs) -> list:
    """``evaluate(problems, xs)``; if that raises NumericalError for more
    than one run, each run alone, and a run that fails alone gets its error
    in place of an ObjectiveEval."""
    try:
        return list(evaluate(problems, xs))
    except NumericalError as exc:
        if len(xs) == 1:
            return [exc]
    out = []
    for p, x in zip(problems, xs):
        try:
            out.extend(evaluate([p], [x]))
        except NumericalError as exc:
            out.append(exc)
    return out


def multistart_minimize(evaluate, starts, lo, hi, cfg: OptimConfig) -> Lockstep:
    """Minimize every problem over the box [lo, hi] from each of its starts,
    all runs at once.

    ``starts[p]`` lists the starts of problem p.  Each round, every run that
    wants (value, gradient) is evaluated by one call
    ``evaluate(problems, xs)``, which returns one ObjectiveEval per run in
    the order asked.  A NumericalError from that call has the round's runs
    evaluated one at a time, so a run fails only on its own error.

    A problem's outcome is its finished run of lowest value, the first on
    ties; a run that hits a NumericalError ends there and the problem's
    other starts go on.  Only when every start fails is the outcome an
    error, that of the first start.  Other exceptions propagate.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    runs, asking = {}, {}
    for p, group in enumerate(starts):
        for j, x0 in enumerate(group):
            runs[p, j] = _lbfgsb(np.asarray(x0, dtype=float), lo, hi, cfg)
            asking[p, j] = next(runs[p, j])
    done = {}  # (problem, start): its result, or the error that ended it
    rounds = evals = 0
    while asking:
        rounds += 1
        keys = list(asking)
        answers = _evaluate_round(evaluate, [p for p, _ in keys], list(asking.values()))
        asking = {}
        for (p, j), ev in zip(keys, answers):
            if isinstance(ev, NumericalError):
                done[p, j] = ev
                continue
            evals += 1
            try:
                asking[p, j] = runs[p, j].send(ev)
            except StopIteration as stop:
                done[p, j] = stop.value
    outcomes = []
    for p, group in enumerate(starts):
        ends = [done[p, j] for j in range(len(group))]
        finished = [res for res in ends if isinstance(res, OptimResult)]
        outcomes.append(min(finished, key=lambda res: res.value) if finished else ends[0])
    return Lockstep(outcomes, rounds, evals)


def minimize_box(fun, x0, lo, hi, cfg: OptimConfig) -> OptimResult:
    """Minimize fun over the box [lo, hi] from the projection of x0.

    ``fun(x)`` must return an ObjectiveEval with its gradient.  All iterates
    stay feasible.  If the line search cannot find decrease the best
    iterate is returned with converged=False; oracle failures propagate
    unchanged.
    """
    (res,), _, _ = multistart_minimize(lambda problems, xs: [fun(xs[0])], [[x0]],
                                       lo, hi, cfg)
    if isinstance(res, NumericalError):
        raise res
    return res


def multistart_maximize(evaluate, starts, lo, hi, cfg: OptimConfig) -> Lockstep:
    """multistart_minimize on the negated oracle, reported in maximization
    form."""

    def negated(problems, xs):
        return [ObjectiveEval(-ev.value, -ev.grad) for ev in evaluate(problems, xs)]

    out = multistart_minimize(negated, starts, lo, hi, cfg)
    for res in out.outcomes:
        if isinstance(res, OptimResult):
            res.value = -res.value
    return out
