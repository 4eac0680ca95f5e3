"""Box-constrained smooth minimization.

The descent is delegated to scipy's limited-memory projected quasi-Newton
method (L-BFGS-B, ``LBFGS_MEMORY`` correction pairs), which is the
gradient-projection + limited-memory-curvature method this problem family
needs.  An oracle reaches scipy unwrapped: an ObjectiveEval is already the
``(value, grad)`` pair scipy's ``jac=True`` expects, so its failures
propagate unchanged; maximization adds one negating adapter.  Every iterate
stays inside the box and the value sequence is monotone.  Stationarity is
reported as ``||x - P(x - grad)||_2`` (projected gradient with unit step)
and ``converged`` means that norm fell to ``grad_tol``.  The multistart
drivers run exactly the starts their caller hands them, in order, and draw
nothing themselves, so everything is deterministic for fixed inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize as sopt

from .objectives import ObjectiveEval, project_box


# correction pairs kept by L-BFGS-B
LBFGS_MEMORY = 10


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


def _pg_norm(x, grad, lo, hi) -> float:
    return float(np.linalg.norm(x - np.clip(x - grad, lo, hi)))


def minimize_box(fun, x0, lo, hi, cfg: OptimConfig) -> OptimResult:
    """Minimize fun over the box [lo, hi] from the projection of x0.

    ``fun(x, need_grad=True)`` must return an ObjectiveEval and is passed to
    scipy as it is.  All iterates stay feasible.  If the line search cannot
    find decrease the best iterate is returned with converged=False; oracle
    failures propagate unchanged.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    x0 = project_box(np.asarray(x0, dtype=float), lo, hi)
    res = sopt.minimize(
        fun,
        x0,
        jac=True,
        method="L-BFGS-B",
        bounds=list(zip(lo, hi)),
        options={
            "maxcor": LBFGS_MEMORY,
            "maxiter": cfg.max_iters,
            "maxfun": 10**8,
            # our objectives live at tiny absolute scales, so the engine's
            # value-based stop (absolute below |f|=1) must stay disabled;
            # stopping is by stationarity, the iteration cap, or a stalled
            # line search
            "ftol": 0.0,
            "gtol": cfg.grad_tol / max(1.0, np.sqrt(x0.size)),
        },
    )
    # a fully-bound box short-circuits inside scipy and omits result fields
    x = np.clip(res.x, lo, hi)
    grad = getattr(res, "jac", None)
    value = getattr(res, "fun", None)
    if grad is None or value is None or not np.shape(grad):
        value, grad = fun(x, True)
    pgn = _pg_norm(x, grad, lo, hi)
    return OptimResult(x, float(value), pgn, int(getattr(res, "nit", 0)),
                       pgn <= cfg.grad_tol)


def _negated(fun):
    def neg(x, need_grad=True):
        ev = fun(x, need_grad)
        return ObjectiveEval(-ev.value, None if ev.grad is None else -ev.grad)

    return neg


def multistart_minimize(fun, starts, lo, hi, cfg: OptimConfig) -> OptimResult:
    """Run minimize_box from each start in turn; the best result wins,
    first on ties."""
    best = None
    for p in starts:
        res = minimize_box(fun, p, lo, hi, cfg)
        if best is None or res.value < best.value:
            best = res
    return best


def multistart_maximize(fun, starts, lo, hi, cfg: OptimConfig) -> OptimResult:
    """multistart_minimize on -fun, reported in maximization form."""
    res = multistart_minimize(_negated(fun), starts, lo, hi, cfg)
    res.value = -res.value
    return res
