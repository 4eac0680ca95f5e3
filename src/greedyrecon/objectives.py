"""Objective values and adjoint-based gradients for the greedy and
identification subproblems.

Two oracles cover the four subproblems: a weighted coefficient misfit to
be minimized (fitting with weight 1/2 and a ridge term; identification
with weight 1 and none) and a control-space discrimination score to be
maximized (initialization and splitting).  All misfits are measured in
the lumped discrete L2 norm (weight h per node).  Decision variables are
flat vectors: coefficient vectors for the misfit, stacked interior nodal
values of both control components for the discrimination.  Returned
gradients are plain partial derivatives with respect to those entries, so
they match central finite differences of the value directly; for control
variables this is h^2 times the L2-representer.

Each evaluation makes one stacked forward solve and, with a gradient, one
stacked adjoint solve (see ``forward``): the misfit stacks its M controls
under one coefficient vector; :func:`discriminate` evaluates C
discrimination objectives at once, each surrogate and candidate a pair of
rows of one 2C-row combo under their own control.  Each item of a stack
stops on its own test, so its state is the one a solve alone gives.

The misfit keeps a one-slot cache of the forward states at the last
evaluated point, so a value-only call followed by a gradient call at the
same point solves the forward problems only once, and it solves the
Poisson pair of its fixed controls, where every forward solve starts, once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .exceptions import NumericalError
from .forward import FixedPointConfig, solve_adjoint, solve_semilinear
from .grid import NegLaplacian, field_from_interior, interior
from .nonlinearity import BasisCombo, MonomialBasis, powers, unit_combo


class ObjectiveEval(NamedTuple):
    value: float
    grad: Optional[np.ndarray]


@dataclass(frozen=True)
class ControlBox:
    """Componentwise bounds eps_a <= eps(x) <= eps_b for admissible controls."""

    eps_a: tuple[float, float]
    eps_b: tuple[float, float]

    def __post_init__(self):
        a = np.asarray(self.eps_a, dtype=float)
        b = np.asarray(self.eps_b, dtype=float)
        if a.shape != (2,) or b.shape != (2,):
            raise ValueError("bounds must be pairs")
        if np.any(a > b):
            raise ValueError("lower bound exceeds upper bound")
        object.__setattr__(self, "eps_a", tuple(a))
        object.__setattr__(self, "eps_b", tuple(b))

    def flat_bounds(self, grid) -> tuple[np.ndarray, np.ndarray]:
        """Bounds for the flat interior decision vector of a control."""
        m2 = (grid.n - 1) ** 2
        lo = np.repeat(np.asarray(self.eps_a), m2)
        hi = np.repeat(np.asarray(self.eps_b), m2)
        return lo, hi

    def contains(self, control: np.ndarray, tol: float = 1e-12) -> bool:
        a = np.asarray(self.eps_a)
        b = np.asarray(self.eps_b)
        c = interior(np.asarray(control))
        return bool(
            np.all(c >= a[:, None, None] - tol) and np.all(c <= b[:, None, None] + tol)
        )

    def sample_constant(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.eps_a, self.eps_b)


def control_to_vec(control: np.ndarray) -> np.ndarray:
    """Flatten the interior nodal values of a 2-component control."""
    return interior(np.asarray(control, dtype=float)).reshape(-1).copy()


def vec_to_control(grid, vec: np.ndarray) -> np.ndarray:
    """Rebuild a full control field (zero boundary ring) from a flat vector."""
    vec = np.asarray(vec, dtype=float)
    if vec.size != 2 * (grid.n - 1) ** 2:
        raise ValueError("flat control vector does not match the grid")
    return field_from_interior(grid, vec)


def constant_control(grid, pair) -> np.ndarray:
    """Control field equal to ``pair`` (one value per component) at every
    interior node, zero on the boundary ring."""
    field = grid.zero_field()
    field[:, 1:-1, 1:-1] = np.asarray(pair, dtype=float)[:, None, None]
    return field


def project_box(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Componentwise clamp of x onto [lo, hi]."""
    x = np.asarray(x, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if x.shape != lo.shape or x.shape != hi.shape:
        raise ValueError("mismatched lengths in box projection")
    if np.any(lo > hi):
        raise ValueError("lower bound exceeds upper bound")
    return np.clip(x, lo, hi)


@dataclass(frozen=True, eq=False)
class SolverContext:
    """Grid operator, basis and physical constants shared by all objectives."""

    op: NegLaplacian
    basis: MonomialBasis
    gamma1: float
    gamma2: float
    fp: FixedPointConfig

    @property
    def grid(self):
        return self.op.grid

    def combo(self, coeffs) -> BasisCombo:
        return BasisCombo(self.gamma1, self.gamma2, basis=self.basis, coeffs=coeffs)

    def unit(self, position: int) -> BasisCombo:
        return unit_combo(self.basis, position, self.gamma1, self.gamma2)

    def solve(self, nonlin, eps, y0=None) -> np.ndarray:
        """States for one control (2, n+1, n+1) or a stack (B, 2, n+1, n+1);
        NumericalError unless every item converged.  ``y0``, when given, is
        the Poisson pair solve L^-1 eps (see :func:`solve_semilinear`)."""
        state, report = solve_semilinear(self.op, nonlin, eps, self.fp, y0)
        if not report.converged:
            raise NumericalError(
                f"fixed-point iteration stalled at E={report.final_residual:.3e}"
            )
        return state


def _misfit_sq(grid, diff: np.ndarray) -> float:
    # squared discrete L2 norm, h^2 * sum(diff^2)
    return grid.h**2 * float(np.sum(diff * diff))


def _coeff_misfit_grad(ctx: SolverContext, states, adjoints, k: int) -> np.ndarray:
    """sum_m <q_m, Phi_j(y_m)>_h for j < k, with Phi_j = (g1*phi_j, -g2*phi_j),
    over stacks of states and adjoints (M, 2, n+1, n+1), one monomial at a
    time in one scratch array.  A zeroth power is a factor of exact ones,
    so the product skips it."""
    y = np.ascontiguousarray(interior(states))
    q = interior(adjoints)
    r = ctx.gamma1 * q[:, 0] - ctx.gamma2 * q[:, 1]
    exps = [ctx.basis.exponent(j) for j in range(k)]
    p1 = powers(y[:, 0], max((e[0] for e in exps), default=0))
    p2 = powers(y[:, 1], max((e[1] for e in exps), default=0))
    t = np.empty_like(r)
    pairing = np.empty(k)
    for j, (i1, i2) in enumerate(exps):
        if i1 and i2:
            monomial = np.multiply(p1[i1], p2[i2], out=t)
        else:
            monomial = p2[i2] if i2 else p1[i1]
        pairing[j] = np.vdot(monomial, r)
    return ctx.grid.h**2 * pairing


class FittingObjective:
    """Weighted coefficient misfit against one target state per control.

    value(beta) = weight * sum_m ||y^{beta,eps_m} - target_m||_{L2}^2
                  + nu/2 ||beta||_2^2
    The greedy fitting problem uses the default weight 1/2.  The gradient
    entry j is nu*beta_j plus the adjoint pairings of the lifted basis
    element j with each control's adjoint state, whose right-hand side
    carries the factor -2*weight.  The M controls are solved as one stack,
    and so are their M adjoints.  The controls never change, so their
    Poisson pair solve L^-1 eps_m, where each fixed-point solve starts, is
    made once, at the first evaluation.
    """

    def __init__(self, ctx: SolverContext, controls, targets, nu: float,
                 weight: float = 0.5):
        if len(controls) == 0:
            raise ValueError("the misfit needs at least one control")
        if len(controls) != len(targets):
            raise ValueError("controls and targets must pair up")
        self.ctx = ctx
        self.controls = np.stack(controls)
        self.targets = np.stack(targets)
        self.nu = float(nu)
        self.weight = float(weight)
        # the last point solved and its (combo, states): data only, no bound
        # method, so no reference cycle keeps the states alive
        self._key = None
        self._solved = None
        self._y0 = None

    def _solve(self, beta: np.ndarray):
        key = beta.tobytes()
        if key != self._key:
            combo = self.ctx.combo(beta)
            if self._y0 is None:
                self._y0 = self.ctx.op.solve(self.controls)
            self._solved = combo, self.ctx.solve(combo, self.controls, self._y0)
            self._key = key
        return self._solved

    def __call__(self, beta: np.ndarray, need_grad: bool = True) -> ObjectiveEval:
        beta = np.asarray(beta, dtype=float)
        combo, states = self._solve(beta)
        grid = self.ctx.grid
        diff = states - self.targets
        value = 0.5 * self.nu * float(np.dot(beta, beta))
        # each row's sum has the bits of _misfit_sq's sum over its item
        for row in (diff * diff).reshape(len(diff), -1).sum(axis=1):
            value += self.weight * (grid.h**2 * float(row))
        if not need_grad:
            return ObjectiveEval(value, None)
        adjoints = solve_adjoint(self.ctx.op, combo, states, (-2.0 * self.weight) * diff)
        grad = self.nu * beta + _coeff_misfit_grad(self.ctx, states, adjoints, beta.size)
        return ObjectiveEval(value, grad)


class DiscriminationObjective:
    """Control-design objective separating a fitted surrogate from a candidate.

    The splitting score, to be maximized (its gradient is
    q_beta + q_cand - nu*eps in the L2-representer scale):

        J(eps) = 1/2 ||y^{beta,eps} - y^{cand,eps}||_{L2}^2 - nu/2 ||eps||_{L2}^2

    so the regularizer penalizes control energy.  The initialization
    problem is the special case beta = () where the surrogate state is the
    plain Poisson solve.  A call is the one-objective case of
    :func:`discriminate`.
    """

    def __init__(self, ctx: SolverContext, beta, candidate_pos: int, nu: float):
        self.ctx = ctx
        self.beta = np.asarray(beta, dtype=float)
        self.candidate_pos = int(candidate_pos)
        self.nu = float(nu)

    def __call__(self, vec: np.ndarray, need_grad: bool = True) -> ObjectiveEval:
        return discriminate([self], [vec], need_grad)[0]


def discriminate(objectives, vecs, need_grad: bool = True) -> list:
    """Evaluate each discrimination objective at its own flat control.

    The C objectives become the 2C rows of one combo, surrogate then
    candidate, under their C controls, so all states are one stacked solve
    and, with gradients, all adjoints another.  A row's zero padding adds
    exact zeros, so each ObjectiveEval is bit-identical to the one its
    objective gives alone; NumericalError if any item fails.
    """
    ctx = objectives[0].ctx
    if any(obj.ctx is not ctx for obj in objectives):
        raise ValueError("stacked objectives must share one solver context")
    grid = ctx.grid
    rows = np.zeros((2 * len(objectives),
                     max(max(obj.beta.size, obj.candidate_pos + 1) for obj in objectives)))
    for i, obj in enumerate(objectives):
        rows[2 * i, :obj.beta.size] = obj.beta
        rows[2 * i + 1, obj.candidate_pos] = 1.0
    combo = ctx.combo(rows)
    eps = np.stack([vec_to_control(grid, v) for v in vecs])
    # both rows start from their control's one Poisson pair, unnamed so the solve frees it
    states = ctx.solve(combo, np.repeat(eps, 2, axis=0),
                       np.repeat(ctx.op.solve(eps), 2, axis=0))
    diffs = states[0::2] - states[1::2]
    values = [0.5 * _misfit_sq(grid, diff) - 0.5 * obj.nu * _misfit_sq(grid, e)
              for obj, diff, e in zip(objectives, diffs, eps)]
    if not need_grad:
        return [ObjectiveEval(value, None) for value in values]
    rhs = np.stack([diffs, -diffs], axis=1).reshape(states.shape)
    q = solve_adjoint(ctx.op, combo, states, rhs)
    out = []
    for i, (obj, value) in enumerate(zip(objectives, values)):
        rep = interior(q[2 * i]) - obj.nu * interior(eps[i]) + interior(q[2 * i + 1])
        out.append(ObjectiveEval(value, grid.h**2 * rep.reshape(-1)))
    return out


class IdentificationObjective(FittingObjective):
    """Final data-fitting problem over the full coefficient box.

    value(alpha) = sum_m ||y^{alpha,eps_m} - data_m||_{L2}^2: the misfit
    with weight 1 and no regularization.
    """

    def __init__(self, ctx: SolverContext, controls, data):
        super().__init__(ctx, controls, data, nu=0.0, weight=1.0)

    # bound on this class too, so that instrumentation patching __call__
    # per class counts identification and fitting evaluations apart
    __call__ = FittingObjective.__call__
