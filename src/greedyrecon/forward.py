"""Forward and adjoint solves for the coupled semilinear system.

The discrete state equation is ``L y + g(y) = eps`` componentwise on the
interior nodes, with L the 5-point discretization of -Laplace and
homogeneous Dirichlet data.  It is solved by a relaxed fixed-point
iteration: the nonlinearity is frozen at the previous iterate, a Poisson
problem is solved, and the new iterate is a convex combination of old and
new.  Because the lifted coupling ``g = (gamma1 G, -gamma2 G)`` has one
direction, every iterate keeps ``y2 - y0_2 = -(gamma2/gamma1) (y1 - y0_1)``
with ``y0 = L^-1 eps``; the iteration therefore runs on y1 alone, with one
scalar Poisson solve per step, and rebuilds y2 from that relation.

The linearized adjoint system couples the two components through the
transposed pointwise Jacobian of g.  The same rank-one structure reduces it
to one symmetric scalar problem, solved by conjugate gradients
preconditioned with the exact Poisson inverse, plus one Poisson pair solve.

Both solvers take one item ``(2, n+1, n+1)`` or a stack of items
``(B, 2, n+1, n+1)`` and solve the stack in one pass: every transform acts
on all items still iterating, each item stops on its own test, and every
per-item quantity (update norm, inner product, residual) is reduced over
that item alone, so an item's result is bit-identical to its solve alone.
A stack shares one nonlinearity, or a row-stacked ``BasisCombo`` with one
coefficient row per item.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import NumericalError
from .grid import NegLaplacian, interior
from .nonlinearity import Nonlinearity


@dataclass(frozen=True)
class FixedPointConfig:
    """Relaxation weight, stopping tolerance and iteration cap.

    ``lambda_a = 1`` would freeze the iterate at the initial guess, so the
    admissible range is [0, 1).
    """

    lambda_a: float = 0.0
    tol2: float = 1e-10
    ell_max: int = 200

    def __post_init__(self):
        if not (0.0 <= self.lambda_a < 1.0):
            raise ValueError(f"lambda_a must be in [0, 1), got {self.lambda_a}")
        if self.tol2 <= 0:
            raise ValueError("tol2 must be positive")
        if self.ell_max < 1:
            raise ValueError("ell_max must be >= 1")


@dataclass
class SolveReport:
    """Outcome of a (stacked) fixed-point solve.

    ``iterations`` counts the loops the stack made, the most any item took;
    ``item_iterations`` holds each item's own count.  ``final_residual`` is
    the largest last update norm over the items, ``converged`` holds when
    every item reached ``tol2``, and ``residual_history`` has the largest
    update norm of the items still iterating, per loop.
    """

    iterations: int
    final_residual: float
    converged: bool
    residual_history: list = field(default_factory=list)
    item_iterations: np.ndarray = None


def _as_stack(fields: np.ndarray, grid, what: str) -> np.ndarray:
    """A (2, n+1, n+1) item or a (B, 2, n+1, n+1) stack, as a stack."""
    fields = np.asarray(fields, dtype=float)
    if fields.ndim not in (3, 4) or fields.shape[-3:] != (2,) + grid.shape:
        raise ValueError(f"{what} does not live on the operator's grid")
    return fields if fields.ndim == 4 else fields[None]


def _item_dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Inner product of each item (index on the first axis) with its partner.

    A stacked (1, N) @ (N, 1) product reduces every item alone, so an item's
    value does not depend on the stack it sits in.
    """
    count = len(u)
    return (u.reshape(count, 1, -1) @ v.reshape(count, -1, 1)).reshape(count)


def solve_semilinear(
    op: NegLaplacian,
    nonlin: Nonlinearity,
    eps: np.ndarray,
    cfg: FixedPointConfig,
    y0: np.ndarray = None,
) -> tuple[np.ndarray, SolveReport]:
    """Fixed-point solve of L y + g(y) = eps for one control or a stack.

    Starts from the Poisson pair solve y0 = L^-1 eps, or from ``y0`` when
    the caller has solved it already (in the shape of ``eps``; it is read,
    not changed), then repeats
    L y1~ = eps1 - gamma1 G(y_l), y1_{l+1} = lambda_a*y1_l + (1-lambda_a)*y1~,
    y2_{l+1} = y0_2 - (gamma2/gamma1) (y1_{l+1} - y0_1), which is the
    coupled iteration on both components, until the update norm
    E = h*||y1_{l+1} - y1_l||_2 * sqrt(1 + (gamma2/gamma1)^2) (the coupled
    update norm) drops to tol2 or ell_max is hit, per item.  At lambda_a = 0
    the new y1 is the solve y1~ itself unless that holds a -0.0, which the
    formula can turn to +0.0, and y2 is written in place.  Returns the
    states in the shape of ``eps`` with a report; non-convergence is the
    caller's decision.  G is evaluated on grid rows 1..n-1 only, one
    contiguous block per item and component, and ``eps1 - gamma1 G`` is
    written into those rows of a right-hand side whose rows 0 and n stay
    zero: a Poisson solve reads only interior nodes, and skipping the
    boundary columns as well would take a strided copy that cost more than
    it saved at n = 128 and 256.  The iterates and the update norm stay on
    the full fields, ring zeros included, so each norm keeps the bits of a
    sum over every node.  A non-finite G raises the NumericalError of
    :meth:`Nonlinearity.g`, naming the grid node.  A non-finite update norm
    raises NumericalError
    ("blew up"); so does a relative stencil residual above 1e-9 of an
    item's last linear solve L y1~ = eps1 - gamma1 G(y_l), checked once
    after the loop.
    """
    stack = _as_stack(eps, op.grid, "control")
    count = len(stack)
    ratio = nonlin.gamma2 / nonlin.gamma1
    scale = op.grid.h * np.sqrt(1.0 + ratio * ratio)
    if y0 is None:
        y0 = op.solve(stack)
    elif np.shape(y0) != np.shape(eps):
        raise ValueError("y0 does not have the shape of the control")
    else:
        y0 = np.asarray(y0, dtype=float).reshape(stack.shape)
    iterations = np.zeros(count, dtype=int)
    final = np.zeros(count)
    last_rhs = np.empty((count,) + op.grid.shape)
    last_sol = np.empty_like(last_rhs)
    history = []
    # right-hand sides: grid rows 1..n-1 are written, rows 0 and n stay zero
    rhs_rows = np.zeros_like(last_rhs)
    # the items still iterating, compacted to the front of each working array
    items, item_nonlin = np.arange(count), nonlin
    y, eps1, base = y0.copy(), stack[:, 0, 1:-1], y0
    # stopping items write their rows of this first y; the rest go on in a copy
    states = y
    for ell in range(1, cfg.ell_max + 1):
        # g on grid rows 1..n-1: one contiguous block per item and component
        G1 = item_nonlin.g(y[..., 1:-1, :], origin=(1, 0))[:, 0]
        rhs = rhs_rows[:len(items)]
        np.subtract(eps1, G1, out=rhs[:, 1:-1])
        sol = op.solve(rhs)
        # the int64 view of -0.0 is -2**63
        if cfg.lambda_a == 0.0 and not (sol.view(np.int64) == -2**63).any():
            y1 = sol
        else:
            y1 = cfg.lambda_a * y[:, 0] + (1.0 - cfg.lambda_a) * sol
        with np.errstate(over="ignore", invalid="ignore"):
            step = y1 - y[:, 0]
            err = scale * np.sqrt(_item_dots(step, step))
        if not np.isfinite(err).all():
            raise NumericalError(f"fixed-point iterate blew up at iteration {ell}")
        history.append(float(err.max()))
        y[:, 0] = y1
        # in step's memory: three writes into strided y[:, 1] cost more on small items
        t = np.subtract(y1, base[:, 0], out=step)
        t *= ratio
        np.subtract(base[:, 1], t, out=y[:, 1])
        done = (err <= cfg.tol2) | (ell == cfg.ell_max)
        if done.any():
            stopped = items[done]
            iterations[stopped] = ell
            final[stopped] = err[done]
            if y is states and done.all():
                # every item stops in this loop, none was compacted: no copies
                last_rhs, last_sol = rhs, sol
                break
            states[stopped] = y[done]
            last_rhs[stopped] = rhs[done]
            last_sol[stopped] = sol[done]
            if done.all():
                break
            going = ~done
            items, y, eps1, base = items[going], y[going], eps1[going], base[going]
            item_nonlin = nonlin.rows(items)
    b = interior(last_rhs)
    with np.errstate(over="ignore", invalid="ignore"):
        res = op.apply_interior(interior(last_sol)) - b
        res = np.sqrt(_item_dots(res, res))
        bnorm = np.sqrt(_item_dots(b, b))
        rel = res[bnorm > 0] / bnorm[bnorm > 0]
    if not np.all(rel <= 1e-9):
        raise NumericalError(f"linear solve residual {np.max(rel):.3e} too large")
    report = SolveReport(ell, float(np.max(final)), bool(np.all(final <= cfg.tol2)),
                         history, iterations)
    return (states if np.ndim(eps) == 4 else states[0]), report


def coupled_linear_matrix(
    op: NegLaplacian, nonlin: Nonlinearity, state: np.ndarray, transpose: bool
) -> scipy.sparse.csr_matrix:
    """2x2 block system L + J(state) (or J^T) on the interior nodes.

    Reference assembly of the operator that :func:`solve_adjoint` inverts;
    no solver path uses it, so scipy.sparse is imported only here.
    """
    import scipy.sparse as sp

    y1 = interior(state[0])
    y2 = interior(state[1])
    jac = nonlin.jacobian(y1, y2)
    j11 = sp.diags(jac[0, 0].ravel())
    j12 = sp.diags(jac[0, 1].ravel())
    j21 = sp.diags(jac[1, 0].ravel())
    j22 = sp.diags(jac[1, 1].ravel())
    if transpose:
        j12, j21 = j21, j12
    lap = op.matrix
    return sp.bmat([[lap + j11, j12], [j21, lap + j22]], format="csr")


# CG on the scalar problem stops once the L^-1-norm of its residual r has
# dropped by this factor; the coupled residual is dG_i * L^-1 r
ADJOINT_CG_REDUCTION = 1e-14


def _solve_shifted(op: NegLaplacian, c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (L + diag c_i) s_i = b_i on a stack of interior values (B, m, m)
    by CG preconditioned with L^-1, one independent iteration per item.

    Raises NumericalError labelled "indefinite linearization" if a search
    direction has nonpositive curvature, which cannot happen while
    c > -lambda_min(L), in particular for c >= 0.
    """
    out = np.zeros_like(b)
    items = np.arange(len(b))
    s = np.zeros_like(b)
    r = b.copy()
    z = op.inverse_interior(r)
    rz = _item_dots(r, z)
    stop = ADJOINT_CG_REDUCTION**2 * rz
    p = z
    iterations = 0
    while True:
        going = rz > stop
        if not going.all():
            out[items[~going]] = s[~going]
            if not going.any():
                return out
            items, c, s, r, p, rz, stop = (
                a[going] for a in (items, c, s, r, p, rz, stop))
        if iterations == b[0].size:
            raise NumericalError("adjoint conjugate gradient did not converge")
        ap = op.apply_interior(p) + c * p
        curvature = _item_dots(p, ap)
        if not (curvature > 0.0).all():
            k = np.flatnonzero(~(curvature > 0.0))[0]
            raise NumericalError(
                f"adjoint solve hit an indefinite linearization "
                f"(curvature {curvature[k]:.3e}, min c = {float(np.min(c[k])):.3e})")
        alpha = (rz / curvature)[:, None, None]
        s += alpha * p
        r -= alpha * ap
        z = op.inverse_interior(r)
        rz_new = _item_dots(r, z)
        p = z + (rz_new / rz)[:, None, None] * p
        rz = rz_new
        iterations += 1


def solve_adjoint(
    op: NegLaplacian,
    nonlin: Nonlinearity,
    state: np.ndarray,
    rhs: np.ndarray,
) -> np.ndarray:
    """Solve the linearized transposed system (L + J(state)^T) q = rhs.

    Takes one item or a stack, like :func:`solve_semilinear`, and returns
    the adjoint states in the shape of ``rhs``.  With
    ``J^T = grad G (gamma1, -gamma2)``, the combination
    ``s = gamma1 q1 - gamma2 q2`` solves the scalar problem
    ``(L + diag c) s = gamma1 b1 - gamma2 b2`` with
    ``c = gamma1 dG/dy1 - gamma2 dG/dy2``, and then
    ``q_i = L^-1 (b_i - dG/dy_i * s)``.  For monotone g, c >= 0 and the
    scalar operator is SPD.  An item with zero right-hand side stops CG
    before its first step, with q = 0.  The relative residual of each
    item's full coupled system is checked to 1e-9; a non-finite
    linearization, an indefinite scalar operator or a failed check raises
    NumericalError.
    """
    stack = _as_stack(rhs, op.grid, "right-hand side")
    states = np.asarray(state, dtype=float).reshape(stack.shape)
    g1, g2 = nonlin.gamma1, nonlin.gamma2
    # contiguous interiors: each is read by several kernels below
    b = np.ascontiguousarray(interior(stack))
    y = np.ascontiguousarray(interior(states))
    with np.errstate(over="ignore", invalid="ignore"):
        dG = np.stack(nonlin.dG(y[:, 0], y[:, 1]), axis=1)
    if not np.isfinite(dG).all():
        raise NumericalError("non-finite linearization in the adjoint solve")
    c = g1 * dG[:, 0] - g2 * dG[:, 1]
    s = _solve_shifted(op, c, g1 * b[:, 0] - g2 * b[:, 1])
    q = op.inverse_interior(b - dG * s[:, None])
    # residual of (L + J^T) q = b, with J^T q = dG * (gamma1 q1 - gamma2 q2)
    with np.errstate(over="ignore", invalid="ignore"):
        res = op.apply_interior(q) + dG * (g1 * q[:, 0] - g2 * q[:, 1])[:, None] - b
        res, bnorm = np.sqrt(_item_dots(res, res)), np.sqrt(_item_dots(b, b))
        ok = res <= 1e-9 * bnorm
    if not ok.all():
        k = np.flatnonzero(~ok)[0]
        raise NumericalError(f"adjoint solve residual {res[k] / bnorm[k]:.3e} too large")
    out = np.zeros(stack.shape)
    out[:, :, 1:-1, 1:-1] = q
    return out if np.ndim(rhs) == 4 else out[0]
