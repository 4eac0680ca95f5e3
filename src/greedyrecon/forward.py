"""Forward and adjoint solves for the coupled semilinear system.

The discrete state equation is ``L y + g(y) = eps`` componentwise on the
interior nodes, with L the 5-point discretization of -Laplace and
homogeneous Dirichlet data.  It is solved by a relaxed fixed-point
iteration: the nonlinearity is frozen at the previous iterate, a Poisson
problem is solved, and the new iterate is a convex combination of old and
new.

The linearized adjoint system couples the two components through the
transposed pointwise Jacobian of g.  Because the lifted coupling
``g = (gamma1 G, -gamma2 G)`` is rank one at every node, the adjoint reduces
to one symmetric scalar problem, solved by conjugate gradients
preconditioned with the exact Poisson inverse, plus one Poisson pair solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .exceptions import NumericalError
from .grid import NegLaplacian, field_from_interior, interior
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
    iterations: int
    final_residual: float
    converged: bool
    residual_history: list = field(default_factory=list)


def solve_semilinear(
    op: NegLaplacian,
    nonlin: Nonlinearity,
    eps: np.ndarray,
    cfg: FixedPointConfig,
) -> tuple[np.ndarray, SolveReport]:
    """Fixed-point solve of L y + g(y) = eps.

    Starts from the Poisson solve L y0 = eps, then repeats
    L y~ = eps - g(y_l), y_{l+1} = lambda_a*y_l + (1-lambda_a)*y~ until the
    update norm E = h*||y_{l+1} - y_l||_2 drops to tol2 or ell_max is hit.
    Returns the last iterate together with a report; non-convergence is the
    caller's decision, blow-up raises NumericalError.
    """
    eps = np.asarray(eps, dtype=float)
    if eps.shape != (2,) + op.grid.shape:
        raise ValueError("control does not live on the operator's grid")
    h = op.grid.h
    y = op.solve(eps)
    history = []
    for ell in range(1, cfg.ell_max + 1):
        y_tilde = op.solve(eps - nonlin.g(y))
        y_new = cfg.lambda_a * y + (1.0 - cfg.lambda_a) * y_tilde
        if not np.all(np.isfinite(y_new)):
            raise NumericalError(f"fixed-point iterate blew up at iteration {ell}")
        err = h * float(np.linalg.norm((y_new - y).ravel()))
        history.append(err)
        y = y_new
        if err <= cfg.tol2:
            return y, SolveReport(ell, err, True, history)
    return y, SolveReport(cfg.ell_max, history[-1], False, history)


def coupled_linear_matrix(
    op: NegLaplacian, nonlin: Nonlinearity, state: np.ndarray, transpose: bool
) -> sp.csr_matrix:
    """2x2 block system L + J(state) (or J^T) on the interior nodes.

    Reference assembly of the operator that :func:`solve_adjoint` inverts;
    no solver path uses it.
    """
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
    """Solve (L + diag c) s = b on interior values by CG preconditioned with L^-1.

    Raises NumericalError labelled "indefinite linearization" if a search
    direction has nonpositive curvature, which cannot happen while
    c > -lambda_min(L), in particular for c >= 0.
    """
    s = np.zeros_like(b)
    r = b.copy()
    z = op.inverse_interior(r)
    rz = float(np.vdot(r, z))
    stop = ADJOINT_CG_REDUCTION**2 * rz
    p = z
    iterations = 0
    while rz > stop:
        if iterations == b.size:
            raise NumericalError("adjoint conjugate gradient did not converge")
        ap = op.apply_interior(p) + c * p
        curvature = float(np.vdot(p, ap))
        if not curvature > 0.0:
            raise NumericalError(
                f"adjoint solve hit an indefinite linearization "
                f"(curvature {curvature:.3e}, min c = {float(np.min(c)):.3e})")
        alpha = rz / curvature
        s += alpha * p
        r -= alpha * ap
        z = op.inverse_interior(r)
        rz_new = float(np.vdot(r, z))
        p = z + (rz_new / rz) * p
        rz = rz_new
        iterations += 1
    return s


def solve_adjoint(
    op: NegLaplacian,
    nonlin: Nonlinearity,
    state: np.ndarray,
    rhs: np.ndarray,
) -> np.ndarray:
    """Solve the linearized transposed system (L + J(state)^T) q = rhs.

    With ``J^T = grad G (gamma1, -gamma2)``, the combination
    ``s = gamma1 q1 - gamma2 q2`` solves the scalar problem
    ``(L + diag c) s = gamma1 b1 - gamma2 b2`` with
    ``c = gamma1 dG/dy1 - gamma2 dG/dy2``, and then
    ``q_i = L^-1 (b_i - dG/dy_i * s)``.  For monotone g, c >= 0 and the
    scalar operator is SPD.  The relative residual of the full coupled
    system is checked to 1e-9; an indefinite scalar operator or a failed
    check raises NumericalError.
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (2,) + op.grid.shape:
        raise ValueError("right-hand side does not live on the operator's grid")
    b = interior(rhs)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return op.grid.zero_field()
    g1, g2 = nonlin.gamma1, nonlin.gamma2
    with np.errstate(over="ignore", invalid="ignore"):
        dG = np.stack(nonlin.dG(interior(state[0]), interior(state[1])))
    if not np.all(np.isfinite(dG)):
        raise NumericalError("non-finite linearization in the adjoint solve")
    c = g1 * dG[0] - g2 * dG[1]
    s = _solve_shifted(op, c, g1 * b[0] - g2 * b[1])
    q = op.inverse_interior(b - dG * s)
    # residual of (L + J^T) q = b, with J^T q = dG * (gamma1 q1 - gamma2 q2)
    with np.errstate(over="ignore", invalid="ignore"):
        res = op.apply_interior(q) + dG * (g1 * q[0] - g2 * q[1]) - b
        rel = np.linalg.norm(res) / bnorm
    if not rel <= 1e-9:
        raise NumericalError(f"adjoint solve residual {rel:.3e} too large")
    return field_from_interior(op.grid, q)
