"""Experiment post-processing: synthetic data, identification, diagnostics.

Diagnostics mirror how designed controls get judged: where the states
actually probe the nonlinearity (solution sets in the (y1, y2) value
plane), how the reconstruction error distributes on and off those sets,
how convex the data-fitting landscape is around the minimizer, and how the
state responds to coefficient perturbations (empirical stability ratios).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalError
# not called here; perfbench's tracer test checks this module's binding of it
from .forward import solve_semilinear  # noqa: F401
from .grid import Grid, h1_norm, laplace_norm, set_boundary_zero
from .greedy import STAGE_IDENTIFY, stage_rng
from .nonlinearity import MonomialBasis, Nonlinearity
from .objectives import ControlBox, IdentificationObjective, SolverContext, constant_control
from .optimize import OptimConfig, multistart_minimize

# a degenerate bounding square (all points equal) is widened to this side
MIN_SQUARE_SIDE = 1e-6


@dataclass
class ErrorField:
    """Reconstruction error sampled on a lattice over the bounding square."""

    y1: np.ndarray  # lattice coordinates, shape (M,)
    y2: np.ndarray
    samples: np.ndarray  # shape (M, M), samples[i, j] = e(y1[i], y2[j])


@dataclass
class LandscapeScan:
    coeff1: np.ndarray
    coeff2: np.ndarray
    values: np.ndarray  # values[i, j] at (coeff1[i], coeff2[j]); NaN = failed solve


def generate_data(truth: Nonlinearity, controls, ctx: SolverContext):
    """Noiseless observations: the true nonlinearity's states under every
    control, solved as one stack."""
    return list(ctx.solve(truth, np.stack(controls)))


def identify(controls, data, ctx: SolverContext, optim: OptimConfig,
             alpha_max: float, seed: int = 0, k: int | None = None):
    """Fit coefficients to the observations from two starts: zero and one
    uniform draw from the box on the identification stream of ``seed``.

    ``k`` optionally restricts the search to the first k basis positions
    (remaining coefficients pinned at zero).  Returns (coefficients, final
    objective value, optimizer result).
    """
    if len(controls) == 0 or len(controls) != len(data):
        raise ValueError("need matching nonempty controls and data")
    size = ctx.basis.size
    lo = np.zeros(size)
    hi = np.full(size, alpha_max)
    if k is not None:
        hi[k:] = 0.0
    obj = IdentificationObjective(ctx, controls, data)
    random_start = stage_rng(seed, STAGE_IDENTIFY, 0, 0).uniform(lo, hi)
    (res,), _, _ = multistart_minimize(lambda problems, xs: [obj(x) for x in xs],
                                       [[np.zeros(size), random_start]], lo, hi, optim)
    if isinstance(res, NumericalError):
        raise res
    return res.x, res.value, res


def solution_sets(states) -> tuple[list[np.ndarray], tuple[tuple[float, float], float]]:
    """Point clouds per state, each a (count, 2) array of its nodal pairs
    (y1(x), y2(x)), plus the smallest enclosing axis-aligned square.

    The square is returned as (center, side); side has a 1e-6 floor so a
    degenerate cloud still spans a usable lattice.
    """
    if len(states) == 0:
        raise ValueError("need at least one state")
    sets = [np.stack([y[0].ravel(), y[1].ravel()], axis=1) for y in states]
    allpts = np.concatenate(sets)
    lo = allpts.min(axis=0)
    hi = allpts.max(axis=0)
    center = ((lo[0] + hi[0]) / 2.0, (lo[1] + hi[1]) / 2.0)
    side = max(float(hi[0] - lo[0]), float(hi[1] - lo[1]), MIN_SQUARE_SIDE)
    return sets, (center, side)


def collinearity(points: np.ndarray) -> float:
    """Second-to-first singular value ratio of the centered cloud.

    Near zero when the points lie on a line; 1 for an isotropic cloud.
    """
    centered = points - points.mean(axis=0)
    s = np.linalg.svd(centered, compute_uv=False)
    if s[0] == 0.0:
        return 0.0
    return float(s[1] / s[0])


def error_values(truth: Nonlinearity, coeffs, basis: MonomialBasis, y1, y2):
    """Pointwise scalar error G_true - G_reconstructed (gamma factors shared);
    a coefficient vector shorter than the basis covers its first positions."""
    c = np.asarray(coeffs, dtype=float)
    recon = np.tensordot(c, np.stack(list(basis.monomials(y1, y2)))[: c.size], axes=(0, 0))
    return truth.G(np.asarray(y1, float), np.asarray(y2, float)) - recon


def error_field(truth: Nonlinearity, coeffs, basis: MonomialBasis,
                square, m: int = 101) -> ErrorField:
    """Sample the reconstruction error on an m x m lattice over the square."""
    if m < 2:
        raise ValueError("lattice needs at least 2 points per side")
    (cx, cy), side = square
    y1 = np.linspace(cx - side / 2.0, cx + side / 2.0, m)
    y2 = np.linspace(cy - side / 2.0, cy + side / 2.0, m)
    g1, g2 = np.meshgrid(y1, y2, indexing="ij")
    return ErrorField(y1, y2, error_values(truth, coeffs, basis, g1, g2))


def constructed_control(eta: float, theta: float, gamma1: float, gamma2: float,
                        grid: Grid) -> np.ndarray:
    """Control whose exact bilinear-model solution is (eta*kappa, -theta*kappa).

    kappa is the product-of-sines first Dirichlet mode of (-X, X)^2, with
    X = grid.x_max and eigenvalue pi^2/(2 X^2); the control is the residual
    of that ansatz in the coupled system with interaction 0.05*y1*y2,
    sampled nodally with the boundary ring pinned to zero.
    """
    X = grid.x_max
    lam = np.pi**2 / (2.0 * X**2)
    x1, x2 = grid.meshgrid()
    k = np.sin((x1 + X) * np.pi / (2.0 * X)) * np.sin((x2 + X) * np.pi / (2.0 * X))
    k2 = k**2
    eps = np.stack([eta * lam * k - 0.05 * gamma1 * eta * theta * k2,
                    -theta * lam * k + 0.05 * gamma2 * eta * theta * k2])
    set_boundary_zero(eps)
    return eps


def random_constant_controls(count: int, box: ControlBox, grid: Grid,
                             seed: int = 0, mode: str = "diagonal") -> list[np.ndarray]:
    """Spatially constant controls drawn from the box (seeded).

    ``diagonal`` draws one value per control and applies it to both
    components, so all states trace a single line in the value plane (the
    maximally uninformative design); ``independent`` draws the component
    pair uniformly from the box rectangle.
    """
    if count < 1:
        raise ValueError("need at least one control")
    if mode not in ("diagonal", "independent"):
        raise ValueError(f"unknown mode {mode!r}")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 77]))
    lo, hi = np.asarray(box.eps_a), np.asarray(box.eps_b)
    if mode == "diagonal" and lo.max() > hi.min():
        raise ValueError("box admits no equal-component constants")
    controls = []
    for _ in range(count):
        if mode == "diagonal":
            value = rng.uniform(lo.max(), hi.min())
            pair = (value, value)
        else:
            pair = box.sample_constant(rng)
        controls.append(constant_control(grid, pair))
    return controls


def landscape_scan(controls, data, ctx: SolverContext, alpha_base,
                   idx_pair: tuple[int, int], coeff1, coeff2) -> LandscapeScan:
    """Identification objective on a 2-D coefficient lattice, others fixed."""
    i, j = idx_pair
    size = ctx.basis.size
    if not (0 <= i < size and 0 <= j < size and i != j):
        raise ValueError("invalid coefficient index pair")
    obj = IdentificationObjective(ctx, controls, data)
    coeff1 = np.asarray(coeff1, dtype=float)
    coeff2 = np.asarray(coeff2, dtype=float)
    values = np.full((coeff1.size, coeff2.size), np.nan)
    alpha = np.asarray(alpha_base, dtype=float).copy()
    for a in range(coeff1.size):
        for b in range(coeff2.size):
            alpha[i] = coeff1[a]
            alpha[j] = coeff2[b]
            try:
                values[a, b] = obj(alpha, need_grad=False).value
            except NumericalError:
                pass  # leave NaN
    return LandscapeScan(coeff1, coeff2, values)


def slice_hessian(controls, data, ctx: SolverContext, alpha,
                  idx_pair: tuple[int, int], step: float = 1e-3) -> np.ndarray:
    """Central-difference Hessian of the identification objective on the
    2-D slice spanned by the two selected coefficients."""
    obj = IdentificationObjective(ctx, controls, data)
    alpha = np.asarray(alpha, dtype=float)

    def value(d1, d2):
        a = alpha.copy()
        a[idx_pair[0]] += d1
        a[idx_pair[1]] += d2
        return obj(a, need_grad=False).value

    f0 = value(0.0, 0.0)
    h = step
    h11 = (value(h, 0) - 2.0 * f0 + value(-h, 0)) / h**2
    h22 = (value(0, h) - 2.0 * f0 + value(0, -h)) / h**2
    h12 = (value(h, h) - value(h, -h) - value(-h, h) + value(-h, -h)) / (4.0 * h**2)
    return np.array([[h11, h12], [h12, h22]])


def taylor_error_table(truth_kind: str, coeffs, basis: MonomialBasis,
                       d: int | None = None):
    """Absolute gap between the target's Taylor coefficients and the
    reconstruction, per monomial (identified coefficient 0 outside the basis).

    Returns {(i1, i2): (truth coeff, identified coeff, |difference|)}.
    """
    from .nonlinearity import taylor_coeffs

    if d is None:
        d = basis.degree
    truth_table = taylor_coeffs(truth_kind, d)
    coeffs = np.asarray(coeffs, dtype=float)
    identified = {}
    for pos, exp in enumerate(basis.ordered_exponents()):
        if pos < coeffs.size:
            identified[exp] = float(coeffs[pos])
    table = {}
    for key, t in truth_table.items():
        a = identified.get(key, 0.0)
        table[key] = (t, a, abs(t - a))
    return table


@dataclass
class StabilityStats:
    """Empirical max/median of the three perturbation-response ratios."""

    h1_per_dalpha: tuple[float, float]
    y_per_dalpha: tuple[float, float]
    dalpha_per_y: tuple[float, float]
    samples_used: int


def stability_probe(ctx: SolverContext, k: int, samples: int, seed: int,
                    control, alpha_max: float = 1.0,
                    min_separation: float = 1e-3) -> StabilityStats:
    """Ratio statistics over random coefficient pairs supported on the
    first k positions.

    Ratios: ||dy||_{H1} / ||da||_inf, ||dy||_Y / ||da||_inf and the inverse
    ||da||_inf / ||dy||_Y (the latter only for pairs separated by at least
    ``min_separation``).  These are empirical summaries, not certified
    constants; pairs whose solves fail are skipped.
    """
    size = ctx.basis.size
    if not 1 <= k <= size:
        raise ValueError(f"k must lie in [1, {size}], got {k}")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 911, k]))
    ratios_h1, ratios_y, ratios_inv = [], [], []
    used = 0
    for _ in range(samples):
        a1 = np.zeros(size)
        a2 = np.zeros(size)
        a1[:k] = rng.uniform(0.0, alpha_max, size=k)
        a2[:k] = rng.uniform(0.0, alpha_max, size=k)
        dalpha = float(np.max(np.abs(a1 - a2)))
        if dalpha == 0.0:
            continue
        try:
            y1, y2 = ctx.solve(ctx.combo(np.stack([a1, a2])), np.stack([control, control]))
        except NumericalError:
            continue
        diff = y1 - y2
        h1 = h1_norm(ctx.grid, diff)
        ynorm = laplace_norm(ctx.op, diff)
        ratios_h1.append(h1 / dalpha)
        ratios_y.append(ynorm / dalpha)
        if dalpha >= min_separation and ynorm > 0.0:
            ratios_inv.append(dalpha / ynorm)
        used += 1
    if used == 0:
        raise NumericalError("all stability-probe samples failed")

    def stats(vals):
        if not vals:
            return (float("nan"), float("nan"))
        return (float(np.max(vals)), float(np.median(vals)))

    return StabilityStats(stats(ratios_h1), stats(ratios_y), stats(ratios_inv), used)
