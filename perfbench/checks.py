"""Correctness checks computed apart from the program under test.

Each check returns a list of failure messages; an empty list is a pass.
The checks use only numpy and their own formulas: the 5-point stencil, the
closed-form interactions and the manufactured solution are written out
here again, so an error in the program's versions cannot hide itself.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# relative l2 residual of L y + g(y) = eps that a converged state must meet;
# the fixed-point stop (update norm 1e-10) and the CG tolerance (1e-10)
# leave residuals near 1e-9, a wrong state leaves residuals of order 1
RESIDUAL_TOL = 1e-7
COEFF_TOL = 1e-3
DESIGN_OBJECTIVE_MAX = 1e-10
BASELINE_OBJECTIVE_MAX = 1e-8
BASELINE_COLLINEARITY_MAX = 0.05
BASELINE_ERROR_FACTOR = 10.0
H2_RATIO = (3.5, 4.5)
LANDSCAPE_MIN_MAX = 1e-14


def closed_form_G(kind: str, y1, y2):
    """The three target interactions of the model."""
    if kind == "bilinear":
        return 0.05 * y1 * y2
    if kind == "sinusoidal":
        return 0.01 * np.sin(2.0 * y1) * np.sin(2.0 * y2)
    if kind == "exponential":
        return 0.01 * np.exp(2.0 * (y1 + y2))
    raise ValueError(f"unknown interaction {kind!r}")


def monomial_G(coeffs: dict, y1, y2):
    """sum of c * y1**i1 * y2**i2 over {(i1, i2): c}."""
    total = np.zeros(np.broadcast(y1, y2).shape)
    for (i1, i2), c in coeffs.items():
        total = total + c * y1**i1 * y2**i2
    return total


def stencil_residual(state, eps, G, gamma1, gamma2, h) -> float:
    """Relative l2 residual of the 5-point system on the interior nodes.

    ``state`` and ``eps`` are (2, n+1, n+1) node fields with a zero
    boundary ring; ``G(y1, y2)`` evaluates the scalar interaction.
    """
    y = np.asarray(state, dtype=float)
    c = y[:, 1:-1, 1:-1]
    lap = (4.0 * c - y[:, :-2, 1:-1] - y[:, 2:, 1:-1]
           - y[:, 1:-1, :-2] - y[:, 1:-1, 2:]) / h**2
    g = G(c[0], c[1])
    r = lap - np.asarray(eps, dtype=float)[:, 1:-1, 1:-1]
    r[0] += gamma1 * g
    r[1] -= gamma2 * g
    scale = np.linalg.norm(np.asarray(eps, dtype=float)[:, 1:-1, 1:-1])
    return float(np.linalg.norm(r) / max(scale, 1e-300))


def check_residual(label, state, eps, G, gamma1, gamma2, h) -> list:
    res = stencil_residual(state, eps, G, gamma1, gamma2, h)
    if not res <= RESIDUAL_TOL:
        return [f"{label}: residual {res:.3e} above {RESIDUAL_TOL:.0e}"]
    return []


def kappa(x1, x2):
    """First Dirichlet mode of (-1, 1)^2."""
    return np.sin((x1 + 1.0) * np.pi / 2.0) * np.sin((x2 + 1.0) * np.pi / 2.0)


def manufactured_error(state, eta, theta, n) -> float:
    """Discrete L2 distance h*||y - (eta*kappa, -theta*kappa)|| on (-1, 1)^2."""
    h = 2.0 / n
    x = np.arange(n + 1) * h - 1.0
    x1, x2 = np.meshgrid(x, x, indexing="ij")
    k = kappa(x1, x2)
    k[0, :] = k[-1, :] = k[:, 0] = k[:, -1] = 0.0
    exact = np.stack([eta * k, -theta * k])
    return h * float(np.linalg.norm((np.asarray(state) - exact).ravel()))


def check_h2_ratio(err_coarse, err_fine) -> list:
    ratio = err_coarse / err_fine if err_fine > 0 else float("inf")
    lo, hi = H2_RATIO
    if not lo <= ratio <= hi:
        return [f"manufactured error ratio {ratio:.3f} outside [{lo}, {hi}]"]
    return []


def check_landscape(values, truth_index) -> list:
    """The scanned minimum sits at the true coefficients with a value near 0."""
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        return ["landscape has failed points"]
    argmin = np.unravel_index(np.argmin(values), values.shape)
    out = []
    if tuple(int(i) for i in argmin) != tuple(truth_index):
        out.append(f"landscape minimum at {tuple(int(i) for i in argmin)}, "
                   f"truth at {tuple(truth_index)}")
    if not values[tuple(truth_index)] <= LANDSCAPE_MIN_MAX:
        out.append(f"landscape value at truth {values[tuple(truth_index)]:.3e}")
    return out


# -- CLI artifacts -----------------------------------------------------------


def read_coefficients(out: Path) -> dict:
    rows = (out / "identified.csv").read_text().strip().split("\n")[1:]
    coeffs = {}
    for row in rows:
        _, i1, i2, value = row.split(",")
        coeffs[(int(i1), int(i2))] = float(value)
    return coeffs


def check_design(out: Path, eps_a, eps_b, size: int) -> list:
    """Greedy design plus identification of the in-span truth 0.05*y1*y2."""
    failures = []
    coeffs = read_coefficients(out)
    if len(coeffs) != size:
        failures.append(f"{len(coeffs)} identified coefficients, expected {size}")
    for key, value in sorted(coeffs.items()):
        target = 0.05 if key == (1, 1) else 0.0
        if not abs(value - target) <= COEFF_TOL:
            failures.append(f"coefficient {key} = {value:.6g}, truth {target}")
    objective = json.loads((out / "identify.json").read_text())["objective_value"]
    if not objective <= DESIGN_OBJECTIVE_MAX:
        failures.append(f"identification objective {objective:.3e}")
    failures += check_controls_in_box(out / "controls.csv", eps_a, eps_b)
    order = json.loads((out / "basis.json").read_text())["order"]
    if sorted(order) != list(range(size)):
        failures.append(f"basis order {order} is not a permutation of {size}")
    return failures


def check_controls_in_box(path: Path, eps_a, eps_b) -> list:
    lines = path.read_text().strip().split("\n")[1:]
    if not lines:
        return ["no designed controls"]
    table = np.array([[float(v) for v in line.split(",")] for line in lines])
    comp = table[:, 1].astype(int)
    ij = table[:, 2:4].astype(int)
    vals = table[:, 4]
    n = int(ij.max())
    lo = np.asarray(eps_a, dtype=float)[comp]
    hi = np.asarray(eps_b, dtype=float)[comp]
    boundary = (ij == 0).any(axis=1) | (ij == n).any(axis=1)
    failures = []
    outside = int(np.sum((vals < lo) | (vals > hi)))
    if outside:
        failures.append(f"{outside} control values outside the box")
    if np.any(vals[boundary] != 0.0):
        failures.append("control nonzero on the boundary ring")
    return failures


def check_baseline(out: Path, alpha_max: float) -> list:
    """Diagonal constant design: exact fit but degenerate solution sets."""
    doc = json.loads((out / "identify.json").read_text())
    failures = []
    if not doc["objective_value"] <= BASELINE_OBJECTIVE_MAX:
        failures.append(f"identification objective {doc['objective_value']:.3e}")
    if not doc["collinearity_union"] <= BASELINE_COLLINEARITY_MAX:
        failures.append(f"union collinearity {doc['collinearity_union']:.3e}")
    onset, offset = doc["max_error_on_sets"], doc["max_error_on_square"]
    if not offset >= BASELINE_ERROR_FACTOR * onset:
        failures.append(f"off-set error {offset:.3e} not 10x on-set {onset:.3e}")
    for key, value in read_coefficients(out).items():
        if not 0.0 <= value <= alpha_max:
            failures.append(f"coefficient {key} = {value:.6g} outside [0, {alpha_max}]")
    return failures
