"""Shared fixtures and independent oracle helpers."""

import numpy as np
import pytest

from greedyrecon import (
    FixedPointConfig,
    Grid,
    MonomialBasis,
    NegLaplacian,
    SolverContext,
)


def kappa(x1, x2):
    """First Dirichlet eigenmode of the unit-coupling square (-1, 1)^2."""
    return np.sin((x1 + 1.0) * np.pi / 2.0) * np.sin((x2 + 1.0) * np.pi / 2.0)


def central_fd(fun, x, index, step):
    """Central finite difference of a scalar function along one coordinate."""
    e = np.zeros_like(x)
    e[index] = step
    return (fun(x + e) - fun(x - e)) / (2.0 * step)


def random_control(grid, rng, lo=-1.0, hi=1.0):
    """Random feasible nodal control with the boundary ring at zero."""
    field = np.zeros((2,) + grid.shape)
    field[:, 1:-1, 1:-1] = rng.uniform(lo, hi, (2, grid.n - 1, grid.n - 1))
    return field


def same_bits(a, b) -> bool:
    """Equal shapes and equal bytes: tells -0.0 from 0.0."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def signed_zeros(rng, values, share=0.25):
    """``values`` with a random share of entries set to +0.0 or -0.0."""
    out = values.copy()
    hit = rng.random(out.shape) < share
    out[hit] = np.where(rng.random(out.shape) < 0.5, 0.0, -0.0)[hit]
    return out


def constant_control(grid, pair):
    field = np.zeros((2,) + grid.shape)
    field[0, 1:-1, 1:-1] = pair[0]
    field[1, 1:-1, 1:-1] = pair[1]
    return field


def make_context(n=16, degree=2, gamma1=0.2, gamma2=0.2, tol2=1e-10, x_max=1.0):
    grid = Grid(n, x_max)
    return SolverContext(
        op=NegLaplacian(grid),
        basis=MonomialBasis(degree),
        gamma1=gamma1,
        gamma2=gamma2,
        fp=FixedPointConfig(tol2=tol2),
    )


@pytest.fixture(scope="session")
def ctx16():
    """Shared context at desk scale."""
    return make_context(n=16, degree=2)
