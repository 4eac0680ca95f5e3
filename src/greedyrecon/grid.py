"""Uniform Cartesian grids on (-x_max, x_max)^2 and the 5-point Dirichlet Laplacian.

Fields live on the full (N+1) x (N+1) node set, stored as numpy arrays
indexed ``[i, j]`` for the node at ``(i*h - x_max, j*h - x_max)``.  The
boundary ring is pinned to zero in every stored field; linear algebra acts
on the (N-1)^2 interior nodes only.  Two-component fields are stacked along
a leading axis of length 2.

The 5-point Dirichlet Laplacian is diagonalized by the type-I discrete sine
transform along each axis (Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7,
1970), so every Poisson solve is an exact transform solve: four products
with the dense orthonormal sine matrix, O(n^3), on meshes of at most
``DENSE_SINE_MAX_N`` cells per side, and pocketfft's O(n^2 log n) transform
above that.  The module needs only numpy: pocketfft's compiled ``dst`` is
loaded by path from scipy's ``fft/_pocketfft`` folder, without importing
``scipy.fft``, when the first operator above ``DENSE_SINE_MAX_N`` is built,
and ``scipy.sparse`` is imported only by the reference assembly
:attr:`NegLaplacian.matrix`.  Started, imported and solved once at
n = 256, a process takes 0.13-0.18 s and 34 MiB of peak RSS this way,
against 0.30-0.41 s and 58 MiB with ``import scipy.fft`` (2 vCPUs of a
shared Intel Xeon host; 0.19 against 0.50 s on an AMD EPYC host).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._compiled import load
from .exceptions import NumericalError

# Largest n whose Poisson solves apply the sine transform as dense matrix
# products.  On one OpenBLAS thread of an AMD EPYC host the products solved a
# pair faster than scipy.fft's dstn/idstn at every n timed from 8 to 118
# except n = 108 (a tie): 4.3 against 16.9 us at n = 16, 281 against 329 us
# at n = 112.  They were slower at n = 120 and 128 (343 against 289 us, 436
# against 302 us), where the transform's O(n^2 log n) overtakes O(n^3).  On
# a shared Intel Xeon host: 453 against 521 us at n = 112, 634 against 499 us
# at n = 128.
# Larger meshes call the same pocketfft kernel directly, loaded by path, and
# moving this bound would change the last bits of every mesh it passes.
DENSE_SINE_MAX_N = 112


@dataclass(frozen=True)
class Grid:
    """N x N uniform square-cell partition of (-x_max, x_max)^2.

    ``n`` is the number of cells per side (the node set is (n+1)^2) and
    ``h = 2*x_max/n`` the spacing.
    """

    n: int
    x_max: float

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need at least 2 cells per side, got n={self.n}")
        if self.x_max <= 0:
            raise ValueError(f"x_max must be positive, got x_max={self.x_max}")

    @property
    def h(self) -> float:
        return 2.0 * self.x_max / self.n

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n + 1, self.n + 1)

    @property
    def interior_count(self) -> int:
        return (self.n - 1) ** 2

    def nodes1d(self) -> np.ndarray:
        """Node coordinates i*h - x_max along one axis, i = 0..n."""
        return np.arange(self.n + 1) * self.h - self.x_max

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        x = self.nodes1d()
        return np.meshgrid(x, x, indexing="ij")

    def zero_scalar(self) -> np.ndarray:
        return np.zeros(self.shape)

    def zero_field(self) -> np.ndarray:
        return np.zeros((2,) + self.shape)

    def sample_scalar(self, fn) -> np.ndarray:
        """Sample fn(x1, x2) on the nodes and pin the boundary ring to zero."""
        x1, x2 = self.meshgrid()
        u = np.asarray(fn(x1, x2), dtype=float)
        set_boundary_zero(u)
        return u

    def sample_field(self, fn1, fn2) -> np.ndarray:
        return np.stack([self.sample_scalar(fn1), self.sample_scalar(fn2)])


def set_boundary_zero(field: np.ndarray) -> None:
    """Zero the boundary ring in place; works for (m,m) and (2,m,m) arrays."""
    field[..., 0, :] = 0.0
    field[..., -1, :] = 0.0
    field[..., :, 0] = 0.0
    field[..., :, -1] = 0.0


def interior(field: np.ndarray) -> np.ndarray:
    """View of the interior nodes (boundary ring stripped)."""
    return field[..., 1:-1, 1:-1]


def field_from_interior(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Embed interior node values into a full field with zero boundary."""
    m = grid.n - 1
    if values.size % (m * m) != 0:
        raise ValueError("interior data does not match the grid")
    ncomp = values.size // (m * m)
    full = np.zeros((ncomp, grid.n + 1, grid.n + 1))
    full[:, 1:-1, 1:-1] = values.reshape(ncomp, m, m)
    return full[0] if ncomp == 1 else full


class NegLaplacian:
    """Five-point discretization of -Laplace with homogeneous Dirichlet data.

    On interior nodes the action is
    ``(4u_ij - u_{i-1,j} - u_{i+1,j} - u_{i,j-1} - u_{i,j+1}) / h^2``
    with missing neighbours treated as zero.  The interior operator is
    symmetric positive definite, with eigenvectors
    ``sin(pi k i / n) * sin(pi l j / n)`` and eigenvalues
    ``lambda_k + lambda_l``, where ``lambda_k = (2 - 2 cos(pi k / n)) / h^2``
    for k, l = 1..n-1.  Systems are solved exactly by a type-I sine
    transform over the last two axes: as products with the orthonormal
    sine matrix ``S_kj = sqrt(2/n) sin(pi k j / n)`` (symmetric and its own
    inverse) for n <= DENSE_SINE_MAX_N, and by pocketfft's DST-I above.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        k = np.arange(1, grid.n)
        lam = (2.0 - 2.0 * np.cos(np.pi * k / grid.n)) / grid.h**2
        self.eigenvalues = lam[:, None] + lam[None, :]
        self._sine = None
        if grid.n <= DENSE_SINE_MAX_N:
            # k*j reduced mod 2n keeps the sine's argument below 2*pi
            kj = np.outer(k, k) % (2 * grid.n)
            self._sine = np.sqrt(2.0 / grid.n) * np.sin(np.pi * kj / grid.n)
        else:
            self._dst = load("fft._pocketfft", "pypocketfft").dst

    @cached_property
    def matrix(self) -> scipy.sparse.csr_matrix:
        """Sparse interior matrix in row-major node order (reference assembly)."""
        import scipy.sparse as sp

        m = self.grid.n - 1
        ones = np.ones(m)
        t = sp.diags([-ones[:-1], 2.0 * ones, -ones[:-1]], (-1, 0, 1), format="csr")
        eye = sp.identity(m, format="csr")
        return (sp.kron(t, eye) + sp.kron(eye, t)).tocsr() / self.grid.h**2

    def apply(self, field: np.ndarray) -> np.ndarray:
        """Apply the operator to a full field; returns a full field (zero boundary).

        The boundary ring of ``field`` is read as zero (homogeneous data).
        """
        u = np.asarray(field, dtype=float)
        out = np.zeros_like(u)
        out[..., 1:-1, 1:-1] = self.apply_interior(interior(u))
        return out

    def apply_interior(self, u: np.ndarray) -> np.ndarray:
        """Stencil action on interior values (..., m, m) with zero Dirichlet data.

        ``u`` is copied into a zero-ringed buffer (..., m+2, m+2), and the
        stencil runs on its flat form over five contiguous slices,
        ``4 f[c] - f[c-w] - f[c+w] - f[c-1] - f[c+1]`` with row width w,
        before the division by h^2.  A missing neighbour is a subtraction
        of +0.0, which leaves every value as it is (-0.0, infinities and
        NaN included), so each node gets the bits of the plain stencil that
        skips it.  Returns the interior of the result, a strided view.
        """
        w = u.shape[-1] + 2
        pad = np.zeros(u.shape[:-2] + (u.shape[-2] + 2, w))
        pad[..., 1:-1, 1:-1] = u
        f = pad.reshape(-1)
        end = f.size - w
        out = np.empty_like(pad)
        # every index c in [w, end) has all four neighbours in f; the ring
        # entries computed alongside are never read
        c = out.reshape(-1)[w:end]
        np.multiply(4.0, f[w:end], out=c)
        c -= f[:end - w]
        c -= f[2 * w:]
        c -= f[w - 1:end - 1]
        c -= f[w + 1:end + 1]
        c /= self.grid.h**2
        return out[..., 1:-1, 1:-1]

    def inverse_interior(self, b: np.ndarray) -> np.ndarray:
        """Exact sine-transform solve on interior values (..., m, m), unchecked."""
        s = self._sine
        if s is not None:
            return s @ ((s @ b @ s) / self.eigenvalues) @ s
        # scipy.fft's dstn and idstn arguments at the default norm and workers:
        # type 1, normalization 0 forward and 2 (divide by (2n)^2) backward, one
        # thread; the backward transform writes over its own input
        dst, axes = self._dst, (-2, -1)
        x = dst(b, 1, axes, 0, None, 1, None)
        x /= self.eigenvalues
        return dst(x, 1, axes, 2, x, 1, None)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve op(u) = rhs on interior nodes; boundary of u is zero.

        Accepts fields (..., n+1, n+1) with any leading axes, e.g. a scalar
        field, a component pair or a stack of pairs, all solved in one
        transform.  Non-finite values raise NumericalError; solve_semilinear
        checks the stencil residual of its last solve.
        """
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[-2:] != self.grid.shape:
            raise ValueError("right-hand side does not live on the operator's grid")
        b = interior(rhs)
        x = self.inverse_interior(b)
        if not (np.isfinite(x).all() and np.isfinite(b).all()):
            raise NumericalError("linear solve produced non-finite values")
        out = np.zeros(rhs.shape)
        out[..., 1:-1, 1:-1] = x
        return out


def l2_norm(grid: Grid, field: np.ndarray) -> float:
    """Lumped discrete L2 norm h * ||values||_2 over all components."""
    return grid.h * float(np.linalg.norm(np.asarray(field).ravel()))


def inner_l2(grid: Grid, u: np.ndarray, v: np.ndarray) -> float:
    """Discrete L2 inner product h^2 * sum(u*v) over all components."""
    return grid.h**2 * float(np.vdot(np.asarray(u), np.asarray(v)))


def h1_norm(grid: Grid, field: np.ndarray) -> float:
    """Forward-difference gradient L2 norm.

    Per scalar component: sqrt(sum of squared node-to-node forward
    differences in both directions); the h factors of weight and difference
    quotient cancel.
    """
    u = np.asarray(field, dtype=float)
    d1 = u[..., 1:, :] - u[..., :-1, :]
    d2 = u[..., :, 1:] - u[..., :, :-1]
    return float(np.sqrt(np.sum(d1**2) + np.sum(d2**2)))


def laplace_norm(op: NegLaplacian, field: np.ndarray) -> float:
    """Discrete analogue of the maximal-regularity norm ||Delta u||_{L2}."""
    return l2_norm(op.grid, op.apply(field))
