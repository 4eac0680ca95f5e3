"""Monomial bases and two-component reaction nonlinearities.

The interaction between the two field components is modelled by a scalar
function G of the pointwise values (y1, y2), lifted to the coupled reaction
term ``g(y) = (gamma1 * G(y), -gamma2 * G(y))`` with ``gamma1 >= gamma2 > 0``
(predator-prey sign structure).  G is either a coefficient combination of
2-D monomials or one of three closed-form targets used to synthesize data.
Bases and nonlinearities are immutable: a basis keeps the order it was
built in, and a combo the terms it was built with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .exceptions import NumericalError

CLOSED_FORM_KINDS = ("bilinear", "sinusoidal", "exponential")


@dataclass(frozen=True)
class MonomialBasis:
    """All 2-D monomials y1^i1 * y2^i2 of total degree i1 + i2 <= P.

    The enumeration ``exponents`` is graded: ascending total degree, then
    ascending maximum entrywise degree, then descending y1-degree, which
    starts 1, y1, y2, y1*y2, y1^2, y2^2, y1^2*y2, ...  ``order``, the
    identity unless given, is a permutation of it, fixed when the basis is
    built; all position-based lookups go through ``order``.
    """

    degree: int
    order: tuple = None
    exponents: tuple = dc_field(init=False, repr=False)

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError(f"polynomial degree must be >= 0, got {self.degree}")
        exps = [
            (i1, d - i1)
            for d in range(self.degree + 1)
            for i1 in range(d + 1)
        ]
        exps.sort(key=lambda e: (e[0] + e[1], max(e), -e[0]))
        object.__setattr__(self, "exponents", tuple(exps))
        order = tuple(range(self.size) if self.order is None else self.order)
        if len(order) != self.size or set(order) != set(range(self.size)):
            raise ValueError(f"order {list(order)} is not a permutation of range({self.size})")
        object.__setattr__(self, "order", tuple(int(j) for j in order))

    @property
    def size(self) -> int:
        """Number of basis elements, (P+1)(P+2)/2."""
        return len(self.exponents)

    def exponent(self, pos: int) -> tuple[int, int]:
        """Exponent pair sitting at position ``pos``."""
        return self.exponents[self.order[pos]]

    def ordered_exponents(self) -> list[tuple[int, int]]:
        return [self.exponents[j] for j in self.order]

    def position_of(self, exp: tuple[int, int]) -> int:
        """Position of the monomial with the given exponent pair."""
        return self.order.index(self.exponents.index(tuple(exp)))

    def monomials(self, y1, y2):
        """The K monomial fields at the given points, one at a time in position
        order, each of shape broadcast(y1, y2).shape; a one-variable monomial
        is its entry of the power table, as 1 * x == x."""
        y1, y2 = np.broadcast_arrays(np.asarray(y1, float), np.asarray(y2, float))
        p1 = powers(y1, self.degree)
        p2 = powers(y2, self.degree)
        for i1, i2 in self.ordered_exponents():
            yield p1[i1] * p2[i2] if i1 and i2 else p2[i2] if i2 else p1[i1]


@dataclass(frozen=True, eq=False)
class Nonlinearity:
    """Base for the lifted coupling (gamma1*G, -gamma2*G)."""

    gamma1: float
    gamma2: float

    def __post_init__(self):
        if not (self.gamma1 >= self.gamma2 > 0):
            raise ValueError(
                f"need gamma1 >= gamma2 > 0, got ({self.gamma1}, {self.gamma2})"
            )

    def G(self, y1, y2):
        raise NotImplementedError

    def dG(self, y1, y2):
        """Partial derivatives (dG/dy1, dG/dy2)."""
        raise NotImplementedError

    def rows(self, index) -> "Nonlinearity":
        """The nonlinearity of the stack items at ``index``; one shared by
        every item returns itself."""
        return self

    def g(self, field: np.ndarray, origin: tuple = (0, 0),
          first_only: bool = False) -> np.ndarray:
        """Lifted reaction term evaluated nodally on a 2-component field
        (..., 2, n, n); leading axes index stack items.  ``first_only``
        returns gamma1*G alone, (..., n, n), with the bits of
        ``g(field)[..., 0, :, :]``; -gamma2*G is neither built nor scanned.

        Raises NumericalError with the offending node if any output is
        non-finite (e.g. overflow of the exponential target).  ``origin`` is
        the grid index (i, j) of the field's first node, (1, 0) for grid
        rows 1..n-1, so that the error names the grid node.  Since
        gamma1 >= gamma2 > 0, -gamma2*G is finite wherever gamma1*G is:
        ``first_only`` raises on the same fields, with the same message.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            G = self.G(field[..., 0, :, :], field[..., 1, :, :])
        out = np.empty(G.shape[:-2] + (1 if first_only else 2,) + G.shape[-2:])
        np.multiply(self.gamma1, G, out=out[..., 0, :, :])
        if not first_only:
            np.multiply(-self.gamma2, G, out=out[..., 1, :, :])
        if not np.isfinite(out).all():
            bad = np.argwhere(~np.isfinite(out))[0]
            raise NumericalError(
                f"non-finite nonlinearity value at component {bad[-3]}, "
                f"node ({bad[-2] + origin[0]}, {bad[-1] + origin[1]})"
            )
        return out[..., 0, :, :] if first_only else out

    def jacobian(self, y1, y2) -> np.ndarray:
        """Pointwise Jacobian [[g1*G1, g1*G2], [-g2*G1, -g2*G2]].

        Returns shape (2, 2) + broadcast shape of the inputs.
        """
        dG1, dG2 = self.dG(np.asarray(y1, float), np.asarray(y2, float))
        row1 = np.stack([self.gamma1 * dG1, self.gamma1 * dG2])
        row2 = np.stack([-self.gamma2 * dG1, -self.gamma2 * dG2])
        return np.stack([row1, row2])


@dataclass(frozen=True, eq=False)
class BasisCombo(Nonlinearity):
    """G(y) = sum_j coeffs[j] * monomial at position j of the basis order.

    A (B, K) coefficient array stacks B combos, one per item of a stack:
    row b acts on inputs whose leading index is b.  The terms of G and of
    both partials are fixed when the combo is built, and one loop sums them;
    ``rows(index)`` builds the combo of some rows anew from those rows.
    """

    basis: MonomialBasis = None
    coeffs: np.ndarray = None

    def __post_init__(self):
        super().__post_init__()
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim not in (1, 2) or c.shape[-1] > self.basis.size:
            raise ValueError("coefficient vector does not fit the basis")
        object.__setattr__(self, "coeffs", c)
        # (coefficient, i1, i2) terms of G, dG/dy1 and dG/dy2; c.T[j] is
        # coefficient j, or its column over stacked rows
        used = np.flatnonzero(np.any(np.atleast_2d(c) != 0.0, axis=0))
        terms = [(c.T[j], *self.basis.exponent(j)) for j in used]
        tables = tuple(_table(t, c.shape[:-1]) for t in (
            terms,
            [(a * i1, i1 - 1, i2) for a, i1, i2 in terms if i1 > 0],
            [(a * i2, i1, i2 - 1) for a, i1, i2 in terms if i2 > 0]))
        object.__setattr__(self, "_tables", tables)
        object.__setattr__(self, "_degrees", tuple(
            max((e[k] for e in tables[0][1]), default=0) for k in (0, 1)))

    def rows(self, index) -> "BasisCombo":
        """The combo of the stacked rows at ``index``, built from them."""
        if self.coeffs.ndim == 1:
            return self
        return replace(self, coeffs=self.coeffs[index])

    def _sums(self, tables, y1, y2) -> list:
        """Each term table summed over one pair of power tables; a row's zero
        entries add exact zeros, so each row sums as its own combo would.

        Every term ``a * y1^i1 * y2^i2`` is formed in one scratch array, in
        that order, and added to its total.  A zeroth power is a factor of
        exact ones, so its multiplication is skipped and no array of ones
        is built: the sums are bit-identical to the plain per-term formula.
        """
        shape = np.broadcast(y1, y2).shape
        p1 = powers(y1, self._degrees[0], zeroth=False)
        p2 = powers(y2, self._degrees[1], zeroth=False)
        column = (-1,) + (1,) * (len(shape) - 1) if self.coeffs.ndim == 2 else None
        sums = [np.zeros(shape) for _ in tables]
        t = np.empty(shape)
        for total, (coeffs, exps) in zip(sums, tables):
            for a, (i1, i2) in zip(coeffs, exps):
                if column:
                    a = a.reshape(column)
                if i1 == i2 == 0:
                    total += a
                    continue
                np.multiply(a, p1[i1] if i1 else p2[i2], out=t)
                if i1 and i2:
                    t *= p2[i2]
                total += t
        return sums

    def G(self, y1, y2):
        return self._sums(self._tables[:1], y1, y2)[0]

    def dG(self, y1, y2):
        return tuple(self._sums(self._tables[1:], y1, y2))


def _table(terms, rows: tuple) -> tuple:
    """(coefficients, exponents) of a list of (a, i1, i2) terms: row t of the
    coefficient array is term t's coefficient, or its column over ``rows``."""
    coeffs = np.array([a for a, _, _ in terms], dtype=float)
    return coeffs.reshape((len(terms),) + rows), [(i1, i2) for _, i1, i2 in terms]


def powers(y, degree: int, zeroth: bool = True) -> list:
    """Powers [y^0, ..., y^degree] of an array, by repeated multiplication;
    with ``zeroth=False`` entry 0 is None instead of an array of ones."""
    y = np.asarray(y, dtype=float)
    table = [np.ones_like(y) if zeroth else None]
    if degree >= 1:
        table.append(y)
    for _ in range(degree - 1):
        table.append(table[-1] * y)
    return table


@dataclass(frozen=True, eq=False)
class ClosedForm(Nonlinearity):
    """One of the closed-form target interactions.

    bilinear     G(y) = 0.05 * y1 * y2
    sinusoidal   G(y) = 0.01 * sin(2 y1) * sin(2 y2)
    exponential  G(y) = 0.01 * exp(2 y1) * exp(2 y2)
    """

    kind: str = "bilinear"

    def __post_init__(self):
        super().__post_init__()
        if self.kind not in CLOSED_FORM_KINDS:
            raise ValueError(f"unknown closed-form kind {self.kind!r}")

    def G(self, y1, y2):
        if self.kind == "bilinear":
            return 0.05 * y1 * y2
        if self.kind == "sinusoidal":
            return 0.01 * np.sin(2.0 * y1) * np.sin(2.0 * y2)
        return 0.01 * np.exp(2.0 * y1) * np.exp(2.0 * y2)

    def dG(self, y1, y2):
        if self.kind == "bilinear":
            return 0.05 * y2 * np.ones_like(y1), 0.05 * y1 * np.ones_like(y2)
        if self.kind == "sinusoidal":
            return (
                0.02 * np.cos(2.0 * y1) * np.sin(2.0 * y2),
                0.02 * np.sin(2.0 * y1) * np.cos(2.0 * y2),
            )
        e = 0.01 * np.exp(2.0 * y1) * np.exp(2.0 * y2)
        return 2.0 * e, 2.0 * e


def _sin2_series_coeff(m: int) -> float:
    # coefficient of y^m in sin(2y): 0 for even m, (-1)^((m-1)/2) 2^m / m! otherwise
    if m % 2 == 0:
        return 0.0
    return (-1.0) ** ((m - 1) // 2) * 2.0**m / math.factorial(m)


def taylor_coeffs(kind: str, d: int) -> dict[tuple[int, int], float]:
    """Taylor coefficients of the closed-form target at the origin.

    Returns t[(i1, i2)] for all 0 <= i1, i2 <= d, where
    t = d^(i1+i2) G / (dy1^i1 dy2^i2) (0, 0) / (i1! i2!).
    """
    if kind not in CLOSED_FORM_KINDS:
        raise ValueError(f"unknown closed-form kind {kind!r}")
    if d < 0:
        raise ValueError("Taylor order must be >= 0")
    table = {}
    for i1 in range(d + 1):
        for i2 in range(d + 1):
            if kind == "bilinear":
                t = 0.05 if (i1, i2) == (1, 1) else 0.0
            elif kind == "sinusoidal":
                t = 0.01 * _sin2_series_coeff(i1) * _sin2_series_coeff(i2)
            else:
                t = 0.01 * 2.0 ** (i1 + i2) / (math.factorial(i1) * math.factorial(i2))
            table[(i1, i2)] = t
    return table
