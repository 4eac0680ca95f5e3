import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from greedyrecon import (
    BasisCombo,
    ClosedForm,
    MonomialBasis,
    NumericalError,
    taylor_coeffs,
)
from greedyrecon.nonlinearity import CLOSED_FORM_KINDS, powers

from conftest import make_context, same_bits, signed_zeros


class TestBasisEnumeration:
    def test_paper_cardinality(self):
        assert MonomialBasis(2).size == 6

    def test_degree_zero(self):
        b = MonomialBasis(0)
        assert b.size == 1 and b.exponents == ((0, 0),)

    def test_degree_five_against_counting_oracle(self):
        b = MonomialBasis(5)
        oracle = {(i1, i2) for i1 in range(6) for i2 in range(6) if i1 + i2 <= 5}
        assert b.size == 21
        assert set(b.exponents) == oracle

    @pytest.mark.parametrize("p", range(7))
    def test_completeness_and_uniqueness(self, p):
        b = MonomialBasis(p)
        expected = {(i1, i2) for i1 in range(p + 1) for i2 in range(p + 1)
                    if i1 + i2 <= p}
        assert len(b.exponents) == len(set(b.exponents)) == len(expected)
        assert set(b.exponents) == expected
        assert b.size == (p + 1) * (p + 2) // 2

    def test_enumeration_prefix(self):
        b = MonomialBasis(3)
        assert b.exponents[:7] == (
            (0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1),
        )

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            MonomialBasis(-1)

    def test_swap_and_position(self):
        pos = MonomialBasis(2).position_of((1, 1))
        order = list(range(6))
        order[0], order[pos] = pos, 0
        b = MonomialBasis(2, order)
        assert b.exponent(0) == (1, 1)
        assert b.position_of((0, 0)) == pos
        assert b.order == tuple(order)


class TestEvalG:
    def test_bilinear_at_ones(self):
        assert ClosedForm(0.2, 0.2, kind="bilinear").G(1.0, 1.0) == pytest.approx(0.05)

    def test_zero_coeffs_vanish(self):
        combo = BasisCombo(0.2, 0.2, basis=MonomialBasis(2), coeffs=np.zeros(6))
        assert combo.G(1.3, -0.7) == 0.0

    def test_constant_term_survives(self):
        coeffs = np.zeros(6)
        coeffs[0] = 0.4
        combo = BasisCombo(0.2, 0.2, basis=MonomialBasis(2), coeffs=coeffs)
        assert combo.G(2.0, -3.0) == pytest.approx(0.4)

    def test_exponential_at_origin(self):
        assert ClosedForm(0.2, 0.2, kind="exponential").G(0.0, 0.0) == pytest.approx(0.01)

    def test_lifted_field_signs(self):
        g = ClosedForm(0.2, 0.2, kind="bilinear")
        field = np.full((2, 3, 3), 1.0)
        out = g.g(field)
        assert np.allclose(out[0], 0.01)
        assert np.allclose(out[1], -0.01)

    def test_sinusoidal_lift_value(self):
        g = ClosedForm(0.2, 0.2, kind="sinusoidal")
        field = np.full((2, 2, 2), np.pi / 4.0)
        out = g.g(field)
        assert np.allclose(out[0], 0.002)
        assert np.allclose(out[1], -0.002)

    def test_overflow_reports_node(self):
        g = ClosedForm(0.2, 0.2, kind="exponential")
        field = np.zeros((2, 3, 3))
        field[:, 1, 2] = 500.0
        with pytest.raises(NumericalError, match=r"node \(1, 2\)"):
            g.g(field)

    def test_gamma_ordering_enforced(self):
        with pytest.raises(ValueError):
            ClosedForm(0.1, 0.2, kind="bilinear")
        with pytest.raises(ValueError):
            ClosedForm(0.2, 0.0, kind="bilinear")


class TestJacobian:
    def test_zero_coeffs(self):
        combo = BasisCombo(0.2, 0.2, basis=MonomialBasis(2), coeffs=np.zeros(6))
        assert np.all(combo.jacobian(0.3, -0.2) == 0.0)

    def test_bilinear_combo_closed_value(self):
        basis = MonomialBasis(2)
        coeffs = np.zeros(6)
        coeffs[basis.position_of((1, 1))] = 0.05
        combo = BasisCombo(0.2, 0.2, basis=basis, coeffs=coeffs)
        jac = combo.jacobian(2.0, 3.0)
        assert np.allclose(jac, [[0.03, 0.02], [-0.03, -0.02]])

    @pytest.mark.parametrize("kind", ["bilinear", "sinusoidal", "exponential"])
    def test_closed_forms_match_finite_differences(self, kind):
        g = ClosedForm(0.2, 0.2, kind=kind)
        rng = np.random.default_rng(2)
        step = 1e-6
        for _ in range(100):
            y1, y2 = rng.uniform(-2.0, 2.0, 2)
            d1 = (g.G(y1 + step, y2) - g.G(y1 - step, y2)) / (2 * step)
            d2 = (g.G(y1, y2 + step) - g.G(y1, y2 - step)) / (2 * step)
            jac = g.jacobian(y1, y2)
            assert jac[0, 0] == pytest.approx(0.2 * d1, rel=1e-6, abs=1e-10)
            assert jac[1, 1] == pytest.approx(-0.2 * d2, rel=1e-6, abs=1e-10)

    def test_basis_combo_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        basis = MonomialBasis(3)
        combo = BasisCombo(0.3, 0.2, basis=basis, coeffs=rng.uniform(0, 1, basis.size))
        step = 1e-6
        for _ in range(100):
            y1, y2 = rng.uniform(-2.0, 2.0, 2)
            d1 = (combo.G(y1 + step, y2) - combo.G(y1 - step, y2)) / (2 * step)
            d2 = (combo.G(y1, y2 + step) - combo.G(y1, y2 - step)) / (2 * step)
            jac = combo.jacobian(y1, y2)
            assert jac[0, 0] == pytest.approx(0.3 * d1, rel=1e-6, abs=1e-8)
            assert jac[0, 1] == pytest.approx(0.3 * d2, rel=1e-6, abs=1e-8)
            assert jac[1, 0] == pytest.approx(-0.2 * d1, rel=1e-6, abs=1e-8)


def power_formula_G(combo, y1, y2):
    """Reference sum_j c_j y1**i1 * y2**i2 with numpy's power operator."""
    exps = combo.basis.ordered_exponents()
    return sum(c * y1**e[0] * y2**e[1] for c, e in zip(combo.coeffs, exps))


def power_formula_dG(combo, y1, y2):
    exps = combo.basis.ordered_exponents()
    d1 = sum(c * e[0] * y1 ** max(e[0] - 1, 0) * y2**e[1]
             for c, e in zip(combo.coeffs, exps))
    d2 = sum(c * e[1] * y1**e[0] * y2 ** max(e[1] - 1, 0)
             for c, e in zip(combo.coeffs, exps))
    return d1, d2


class TestPowerTables:
    @settings(max_examples=60, deadline=None)
    @given(degree=st.integers(0, 6), seed=st.integers(0, 2**32 - 1),
           size=st.integers(0, 28), shuffle=st.booleans())
    def test_G_dG_and_monomials_match_power_formulas(self, degree, seed, size, shuffle):
        rng = np.random.default_rng(seed)
        basis = MonomialBasis(degree)
        if shuffle:
            basis = MonomialBasis(degree, rng.permutation(basis.size))
        coeffs = rng.uniform(-1.0, 1.0, min(size, basis.size))
        coeffs[rng.random(coeffs.size) < 0.3] = 0.0
        combo = BasisCombo(0.3, 0.2, basis=basis, coeffs=coeffs)
        y1, y2 = rng.uniform(-2.0, 2.0, (2, 5, 7))
        mono = np.stack(list(basis.monomials(y1, y2)))
        ref_mono = np.stack([y1**i1 * y2**i2 for i1, i2 in basis.ordered_exponents()])
        assert np.all(np.abs(mono - ref_mono) <= 1e-13 * np.abs(ref_mono))
        # each term differs from its formula by a few roundings, so the
        # slack scales with the sum of the absolute terms
        magnitude = BasisCombo(0.3, 0.2, basis=basis, coeffs=np.abs(coeffs))
        a1, a2 = np.abs(y1), np.abs(y2)
        assert np.all(np.abs(combo.G(y1, y2) - power_formula_G(combo, y1, y2))
                      <= 1e-13 * power_formula_G(magnitude, a1, a2))
        for got, ref, scale in zip(combo.dG(y1, y2), power_formula_dG(combo, y1, y2),
                                   power_formula_dG(magnitude, a1, a2)):
            assert np.all(np.abs(got - ref) <= 1e-13 * scale)

    def test_power_table_shapes_and_scalars(self):
        assert [float(v) for v in powers(1.5, 3)] == [1.0, 1.5, 2.25, 3.375]
        assert np.array_equal(powers(np.array([2.0, -1.0]), 3)[3], [8.0, -1.0])
        table = powers(0.5, 0)
        assert len(table) == 1 and float(table[0]) == 1.0


class TestStackedRows:
    @settings(max_examples=40, deadline=None)
    @given(degree=st.integers(0, 5), seed=st.integers(0, 2**32 - 1),
           sizes=st.tuples(st.integers(0, 21), st.integers(0, 21)))
    def test_two_row_combo_equals_its_rows(self, degree, seed, sizes):
        rng = np.random.default_rng(seed)
        basis = MonomialBasis(degree, rng.permutation(MonomialBasis(degree).size))
        rows = [rng.uniform(-1.0, 1.0, min(k, basis.size)) for k in sizes]
        for r in rows:
            r[rng.random(r.size) < 0.4] = 0.0
        stacked = np.zeros((2, max(r.size for r in rows)))
        for b, r in enumerate(rows):
            stacked[b, :r.size] = r
        pair = BasisCombo(0.3, 0.2, basis=basis, coeffs=stacked)
        y1, y2 = rng.uniform(-2.0, 2.0, (2, 2, 4, 5))
        G, dG = pair.G(y1, y2), pair.dG(y1, y2)
        for b, r in enumerate(rows):
            alone = BasisCombo(0.3, 0.2, basis=basis, coeffs=r)
            assert np.array_equal(G[b], alone.G(y1[b], y2[b]))
            for got, ref in zip(dG, alone.dG(y1[b], y2[b])):
                assert np.array_equal(got[b], ref)
            assert pair.rows([b]).coeffs.shape == (1, stacked.shape[1])

    def test_lifted_term_keeps_leading_axes(self):
        rng = np.random.default_rng(5)
        combo = BasisCombo(0.3, 0.2, basis=MonomialBasis(2),
                           coeffs=rng.uniform(0, 1, (3, 6)))
        fields = rng.uniform(-1.0, 1.0, (3, 2, 4, 4))
        out = combo.g(fields)
        assert out.shape == fields.shape
        for b in range(3):
            assert np.array_equal(out[b], combo.rows([b]).g(fields[b:b + 1])[0])
        single = ClosedForm(0.2, 0.2, kind="bilinear")
        assert single.rows([1]) is single
        assert np.array_equal(single.g(fields)[2], single.g(fields[2]))

    def test_overflow_in_a_stack_reports_its_node(self):
        g = ClosedForm(0.2, 0.2, kind="exponential")
        fields = np.zeros((2, 2, 3, 3))
        fields[1, :, 1, 2] = 500.0
        with pytest.raises(NumericalError, match=r"component 0, node \(1, 2\)"):
            g.g(fields)

    def test_row_stack_must_fit_the_basis(self):
        with pytest.raises(ValueError):
            BasisCombo(0.2, 0.2, basis=MonomialBasis(1), coeffs=np.zeros((2, 4)))
        with pytest.raises(ValueError):
            BasisCombo(0.2, 0.2, basis=MonomialBasis(1), coeffs=np.zeros((2, 2, 2)))


class TestRowsFromTables:
    @settings(max_examples=80, deadline=None)
    @given(degree=st.integers(0, 5), seed=st.integers(0, 2**32 - 1),
           rows=st.integers(1, 5), size=st.integers(0, 21), specials=st.booleans())
    def test_rows_equal_a_combo_built_from_them_bit_for_bit(
            self, degree, seed, rows, size, specials):
        rng = np.random.default_rng(seed)
        basis = MonomialBasis(degree, rng.permutation(MonomialBasis(degree).size))
        k = min(size, basis.size)
        coeffs = signed_zeros(rng, rng.uniform(-1.0, 1.0, (rows, k)), share=0.3)
        # columns that are zero on some rows only, so that some index sets
        # zero them out whole
        coeffs[rng.random((rows, k)) < 0.4] = 0.0
        combo = BasisCombo(0.3, 0.2, basis=basis, coeffs=coeffs)
        index = np.sort(rng.choice(rows, rng.integers(1, rows + 1), replace=False))
        field = signed_zeros(rng, rng.uniform(-2.0, 2.0, (len(index), 2, 3, 4)))
        if specials:
            # 0 * inf is NaN: a dropped term must be one a built combo drops
            field[0, :, 0, 0] = [np.inf, -np.inf]
        y1, y2 = field[:, 0], field[:, 1]
        kept = coeffs.copy()
        cut, built = combo.rows(index), BasisCombo(0.3, 0.2, basis=basis, coeffs=coeffs[index])
        assert type(cut) is BasisCombo and cut.basis is combo.basis
        assert (cut.gamma1, cut.gamma2) == (combo.gamma1, combo.gamma2)
        assert same_bits(combo.coeffs, kept)
        assert same_bits(cut.coeffs, built.coeffs)
        assert same_bits(cut.rows([-1]).coeffs, coeffs[index[-1:]])
        with np.errstate(over="ignore", invalid="ignore"):
            assert same_bits(cut.G(y1, y2), built.G(y1, y2))
            for got, ref in zip(cut.dG(y1, y2), built.dG(y1, y2)):
                assert same_bits(got, ref)
        if not specials:
            assert same_bits(cut.g(field), built.g(field))
        assert cut._degrees == built._degrees
        assert [e for _, e in cut._tables] == [e for _, e in built._tables]

    def test_index_set_that_zeros_whole_columns(self):
        basis = MonomialBasis(2)
        coeffs = np.array([[0.0, 1.0, 0.0, 2.0, 0.0, -0.0],
                           [3.0, 0.0, -0.0, 0.0, 4.0, 5.0],
                           [0.0, 6.0, 0.0, -0.0, 0.0, 0.0]])
        combo = BasisCombo(0.3, 0.2, basis=basis, coeffs=coeffs)
        cut = combo.rows([0, 2])
        # only y1 (position 1) and y1*y2 (position 3) are left
        assert cut._tables[0][1] == [basis.exponent(1), basis.exponent(3)]
        assert cut._degrees == (1, 1)
        y = np.array([[[np.inf]], [[1.5]]])
        with np.errstate(invalid="ignore"):
            assert same_bits(cut.G(y, -y), BasisCombo(
                0.3, 0.2, basis=basis, coeffs=coeffs[[0, 2]]).G(y, -y))

    def test_power_table_without_zeroth_power(self):
        y = np.array([[2.0, -0.0], [np.inf, 0.5]])
        full, cut = powers(y, 4), powers(y, 4, zeroth=False)
        assert cut[0] is None and len(cut) == len(full) == 5
        assert all(same_bits(a, b) for a, b in zip(full[1:], cut[1:]))
        assert powers(y, 0, zeroth=False) == [None]


def per_term_sums(combo, tables, y1, y2):
    """Each table summed one full product ``a * y1^i1 * y2^i2`` at a time,
    zeroth powers included: the reference for BasisCombo._sums."""
    shape = np.broadcast(y1, y2).shape
    p1, p2 = powers(y1, combo._degrees[0]), powers(y2, combo._degrees[1])
    column = (-1,) + (1,) * (len(shape) - 1) if combo.coeffs.ndim == 2 else None
    sums = [np.zeros(shape) for _ in tables]
    for total, (coeffs, exps) in zip(sums, tables):
        for a, (i1, i2) in zip(coeffs, exps):
            if column:
                a = a.reshape(column)
            total += a * p1[i1] * p2[i2]
    return sums


def stacked_lift(nonlin, field):
    """Reference for Nonlinearity.g: both components stacked from products."""
    G = nonlin.G(field[..., 0, :, :], field[..., 1, :, :])
    return np.stack([nonlin.gamma1 * G, -nonlin.gamma2 * G], axis=-3)


class TestScratchSums:
    @settings(max_examples=80, deadline=None)
    @given(degree=st.integers(0, 5), seed=st.integers(0, 2**32 - 1),
           rows=st.integers(0, 3), size=st.integers(0, 21), shuffle=st.booleans())
    def test_G_dG_and_lift_equal_per_term_formulas_bit_for_bit(
            self, degree, seed, rows, size, shuffle):
        rng = np.random.default_rng(seed)
        basis = MonomialBasis(degree)
        if shuffle:
            basis = MonomialBasis(degree, rng.permutation(basis.size))
        k = min(size, basis.size)
        # rows == 0 draws one coefficient vector shared by every item
        shape = (rows, k) if rows else (k,)
        coeffs = signed_zeros(rng, rng.uniform(-1.0, 1.0, shape), share=0.3)
        if k:
            coeffs[..., rng.random(k) < 0.3] = 0.0
        combo = BasisCombo(0.3, 0.2, basis=basis, coeffs=coeffs)
        field = signed_zeros(rng, rng.uniform(-2.0, 2.0, (max(rows, 1), 2, 4, 5)))
        y1, y2 = field[:, 0], field[:, 1]
        ref_G, ref_d1, ref_d2 = per_term_sums(combo, combo._tables, y1, y2)
        assert same_bits(combo.G(y1, y2), ref_G)
        d1, d2 = combo.dG(y1, y2)
        assert same_bits(d1, ref_d1) and same_bits(d2, ref_d2)
        assert same_bits(combo.g(field), stacked_lift(combo, field))

    def test_lift_of_closed_forms_equals_stacked_products(self):
        rng = np.random.default_rng(8)
        field = signed_zeros(rng, rng.uniform(-1.0, 1.0, (3, 2, 5, 5)))
        for kind in ("bilinear", "sinusoidal", "exponential"):
            g = ClosedForm(0.3, 0.2, kind=kind)
            assert same_bits(g.g(field), stacked_lift(g, field))
            assert same_bits(g.g(field[0]), stacked_lift(g, field[0]))


class TestPermutationSafety:
    def test_eval_invariant_under_consistent_reordering(self):
        rng = np.random.default_rng(4)
        basis = MonomialBasis(3)
        coeffs = rng.uniform(0, 1, basis.size)
        combo = BasisCombo(0.2, 0.2, basis=basis, coeffs=coeffs)
        pts = rng.uniform(-1.5, 1.5, (20, 2))
        ref = [combo.G(p[0], p[1]) for p in pts]
        # the only admissible difference is summation order, so the slack is
        # the backward-error bound eps * sum |c_j phi_j|
        mono = lambda p: np.stack(list(basis.monomials(p[0], p[1])))
        floors = [2e-15 * float(np.sum(np.abs(coeffs * mono(p)))) for p in pts]
        for _ in range(10):
            perm = rng.permutation(basis.size)
            shuffled = MonomialBasis(3, np.asarray(basis.order)[perm])
            reordered = BasisCombo(0.2, 0.2, basis=shuffled, coeffs=coeffs[perm])
            for p, r, floor in zip(pts, ref, floors):
                assert reordered.G(p[0], p[1]) == pytest.approx(r, rel=1e-14, abs=floor)


class TestImmutableBasis:
    def test_order_cannot_be_written(self):
        basis = MonomialBasis(2, [0, 2, 1, 3, 4, 5])
        with pytest.raises(AttributeError):
            basis.order = (0, 1, 2, 3, 4, 5)
        with pytest.raises(TypeError):
            basis.order[0] = 1
        assert not hasattr(basis, "swap") and not hasattr(basis, "copy")
        assert basis.order == (0, 2, 1, 3, 4, 5)

    @pytest.mark.parametrize("order", [[0, 0, 1, 2, 3, 4], [0, 1, 2], [0, 1, 2, 3, 4, 6],
                                       [1, 2, 3, 4, 5, 6], "012345"])
    def test_order_must_be_a_permutation(self, order):
        with pytest.raises(ValueError, match=r"not a permutation of range\(6\)"):
            MonomialBasis(2, order)

    def test_a_reordered_basis_changes_no_built_combo(self):
        rng = np.random.default_rng(8)
        basis = MonomialBasis(3)
        coeffs = rng.uniform(-1.0, 1.0, basis.size)
        rows = np.stack([coeffs, coeffs[::-1]])
        y1, y2 = rng.uniform(-2.0, 2.0, (2, 2, 4, 5))

        def evaluate(combo):
            return [combo.G(y1, y2), *combo.dG(y1, y2)]

        combos = [BasisCombo(0.3, 0.2, basis=basis, coeffs=c) for c in (coeffs, rows)]
        before = [evaluate(c) for c in combos]
        order = list(basis.order)
        order[1], order[7] = order[7], order[1]
        order[0], order[4] = order[4], order[0]
        moved = MonomialBasis(3, order)
        for combo, ref in zip(combos, before):
            for got, want in zip(evaluate(combo), ref):
                assert np.array_equal(got, want)
        assert basis.order == tuple(range(basis.size))
        # a combo on the reordered basis follows its order
        for c, ref in zip((coeffs, rows), before):
            after = evaluate(BasisCombo(0.3, 0.2, basis=moved, coeffs=c))
            for got, old in zip(after, ref):
                assert not np.array_equal(got, old)


class TestTaylor:
    def test_bilinear_table(self):
        table = taylor_coeffs("bilinear", 2)
        assert table[(1, 1)] == 0.05
        assert all(v == 0.0 for k, v in table.items() if k != (1, 1))

    def test_exponential_origin_value(self):
        assert taylor_coeffs("exponential", 0)[(0, 0)] == pytest.approx(0.01)

    def test_sinusoidal_first_mixed(self):
        assert taylor_coeffs("sinusoidal", 1)[(1, 1)] == pytest.approx(0.04)

    @pytest.mark.parametrize("kind", ["bilinear", "sinusoidal", "exponential"])
    def test_against_symbolic_oracle(self, kind):
        sympy = pytest.importorskip("sympy")
        y1, y2 = sympy.symbols("y1 y2")
        expr = {
            "bilinear": sympy.Rational(5, 100) * y1 * y2,
            "sinusoidal": sympy.Rational(1, 100) * sympy.sin(2 * y1) * sympy.sin(2 * y2),
            "exponential": sympy.Rational(1, 100) * sympy.exp(2 * y1) * sympy.exp(2 * y2),
        }[kind]
        table = taylor_coeffs(kind, 3)
        for (i1, i2), value in table.items():
            derivative = sympy.diff(expr, y1, i1, y2, i2).subs({y1: 0, y2: 0})
            oracle = float(derivative) / (math.factorial(i1) * math.factorial(i2))
            assert value == pytest.approx(oracle, rel=1e-12, abs=1e-18)

    def test_truncation_error_monotone_for_exponential(self):
        g = ClosedForm(0.2, 0.2, kind="exponential")
        rng = np.random.default_rng(6)
        pts = rng.uniform(-0.5, 0.5, (30, 2))
        worst = []
        for d in range(1, 6):
            table = taylor_coeffs("exponential", d)
            errs = []
            for p in pts:
                approx = sum(t * p[0] ** i1 * p[1] ** i2
                             for (i1, i2), t in table.items())
                errs.append(abs(g.G(p[0], p[1]) - approx))
            worst.append(max(errs))
        assert all(a > b for a, b in zip(worst, worst[1:]))

    def test_unit_combo_is_single_monomial(self):
        ctx = make_context(n=4, degree=2)
        combo = ctx.unit(ctx.basis.position_of((2, 0)))
        assert combo.G(1.5, -3.0) == pytest.approx(2.25)


class TestFirstComponentOnly:
    """``g(..., first_only=True)`` is the first lifted component of ``g``."""

    @staticmethod
    def draw(rng, kind, rows, gamma1, gamma2):
        if kind in CLOSED_FORM_KINDS:
            return ClosedForm(gamma1, gamma2, kind=kind)
        basis = MonomialBasis(int(rng.integers(0, 4)))
        shape = (rows, basis.size) if kind == "stacked rows" else (basis.size,)
        coeffs = signed_zeros(rng, rng.uniform(-1.0, 1.0, shape), share=0.3)
        return BasisCombo(gamma1, gamma2, basis=basis, coeffs=coeffs)

    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(CLOSED_FORM_KINDS + ("combo", "stacked rows")),
           seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 4), stacked=st.booleans(),
           gamma1=st.floats(0.05, 3.0), share=st.floats(0.1, 1.0),
           origin=st.tuples(st.integers(0, 2), st.integers(0, 2)))
    def test_equals_the_first_component_bit_for_bit(
            self, kind, seed, rows, stacked, gamma1, share, origin):
        rng = np.random.default_rng(seed)
        nonlin = self.draw(rng, kind, rows, gamma1, gamma1 * share)
        # a row-stacked combo acts on a stack; the others on one item or a stack
        lead = (rows,) if stacked or kind == "stacked rows" else ()
        field = signed_zeros(rng, rng.uniform(-2.0, 2.0, lead + (2, 3, 4)), share=0.3)
        first = nonlin.g(field, origin, first_only=True)
        assert first.shape == lead + (3, 4)
        assert same_bits(first, nonlin.g(field, origin)[..., 0, :, :])

    @pytest.mark.parametrize("y, gamma1", [(500.0, 0.3), (np.inf, 0.3), (np.nan, 0.3),
                                           (100.0, 1e300)])
    def test_overflow_raises_the_same_message(self, y, gamma1):
        g = ClosedForm(gamma1, 0.2, kind="exponential")
        field = np.zeros((3, 2, 4, 5))
        field[1, :, 2, 3] = [y, 1.0]
        field[2, 1, 0, 1] = y
        messages = []
        for first_only in (False, True):
            # gamma1 * G overflows past a finite G with a warning
            with np.errstate(over="ignore"), pytest.raises(NumericalError) as info:
                g.g(field, (1, 0), first_only=first_only)
            messages.append(str(info.value))
        assert messages[0] == messages[1] == (
            "non-finite nonlinearity value at component 0, node (3, 3)")
