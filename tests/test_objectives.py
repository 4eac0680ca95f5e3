import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from greedyrecon import (
    ControlBox,
    DiscriminationObjective,
    FittingObjective,
    IdentificationObjective,
    MonomialBasis,
    NegLaplacian,
    SolverContext,
    control_to_vec,
    generate_data,
    project_box,
    vec_to_control,
)
from greedyrecon.nonlinearity import powers
from greedyrecon.objectives import _coeff_misfit_grad, _misfit_sq, discriminate

from conftest import make_context, random_control, same_bits, signed_zeros


@pytest.fixture(scope="module")
def ctx():
    # tight fixed-point tolerance keeps finite-difference noise low
    return make_context(n=16, degree=2, tol2=1e-13)


def fd_check(obj, x, indices, step, rel_tol, abs_floor=1e-14):
    value, grad = obj(x, True)
    for i in indices:
        e = np.zeros_like(x)
        e[i] = step
        fd = (obj(x + e, False).value - obj(x - e, False).value) / (2.0 * step)
        err = abs(grad[i] - fd) / max(abs(fd), abs_floor)
        assert err <= rel_tol, f"coordinate {i}: adjoint {grad[i]} vs fd {fd}"


class TestProjectBox:
    def test_inside_unchanged(self):
        x = np.array([0.2, -0.3])
        out = project_box(x, np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        assert np.array_equal(out, x)

    def test_clamp(self):
        out = project_box(np.array([2.0, -2.0]), np.array([-1.0, -1.0]),
                          np.array([1.0, 1.0]))
        assert np.array_equal(out, [1.0, -1.0])

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-3, 3, 10)
        lo = np.full(10, -1.0)
        hi = np.full(10, 1.0)
        once = project_box(x, lo, hi)
        assert np.array_equal(project_box(once, lo, hi), once)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            project_box(np.zeros(3), np.zeros(2), np.zeros(2))

    def test_inverted_bounds(self):
        with pytest.raises(ValueError):
            project_box(np.zeros(2), np.ones(2), np.zeros(2))


class TestControlBox:
    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            ControlBox((1.0, 0.0), (0.0, 1.0))

    def test_contains(self, ctx):
        box = ControlBox((-1.0, -1.0), (1.0, 1.0))
        good = random_control(ctx.grid, np.random.default_rng(1))
        assert box.contains(good)
        bad = good.copy()
        bad[0, 3, 3] = 2.0
        assert not box.contains(bad)

    def test_vec_roundtrip(self, ctx):
        eps = random_control(ctx.grid, np.random.default_rng(2))
        assert np.array_equal(vec_to_control(ctx.grid, control_to_vec(eps)), eps)


class TestFittingObjective:
    def test_self_targets_leave_only_regularizer(self, ctx):
        rng = np.random.default_rng(3)
        controls = [random_control(ctx.grid, rng) for _ in range(2)]
        beta = rng.uniform(0.0, 0.3, 3)
        targets = [ctx.solve(ctx.combo(beta), eps) for eps in controls]
        obj = FittingObjective(ctx, controls, targets, nu=1e-4)
        value, grad = obj(beta)
        assert value == pytest.approx(0.5 * 1e-4 * float(beta @ beta), rel=1e-12)

    def test_zero_everything(self, ctx):
        eps = np.zeros((2,) + ctx.grid.shape)
        target = ctx.solve(ctx.combo(np.zeros(1)), eps)
        obj = FittingObjective(ctx, [eps], [target], nu=0.0)
        assert obj(np.zeros(1), False).value == 0.0

    def test_needs_at_least_one_control(self, ctx):
        with pytest.raises(ValueError):
            FittingObjective(ctx, [], [], nu=0.0)

    def test_gradient_matches_fd(self, ctx):
        rng = np.random.default_rng(4)
        controls = [random_control(ctx.grid, rng) for _ in range(2)]
        targets = [ctx.solve(ctx.unit(4), eps) for eps in controls]
        obj = FittingObjective(ctx, controls, targets, nu=0.0)
        beta = rng.uniform(0.05, 0.5, 3)
        fd_check(obj, beta, range(3), step=1e-6, rel_tol=1e-5)

    def test_gradient_includes_regularizer(self, ctx):
        rng = np.random.default_rng(5)
        controls = [random_control(ctx.grid, rng)]
        targets = [ctx.solve(ctx.unit(1), eps) for eps in controls]
        nu = 1e-3
        beta = rng.uniform(0.05, 0.5, 2)
        bare = FittingObjective(ctx, controls, targets, nu=0.0)(beta).grad
        reg = FittingObjective(ctx, controls, targets, nu=nu)(beta).grad
        assert np.allclose(reg - bare, nu * beta, rtol=1e-10, atol=1e-14)


    @pytest.mark.parametrize("weight", [0.5, 1.0])
    def test_stacked_controls_equal_sum_of_single_controls(self, ctx, weight):
        rng = np.random.default_rng(16)
        controls = [random_control(ctx.grid, rng) for _ in range(4)]
        targets = [ctx.solve(ctx.combo(rng.uniform(0.0, 0.3, 6)), eps) for eps in controls]
        beta = rng.uniform(0.05, 0.5, 6)
        value, grad = FittingObjective(ctx, controls, targets, 0.0, weight)(beta)
        singles = [FittingObjective(ctx, [eps], [t], 0.0, weight)(beta)
                   for eps, t in zip(controls, targets)]
        total = sum(s.value for s in singles)
        assert abs(value - total) <= 1e-13 * total
        grad_sum = sum(s.grad for s in singles)
        grad_scale = sum(np.abs(s.grad) for s in singles)
        assert np.all(np.abs(grad - grad_sum) <= 1e-13 * grad_scale)


class TestDiscriminationObjective:
    def test_zero_control_zero_value(self, ctx):
        # candidate without forcing at the origin keeps both states at zero
        obj = DiscriminationObjective(ctx, np.zeros(0), ctx.basis.position_of((1, 0)),
                                      nu=1e-6)
        x = np.zeros(2 * (ctx.grid.n - 1) ** 2)
        value, grad = obj(x)
        assert value == 0.0
        assert np.all(grad == 0.0)

    def test_stacked_pair_equals_separate_solves(self, ctx):
        # surrogate and candidate are solved as one stack of two; each state
        # is bit-identical to its own solve
        rng = np.random.default_rng(17)
        beta = rng.uniform(0.0, 0.3, 3)
        obj = DiscriminationObjective(ctx, beta, 4, nu=0.0)
        x = rng.uniform(-1, 1, 2 * (ctx.grid.n - 1) ** 2)
        eps = vec_to_control(ctx.grid, x)
        diff = ctx.solve(ctx.combo(beta), eps) - ctx.solve(ctx.unit(4), eps)
        assert obj(x, False).value == 0.5 * ctx.grid.h**2 * float(np.sum(diff * diff))

    def test_nonnegative_without_regularizer(self, ctx):
        rng = np.random.default_rng(6)
        obj = DiscriminationObjective(ctx, np.array([0.1, 0.2]), 3, nu=0.0)
        for _ in range(5):
            x = rng.uniform(-1, 1, 2 * (ctx.grid.n - 1) ** 2)
            assert obj(x, False).value >= 0.0

    def test_gradient_matches_fd(self, ctx):
        rng = np.random.default_rng(7)
        beta = rng.uniform(0.0, 0.3, 2)
        obj = DiscriminationObjective(ctx, beta, 4, nu=1e-6)
        x = rng.uniform(-1, 1, 2 * (ctx.grid.n - 1) ** 2)
        idx = rng.choice(x.size, 20, replace=False)
        fd_check(obj, x, idx, step=1e-5, rel_tol=1e-5)


class TestInitializationObjective:
    def test_constant_candidate_misfit_is_control_independent(self, ctx):
        # the constant element does not couple to the state, so the two-state
        # difference equals one Poisson solve of the lifted constant
        pos = ctx.basis.position_of((0, 0))
        rng = np.random.default_rng(9)
        lifted = np.zeros((2,) + ctx.grid.shape)
        lifted[0, 1:-1, 1:-1] = ctx.gamma1
        lifted[1, 1:-1, 1:-1] = -ctx.gamma2
        expected = ctx.op.solve(lifted)
        misfit_sq = ctx.grid.h**2 * float(np.sum(expected**2))
        for _ in range(3):
            x = rng.uniform(-1, 1, 2 * (ctx.grid.n - 1) ** 2)
            eps = vec_to_control(ctx.grid, x)
            y0 = ctx.solve(ctx.combo(np.zeros(0)), eps)
            yc = ctx.solve(ctx.unit(pos), eps)
            assert np.allclose(y0 - yc, expected, atol=1e-10)
            obj = DiscriminationObjective(ctx, np.zeros(0), pos, nu=0.0)
            assert obj(x, False).value == pytest.approx(0.5 * misfit_sq, rel=1e-9)

    def test_zero_control_value(self, ctx):
        obj = DiscriminationObjective(ctx, np.zeros(0), ctx.basis.position_of((0, 1)),
                                      nu=1e-6)
        assert obj(np.zeros(2 * (ctx.grid.n - 1) ** 2), False).value == 0.0

    def test_gradient_matches_fd(self, ctx):
        rng = np.random.default_rng(10)
        obj = DiscriminationObjective(ctx, np.zeros(0), 5, nu=1e-6)
        x = rng.uniform(-1, 1, 2 * (ctx.grid.n - 1) ** 2)
        idx = rng.choice(x.size, 12, replace=False)
        fd_check(obj, x, idx, step=1e-5, rel_tol=1e-5)


class TestIdentificationObjective:
    def test_self_consistent_data_zero(self, ctx):
        rng = np.random.default_rng(11)
        controls = [random_control(ctx.grid, rng) for _ in range(2)]
        alpha = rng.uniform(0.0, 0.3, 6)
        data = [ctx.solve(ctx.combo(alpha), eps) for eps in controls]
        obj = IdentificationObjective(ctx, controls, data)
        assert obj(alpha, False).value == 0.0

    def test_in_span_truth_value_tiny(self, ctx):
        rng = np.random.default_rng(12)
        controls = [random_control(ctx.grid, rng) for _ in range(3)]
        alpha_star = np.zeros(6)
        alpha_star[ctx.basis.position_of((1, 1))] = 0.05
        data = generate_data(ctx.combo(alpha_star), controls, ctx)
        obj = IdentificationObjective(ctx, controls, data)
        assert obj(alpha_star, False).value <= 1e-18

    def test_nonnegative(self, ctx):
        rng = np.random.default_rng(13)
        controls = [random_control(ctx.grid, rng)]
        data = generate_data(ctx.combo(np.zeros(6)), controls, ctx)
        obj = IdentificationObjective(ctx, controls, data)
        for _ in range(5):
            assert obj(rng.uniform(0, 1, 6), False).value >= 0.0

    def test_gradient_matches_fd(self, ctx):
        rng = np.random.default_rng(14)
        controls = [random_control(ctx.grid, rng) for _ in range(3)]
        truth = ctx.combo(rng.uniform(0.0, 0.1, 6))
        data = generate_data(truth, controls, ctx)
        obj = IdentificationObjective(ctx, controls, data)
        alpha = rng.uniform(0.05, 0.4, 6)
        fd_check(obj, alpha, range(6), step=1e-6, rel_tol=1e-5)

    def test_mismatched_lengths_rejected(self, ctx):
        with pytest.raises(ValueError):
            IdentificationObjective(ctx, [np.zeros((2,) + ctx.grid.shape)], [])


class TestStateCache:
    def test_oracle_and_cached_states_freed_without_cycle_collection(self, ctx):
        rng = np.random.default_rng(15)
        controls = [random_control(ctx.grid, rng)]
        data = generate_data(ctx.combo(np.zeros(6)), controls, ctx)
        cases = [
            (IdentificationObjective(ctx, controls, data), np.full(6, 0.1)),
            (DiscriminationObjective(ctx, np.zeros(0), 1, 1e-6),
             control_to_vec(controls[0])),
        ]
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            while cases:
                obj, x = cases.pop()
                obj(x)
                ref = weakref.ref(obj)
                del obj
                assert ref() is None
        finally:
            if was_enabled:
                gc.enable()

    def test_forward_solve_only_at_a_new_point(self, ctx, monkeypatch):
        rng = np.random.default_rng(16)
        controls = [random_control(ctx.grid, rng) for _ in range(2)]
        obj = FittingObjective(ctx, controls, generate_data(ctx.combo(np.zeros(6)),
                                                            controls, ctx), nu=1e-6)
        solves = []
        solve = SolverContext.solve

        def counting(self, nonlin, eps, *args):
            solves.append(len(eps))
            return solve(self, nonlin, eps, *args)

        monkeypatch.setattr(SolverContext, "solve", counting)
        beta = np.full(6, 0.1)
        first = obj(beta)
        assert solves == [2]
        again = obj(beta.copy(), need_grad=False)
        assert solves == [2]
        assert again.value == first.value
        obj(beta + 0.01, need_grad=False)
        assert solves == [2, 2]


def per_term_pairing(ctx, states, adjoints, k):
    """Reference for _coeff_misfit_grad: each monomial a full product,
    zeroth powers included."""
    y = states[..., 1:-1, 1:-1]
    q = adjoints[..., 1:-1, 1:-1]
    r = ctx.gamma1 * q[:, 0] - ctx.gamma2 * q[:, 1]
    exps = [ctx.basis.exponent(j) for j in range(k)]
    p1 = powers(y[:, 0], max((e[0] for e in exps), default=0))
    p2 = powers(y[:, 1], max((e[1] for e in exps), default=0))
    return ctx.grid.h**2 * np.array([np.vdot(p1[i1] * p2[i2], r) for i1, i2 in exps])


class TestMisfitPairing:
    @settings(max_examples=60, deadline=None)
    @given(degree=st.integers(0, 5), n=st.integers(2, 9), count=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1), shuffle=st.booleans())
    def test_pairing_equals_per_term_formula_bit_for_bit(self, degree, n, count,
                                                          seed, shuffle):
        rng = np.random.default_rng(seed)
        ctx = make_context(n=n, degree=degree)
        if shuffle:
            basis = MonomialBasis(degree, rng.permutation(ctx.basis.size))
            ctx = SolverContext(ctx.op, basis, ctx.gamma1, ctx.gamma2, ctx.fp)
        states = signed_zeros(rng, rng.uniform(-2.0, 2.0, (count, 2) + ctx.grid.shape))
        adjoints = signed_zeros(rng, rng.uniform(-1.0, 1.0, states.shape))
        for k in range(ctx.basis.size + 1):
            assert same_bits(_coeff_misfit_grad(ctx, states, adjoints, k),
                             per_term_pairing(ctx, states, adjoints, k))


class TestCachedPoissonPair:
    @pytest.mark.parametrize("kind", [FittingObjective, IdentificationObjective])
    def test_same_bits_as_uncached_solves_and_one_poisson_pair(self, ctx, kind,
                                                               monkeypatch):
        rng = np.random.default_rng(17)
        controls = [random_control(ctx.grid, rng) for _ in range(3)]
        data = generate_data(ctx.combo(rng.uniform(0.0, 0.3, 6)), controls, ctx)
        points = [rng.uniform(0.0, 0.4, 6) for _ in range(3)]
        args = (ctx, controls, data) + ((1e-4,) if kind is FittingObjective else ())
        solve = SolverContext.solve
        with monkeypatch.context() as patch:
            # the reference: every fixed-point solve makes its own Poisson pair
            patch.setattr(SolverContext, "solve",
                          lambda self, nonlin, eps, y0=None: solve(self, nonlin, eps))
            uncached = kind(*args)
            ref = [uncached(beta) for beta in points]
        poisson = NegLaplacian.solve
        pairs = []

        def counting(op, rhs):
            if np.ndim(rhs) == 4:
                pairs.append(len(rhs))
            return poisson(op, rhs)

        monkeypatch.setattr(NegLaplacian, "solve", counting)
        obj = kind(*args)
        for beta, want in zip(points, ref):
            got = obj(beta)
            assert same_bits(got.value, want.value) and same_bits(got.grad, want.grad)
            assert same_bits(obj(beta, need_grad=False).value, want.value)
        assert pairs == [len(controls)]
        assert same_bits(obj.controls, np.stack(controls))

    @pytest.mark.parametrize("need_grad", [False, True])
    def test_stacked_discriminate_solves_each_control_pair_once(self, ctx, need_grad,
                                                                monkeypatch):
        # the surrogate and candidate rows of a control both start from its
        # one Poisson pair solve
        rng = np.random.default_rng(18)
        objs = [DiscriminationObjective(ctx, rng.uniform(0.0, 0.3, k), pos, nu)
                for k, pos, nu in [(0, 1, 1e-6), (2, 3, 0.0), (3, 5, 1e-4)]]
        vecs = [rng.uniform(-1.0, 1.0, 2 * (ctx.grid.n - 1) ** 2) for _ in objs]
        solve = SolverContext.solve
        with monkeypatch.context() as patch:
            patch.setattr(SolverContext, "solve",
                          lambda self, nonlin, eps, y0=None: solve(self, nonlin, eps))
            ref = discriminate(objs, vecs, need_grad)
        poisson = NegLaplacian.solve
        pairs = []

        def counting(op, rhs):
            if np.ndim(rhs) == 4:
                pairs.append(len(rhs))
            return poisson(op, rhs)

        monkeypatch.setattr(NegLaplacian, "solve", counting)
        got = discriminate(objs, vecs, need_grad)
        assert pairs == [len(objs)]
        for g, want in zip(got, ref):
            assert same_bits(g.value, want.value)
            assert (g.grad is None) if not need_grad else same_bits(g.grad, want.grad)


class TestMisfitRowSums:
    @settings(max_examples=40, deadline=None)
    @given(count=st.integers(1, 20), n=st.integers(2, 40),
           weight=st.sampled_from([0.5, 1.0, 0.3]), seed=st.integers(0, 2**32 - 1))
    def test_same_bits_as_the_per_item_loop(self, count, n, weight, seed):
        ctx = make_context(n=n)
        rng = np.random.default_rng(seed)
        shape = (count, 2, n + 1, n + 1)
        scale = 10.0 ** rng.uniform(-3, 3, (count, 1, 1, 1))
        states = signed_zeros(rng, scale * rng.standard_normal(shape))
        targets = scale * rng.standard_normal(shape)
        beta, nu = rng.uniform(0.0, 1.0, 3), 1e-3
        obj = FittingObjective(ctx, list(targets), list(targets), nu, weight)
        obj._solve = lambda b: (None, states)
        want = 0.5 * nu * float(np.dot(beta, beta))
        for d in states - targets:
            want += weight * _misfit_sq(ctx.grid, d)
        assert same_bits(obj(beta, need_grad=False).value, want)
