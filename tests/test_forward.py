import re
import warnings

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings, strategies as st

from greedyrecon import (
    BasisCombo,
    ClosedForm,
    FixedPointConfig,
    Grid,
    MonomialBasis,
    NegLaplacian,
    NumericalError,
    constructed_control,
    l2_norm,
    laplace_norm,
    solve_adjoint,
    solve_semilinear,
)
from greedyrecon.forward import _item_dots, coupled_linear_matrix
from greedyrecon.grid import inner_l2

from conftest import kappa, random_control, same_bits, signed_zeros


def zero_combo(degree=2):
    basis = MonomialBasis(degree)
    return BasisCombo(0.2, 0.2, basis=basis, coeffs=np.zeros(basis.size))


class TestFixedPointConfig:
    @pytest.mark.parametrize("lam", [-0.1, 1.0, 1.5])
    def test_relaxation_range(self, lam):
        with pytest.raises(ValueError):
            FixedPointConfig(lambda_a=lam)

    def test_positive_tolerance_and_budget(self):
        with pytest.raises(ValueError):
            FixedPointConfig(tol2=0.0)
        with pytest.raises(ValueError):
            FixedPointConfig(ell_max=0)


class TestSolveSemilinear:
    def test_zero_coefficients_give_poisson_solve(self):
        g = Grid(12, 1.0)
        op = NegLaplacian(g)
        rng = np.random.default_rng(0)
        eps = random_control(g, rng)
        y, report = solve_semilinear(op, zero_combo(), eps, FixedPointConfig())
        assert report.iterations == 1
        assert report.final_residual == 0.0
        assert report.converged
        assert np.array_equal(y, op.solve(eps))

    def test_zero_control_gives_zero_state(self):
        g = Grid(8, 1.0)
        bilinear = ClosedForm(0.2, 0.2, kind="bilinear")
        y, report = solve_semilinear(NegLaplacian(g), bilinear,
                                     np.zeros((2,) + g.shape), FixedPointConfig())
        assert np.all(y == 0.0)
        assert report.iterations == 1

    def test_manufactured_solution_single_grid(self):
        g = Grid(32, 1.0)
        eps = constructed_control(0.5, 1.0, 0.2, 0.2, g)
        y, report = solve_semilinear(NegLaplacian(g),
                                     ClosedForm(0.2, 0.2, kind="bilinear"),
                                     eps, FixedPointConfig())
        exact = np.stack([0.5 * g.sample_scalar(kappa), -g.sample_scalar(kappa)])
        assert report.converged
        assert l2_norm(g, y - exact) < 2e-3

    def test_manufactured_solution_rate(self):
        errs = {}
        for n in (16, 32):
            g = Grid(n, 1.0)
            eps = constructed_control(0.5, 1.0, 0.2, 0.2, g)
            y, _ = solve_semilinear(NegLaplacian(g),
                                    ClosedForm(0.2, 0.2, kind="bilinear"),
                                    eps, FixedPointConfig())
            exact = np.stack([0.5 * g.sample_scalar(kappa), -g.sample_scalar(kappa)])
            errs[n] = l2_norm(g, y - exact)
        assert 3.5 <= errs[16] / errs[32] <= 4.5

    @pytest.mark.parametrize("x_max", [0.5, 2.0])
    def test_manufactured_solution_rate_off_unit_square(self, x_max):
        # the constructed control follows the first mode of (-x_max, x_max)^2
        def mode(x1, x2):
            return (np.sin((x1 + x_max) * np.pi / (2.0 * x_max))
                    * np.sin((x2 + x_max) * np.pi / (2.0 * x_max)))

        errs = {}
        for n in (32, 64):
            g = Grid(n, x_max)
            eps = constructed_control(0.5, 1.0, 0.2, 0.2, g)
            y, _ = solve_semilinear(NegLaplacian(g),
                                    ClosedForm(0.2, 0.2, kind="bilinear"),
                                    eps, FixedPointConfig())
            exact = np.stack([0.5 * g.sample_scalar(mode), -g.sample_scalar(mode)])
            errs[n] = l2_norm(g, y - exact)
        assert 3.5 <= errs[32] / errs[64] <= 4.5

    def test_residual_decreases_in_reference_regime(self):
        g = Grid(16, 1.0)
        op = NegLaplacian(g)
        basis = MonomialBasis(2)
        rng = np.random.default_rng(1)
        for _ in range(5):
            coeffs = rng.uniform(0.0, 0.05, basis.size)
            nonlin = BasisCombo(0.2, 0.2, basis=basis, coeffs=coeffs)
            eps = random_control(g, rng)
            _, report = solve_semilinear(op, nonlin, eps, FixedPointConfig())
            assert report.converged
            hist = report.residual_history
            for a, b in zip(hist[1:], hist[2:]):
                assert b < a

    def test_non_convergence_reported_not_raised(self):
        g = Grid(8, 1.0)
        nonlin = ClosedForm(0.2, 0.2, kind="bilinear")
        eps = constructed_control(0.5, 1.0, 0.2, 0.2, g)
        y, report = solve_semilinear(NegLaplacian(g), nonlin, eps,
                                     FixedPointConfig(tol2=1e-30, ell_max=3))
        assert not report.converged
        assert report.iterations == 3
        assert np.all(np.isfinite(y))

    def test_blowup_raises(self):
        g = Grid(8, 1.0)
        nonlin = ClosedForm(0.2, 0.2, kind="exponential")
        eps = np.zeros((2,) + g.shape)
        eps[:, 1:-1, 1:-1] = 60.0
        with pytest.raises(NumericalError):
            solve_semilinear(NegLaplacian(g), nonlin, eps, FixedPointConfig())

    def test_linear_solve_residual_checked_once_solve_returns(self, monkeypatch):
        g = Grid(8, 1.0)
        op = NegLaplacian(g)
        eps = random_control(g, np.random.default_rng(3))
        exact = NegLaplacian.inverse_interior
        monkeypatch.setattr(NegLaplacian, "inverse_interior",
                            lambda self, b: (1.0 + 1e-6) * exact(self, b))
        with pytest.raises(NumericalError, match="residual"):
            solve_semilinear(op, ClosedForm(0.2, 0.2, kind="bilinear"), eps,
                             FixedPointConfig())

    def test_diverging_iterate_labelled_blow_up(self):
        # G = -200*y1 is far from monotone: the fixed point diverges
        # geometrically until the update norm overflows
        g = Grid(8, 1.0)
        basis = MonomialBasis(1)
        nonlin = BasisCombo(1.0, 1.0, basis=basis, coeffs=np.array([0.0, -200.0, 0.0]))
        eps = np.zeros((2,) + g.shape)
        eps[:, 1:-1, 1:-1] = 0.5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="blew up"):
                solve_semilinear(NegLaplacian(g), nonlin, eps, FixedPointConfig())

    def test_relaxation_converges_to_same_solution(self):
        g = Grid(12, 1.0)
        op = NegLaplacian(g)
        nonlin = ClosedForm(0.2, 0.2, kind="bilinear")
        eps = random_control(g, np.random.default_rng(2))
        y0, _ = solve_semilinear(op, nonlin, eps, FixedPointConfig(lambda_a=0.0))
        y5, _ = solve_semilinear(op, nonlin, eps,
                                 FixedPointConfig(lambda_a=0.5, ell_max=500))
        assert l2_norm(g, y0 - y5) < 1e-8


# coupling strengths gamma1 >= gamma2
gammas = st.tuples(st.floats(0.05, 3.0), st.floats(0.2, 1.0)).map(
    lambda t: (t[0], t[0] * t[1]))


class TestGivenPoissonPair:
    @pytest.mark.parametrize("stacked", [False, True])
    def test_given_y0_gives_the_same_bits_and_stays_unchanged(self, stacked):
        op = NegLaplacian(Grid(12, 1.0))
        rng = np.random.default_rng(21)
        eps = np.stack([random_control(op.grid, rng) for _ in range(3)])
        eps = eps if stacked else eps[0]
        basis = MonomialBasis(2)
        combo = BasisCombo(0.3, 0.2, basis=basis, coeffs=rng.uniform(0.0, 0.3, basis.size))
        cfg = FixedPointConfig(lambda_a=0.2)
        y, report = solve_semilinear(op, combo, eps, cfg)
        y0 = op.solve(eps)
        kept = y0.copy()
        again, again_report = solve_semilinear(op, combo, eps, cfg, y0)
        assert again.tobytes() == y.tobytes() and again.shape == y.shape
        assert np.array_equal(again_report.item_iterations, report.item_iterations)
        assert y0.tobytes() == kept.tobytes()

    def test_y0_must_have_the_shape_of_the_control(self):
        op = NegLaplacian(Grid(6, 1.0))
        eps = np.zeros((2, 2) + op.grid.shape)
        with pytest.raises(ValueError, match="shape"):
            solve_semilinear(op, zero_combo(), eps, FixedPointConfig(), op.solve(eps[0]))


def coupled_fixed_point(op, nonlin, eps, cfg):
    """Reference: the relaxed fixed point on both components of one item,
    L y~ = eps - g(y_l), with the coupled update norm h*||y_{l+1} - y_l||."""
    y = op.solve(eps)
    for ell in range(1, cfg.ell_max + 1):
        y_new = cfg.lambda_a * y + (1.0 - cfg.lambda_a) * op.solve(eps - nonlin.g(y))
        err = op.grid.h * float(np.linalg.norm((y_new - y).ravel()))
        y = y_new
        if err <= cfg.tol2:
            break
    return y, ell, err <= cfg.tol2


# monotone-leaning interactions for the forward solve: nonnegative monomial
# coefficients or a closed form, at gamma1 >= gamma2
forward_nonlinearities = st.one_of(
    st.builds(lambda gam, deg, seed: BasisCombo(
        *gam, basis=MonomialBasis(deg),
        coeffs=np.random.default_rng(seed).uniform(0.0, 1.0, MonomialBasis(deg).size)),
        gammas, st.integers(0, 3), st.integers(0, 2**32 - 1)),
    st.builds(lambda gam, kind: ClosedForm(*gam, kind=kind),
              gammas, st.sampled_from(["bilinear", "sinusoidal", "exponential"])),
)


def stacked_pair(basis, rows, gamma1=0.2, gamma2=0.1):
    """A row-stacked combo from coefficient vectors of any lengths."""
    width = max(len(r) for r in rows)
    coeffs = np.zeros((len(rows), width))
    for b, r in enumerate(rows):
        coeffs[b, :len(r)] = r
    return BasisCombo(gamma1, gamma2, basis=basis, coeffs=coeffs)


class TestReducedFixedPoint:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 24), nonlin=forward_nonlinearities,
           lam=st.sampled_from([0.0, 0.5]), seed=st.integers(0, 2**32 - 1))
    def test_matches_coupled_fixed_point(self, n, nonlin, lam, seed):
        g = Grid(n, 1.0)
        op = NegLaplacian(g)
        cfg = FixedPointConfig(lambda_a=lam)
        eps = random_control(g, np.random.default_rng(seed))
        # a draw outside the monotone class can diverge; then both must fail
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                ref, ref_iterations, ref_converged = coupled_fixed_point(op, nonlin, eps, cfg)
            diverged = not np.isfinite(ref).all()
        except NumericalError:
            diverged = True
        if diverged:
            with pytest.raises(NumericalError):
                solve_semilinear(op, nonlin, eps, cfg)
            return
        y, report = solve_semilinear(op, nonlin, eps, cfg)
        assert np.linalg.norm(y - ref) <= 1e-12 * np.linalg.norm(ref)
        assert report.iterations == ref_iterations
        assert report.converged == ref_converged

    def test_items_stop_on_their_own_test(self):
        g = Grid(16, 1.0)
        op = NegLaplacian(g)
        basis = MonomialBasis(2)
        rng = np.random.default_rng(11)
        controls = np.stack([s * random_control(g, rng) for s in (0.0, 0.01, 1.0, 5.0)])
        # no constant term, so the zero control converges at once
        combos = [BasisCombo(0.2, 0.1, basis=basis, coeffs=np.r_[0.0, rng.uniform(0, 1, 5)]),
                  stacked_pair(basis, [[0, 0.3], [0, 0, 1.0], [], np.r_[0.0, np.ones(5)]])]
        cfg = FixedPointConfig()
        for nonlin in combos:
            ys, report = solve_semilinear(op, nonlin, controls, cfg)
            assert ys.shape == controls.shape
            assert len(set(report.item_iterations)) > 1
            assert report.iterations == max(report.item_iterations)
            for b, eps in enumerate(controls):
                y, alone = solve_semilinear(op, nonlin.rows([b]), eps[None], cfg)
                assert np.array_equal(ys[b], y[0])
                assert report.item_iterations[b] == alone.iterations

    def test_single_item_and_stack_of_one_agree(self):
        g = Grid(12, 1.0)
        op = NegLaplacian(g)
        eps = random_control(g, np.random.default_rng(12))
        nonlin = ClosedForm(0.2, 0.2, kind="sinusoidal")
        y, report = solve_semilinear(op, nonlin, eps, FixedPointConfig())
        ys, stacked = solve_semilinear(op, nonlin, eps[None], FixedPointConfig())
        assert y.shape == eps.shape and np.array_equal(ys[0], y)
        assert report.residual_history == stacked.residual_history

    def test_blow_up_in_a_stack_keeps_its_label(self):
        g = Grid(8, 1.0)
        op = NegLaplacian(g)
        basis = MonomialBasis(1)
        nonlin = stacked_pair(basis, [[0.0, 0.5], [0.0, -200.0]], 1.0, 1.0)
        eps = np.zeros((2, 2) + g.shape)
        eps[:, :, 1:-1, 1:-1] = 0.5
        messages = []
        for rows in ([1], [0, 1]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NumericalError, match="blew up") as info:
                    solve_semilinear(op, nonlin.rows(rows), eps[rows], FixedPointConfig())
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    def test_stall_in_a_stack_is_reported(self):
        g = Grid(8, 1.0)
        op = NegLaplacian(g)
        nonlin = ClosedForm(0.2, 0.2, kind="bilinear")
        eps = np.stack([np.zeros((2,) + g.shape),
                        constructed_control(0.5, 1.0, 0.2, 0.2, g)])
        cfg = FixedPointConfig(tol2=1e-12, ell_max=3)
        ys, report = solve_semilinear(op, nonlin, eps, cfg)
        y, alone = solve_semilinear(op, nonlin, eps[1], cfg)
        assert not report.converged and not alone.converged
        assert list(report.item_iterations) == [1, 3]
        assert report.final_residual == alone.final_residual
        assert np.array_equal(ys[1], y) and np.all(ys[0] == 0.0)

    def test_non_finite_nonlinearity_in_a_stack_names_its_node(self):
        g = Grid(8, 1.0)
        op = NegLaplacian(g)
        nonlin = ClosedForm(0.2, 0.2, kind="exponential")
        eps = np.zeros((3, 2) + g.shape)
        eps[2, :, 1:-1, 1:-1] = 60.0
        messages = []
        for items in ([2], [0, 1, 2]):
            with pytest.raises(NumericalError) as info:
                solve_semilinear(op, nonlin, eps[items], FixedPointConfig())
            messages.append(str(info.value))
        assert messages[0] == messages[1]


def full_field_fixed_point(op, nonlin, eps, cfg):
    """Reference: the stacked reduced fixed point with g evaluated on the
    full fields, boundary ring included, and the rhs ring holding
    eps1 - gamma1 G(0, 0).  Returns the states, each item's iteration count,
    its last update norm and the history, as solve_semilinear reports them."""
    stack = eps if eps.ndim == 4 else eps[None]
    count = len(stack)
    ratio = nonlin.gamma2 / nonlin.gamma1
    scale = op.grid.h * np.sqrt(1.0 + ratio * ratio)
    y0 = op.solve(stack)
    states = y0
    iterations, final, history = np.zeros(count, dtype=int), np.zeros(count), []
    items, item_nonlin = np.arange(count), nonlin
    y, eps1, base = y0.copy(), stack[:, 0], y0
    for ell in range(1, cfg.ell_max + 1):
        rhs = eps1 - item_nonlin.g(y)[:, 0]
        sol = op.solve(rhs)
        y1 = cfg.lambda_a * y[:, 0] + (1.0 - cfg.lambda_a) * sol
        with np.errstate(over="ignore", invalid="ignore"):
            step = y1 - y[:, 0]
            err = scale * np.sqrt(_item_dots(step, step))
        if not np.isfinite(err).all():
            raise NumericalError(f"fixed-point iterate blew up at iteration {ell}")
        history.append(float(err.max()))
        y[:, 0] = y1
        y[:, 1] = base[:, 1] - ratio * (y1 - base[:, 0])
        done = (err <= cfg.tol2) | (ell == cfg.ell_max)
        if done.any():
            stopped = items[done]
            states[stopped] = y[done]
            iterations[stopped] = ell
            final[stopped] = err[done]
            if done.all():
                break
            going = ~done
            items, y, eps1, base = items[going], y[going], eps1[going], base[going]
            item_nonlin = nonlin.rows(items)
    return (states if eps.ndim == 4 else states[0]), iterations, final, history


class TestInteriorNonlinearity:
    """solve_semilinear evaluates g on grid rows 1..n-1 only; every state,
    count and norm keeps the bits of the loop that evaluated it everywhere."""

    def assert_same_solve(self, op, nonlin, eps, cfg):
        y, report = solve_semilinear(op, nonlin, eps, cfg)
        ref, iterations, final, history = full_field_fixed_point(op, nonlin, eps, cfg)
        assert same_bits(y, ref)
        assert np.array_equal(report.item_iterations, iterations)
        assert report.final_residual == float(np.max(final))
        assert report.residual_history == history
        return report

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 20), nonlin=forward_nonlinearities,
           lam=st.sampled_from([0.0, 0.5]), items=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_same_bits_as_the_full_field_loop(self, n, nonlin, lam, items, seed):
        op = NegLaplacian(Grid(n, 1.0))
        rng = np.random.default_rng(seed)
        eps = np.stack([random_control(op.grid, rng) for _ in range(items)])
        cfg = FixedPointConfig(lambda_a=lam)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                full_field_fixed_point(op, nonlin, eps, cfg)
        except NumericalError as exc:
            # a draw outside the monotone class fails the same way in both
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(NumericalError, match=re.escape(str(exc))):
                    solve_semilinear(op, nonlin, eps, cfg)
            return
        self.assert_same_solve(op, nonlin, eps, cfg)
        self.assert_same_solve(op, nonlin, eps[0], cfg)

    def test_constant_term_and_a_stack_that_compacts(self):
        op = NegLaplacian(Grid(16, 1.0))
        basis = MonomialBasis(3)
        rng = np.random.default_rng(31)
        controls = np.stack([s * random_control(op.grid, rng) for s in (0.0, 0.05, 1.0, 3.0)])
        # the constant term made the old rhs ring -gamma1*a00, which no
        # solve read
        shared = BasisCombo(1.0, 0.1, basis=basis, coeffs=np.r_[0.02, rng.uniform(0, 1, 9)])
        stacked = stacked_pair(basis, [[0.5, 0.3], [0, 0, 1.0], [], np.r_[-0.2, np.ones(9)]],
                               1.0, 0.1)
        for nonlin in (shared, stacked):
            report = self.assert_same_solve(op, nonlin, controls, FixedPointConfig())
            # items stop at different loops, so the stack compacts
            assert len(set(report.item_iterations)) > 1

    def test_overflow_names_the_same_grid_node(self):
        op = NegLaplacian(Grid(8, 1.0))
        nonlin = ClosedForm(0.2, 0.2, kind="exponential")
        eps = np.zeros((3, 2) + op.grid.shape)
        eps[1, :, 1:-1, 1:-1] = 0.5
        eps[2, :, 1:-1, 1:-1] = 60.0
        messages = []
        for solve in (solve_semilinear, full_field_fixed_point):
            with pytest.raises(NumericalError, match=r"component \d, node \(\d, \d\)") as info:
                solve(op, nonlin, eps, FixedPointConfig())
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert "node (0" not in messages[0] and ", 0)" not in messages[0]

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_pocketfft_mesh_with_an_item_that_stops_first(self, lam):
        # n = 128 solves by pocketfft's transform: the iterate taken as the
        # solve itself, the y2 update in place and the in-place transform
        op = NegLaplacian(Grid(128, 1.0))
        rng = np.random.default_rng(41)
        eps = np.stack([s * random_control(op.grid, rng) for s in (0.05, 1.0)])
        nonlin = ClosedForm(0.3, 0.2, kind="sinusoidal")
        report = self.assert_same_solve(op, nonlin, eps, FixedPointConfig(lambda_a=lam))
        assert report.item_iterations[0] < report.item_iterations[1]

    @pytest.mark.parametrize("n", [16, 128])
    def test_zero_and_negative_items_keep_the_signed_zeros(self, n):
        # 0.0 * y is -0.0 on a negative state, and pocketfft solves zero
        # data to -0.0 on most nodes
        op = NegLaplacian(Grid(n, 1.0))
        rng = np.random.default_rng(n)
        zeros = np.zeros((2,) + op.grid.shape)
        eps = np.stack([zeros, signed_zeros(rng, zeros, 0.5),
                        -np.abs(random_control(op.grid, rng))])
        basis = MonomialBasis(2)
        for nonlin in (ClosedForm(0.3, 0.2, kind="bilinear"),
                       BasisCombo(0.3, 0.2, basis=basis, coeffs=rng.uniform(0, 1, basis.size))):
            self.assert_same_solve(op, nonlin, eps, FixedPointConfig())

    def test_negative_zeros_of_a_solve_meet_a_positive_zero_iterate(self):
        # at lambda_a = 0 the formula gives 0.0 * (+0.0) + 1.0 * (-0.0) = +0.0,
        # so a solve with interior zeros is not taken as the iterate
        op = NegLaplacian(Grid(128, 1.0))
        zeros = np.zeros((2,) + op.grid.shape)
        assert np.any(np.signbit(op.solve(zeros)))
        y, report = solve_semilinear(op, ClosedForm(0.3, 0.2, kind="bilinear"), zeros,
                                     FixedPointConfig(), zeros)
        assert report.iterations == 1 and not np.any(np.signbit(y))


class TestSolveAdjoint:
    def test_zero_jacobian_reduces_to_poisson(self):
        g = Grid(10, 1.0)
        op = NegLaplacian(g)
        rng = np.random.default_rng(3)
        state = random_control(g, rng)
        rhs = random_control(g, rng)
        q = solve_adjoint(op, zero_combo(), state, rhs)
        assert np.allclose(q, op.solve(rhs), atol=1e-12)

    def test_zero_rhs(self):
        g = Grid(8, 1.0)
        state = random_control(g, np.random.default_rng(4))
        q = solve_adjoint(NegLaplacian(g), ClosedForm(0.2, 0.2, kind="bilinear"),
                          state, np.zeros((2,) + g.shape))
        assert np.all(q == 0.0)

    def test_solves_transposed_coupled_system(self):
        # residual check through the pointwise Jacobian-transpose action
        g = Grid(12, 1.0)
        op = NegLaplacian(g)
        nonlin = ClosedForm(0.2, 0.2, kind="sinusoidal")
        rng = np.random.default_rng(5)
        state = random_control(g, rng)
        rhs = random_control(g, rng)
        q = solve_adjoint(op, nonlin, state, rhs)
        coupled = coupled_action(op, nonlin, state, q, transpose=True)
        assert l2_norm(g, coupled - rhs) / l2_norm(g, rhs) < 1e-9


def assume_definite(op, nonlin, state):
    """Keep examples whose scalar operator L + diag(c) is safely SPD."""
    d1, d2 = nonlin.dG(state[0, 1:-1, 1:-1], state[1, 1:-1, 1:-1])
    c = nonlin.gamma1 * d1 - nonlin.gamma2 * d2
    assume(np.min(c) > -0.9 * op.eigenvalues[0, 0])


def coupled_action(op, nonlin, state, v, transpose):
    """(L + J) v or (L + J^T) v from the stencil and the pointwise Jacobian."""
    jac = nonlin.jacobian(state[0], state[1])
    if transpose:
        jac = jac.transpose(1, 0, 2, 3)
    out = op.apply(v) + np.einsum("ij...,j...->i...", jac, v)
    out[:, [0, -1], :] = 0.0
    out[:, :, [0, -1]] = 0.0
    return out


# random interactions for the reduced adjoint: monomial combinations with
# coefficients of either sign, or one of the closed forms, at gamma1 >= gamma2
nonlinearities = st.one_of(
    st.builds(lambda gam, deg, seed: BasisCombo(
        *gam, basis=MonomialBasis(deg),
        coeffs=np.random.default_rng(seed).uniform(
            -0.5, 1.0, MonomialBasis(deg).size)),
        gammas, st.integers(0, 4), st.integers(0, 2**32 - 1)),
    st.builds(lambda gam, kind: ClosedForm(*gam, kind=kind),
              gammas, st.sampled_from(["bilinear", "sinusoidal", "exponential"])),
)


class TestReducedAdjoint:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 24), nonlin=nonlinearities, seed=st.integers(0, 2**32 - 1))
    def test_matches_coupled_sparse_direct(self, n, nonlin, seed):
        g = Grid(n, 1.0)
        op = NegLaplacian(g)
        rng = np.random.default_rng(seed)
        state = 0.5 * random_control(g, rng)
        assume_definite(op, nonlin, state)
        rhs = random_control(g, rng)
        q = solve_adjoint(op, nonlin, state, rhs)
        mat = coupled_linear_matrix(op, nonlin, state, transpose=True)
        ref = spla.spsolve(mat.tocsc(), rhs[:, 1:-1, 1:-1].reshape(-1))
        got = q[:, 1:-1, 1:-1].reshape(-1)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
        assert np.all(q[:, [0, -1], :] == 0.0) and np.all(q[:, :, [0, -1]] == 0.0)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(3, 20), nonlin=nonlinearities, seed=st.integers(0, 2**32 - 1))
    def test_duality_with_linearized_forward_operator(self, n, nonlin, seed):
        # <(L + J^T) q, v> = <q, (L + J) v>, and with q the adjoint solution
        # of rhs b the left side is <b, v>
        g = Grid(n, 1.0)
        op = NegLaplacian(g)
        rng = np.random.default_rng(seed)
        state = 0.5 * random_control(g, rng)
        assume_definite(op, nonlin, state)
        q = random_control(g, rng)
        v = random_control(g, rng)
        lhs = inner_l2(g, coupled_action(op, nonlin, state, q, True), v)
        rhs = inner_l2(g, q, coupled_action(op, nonlin, state, v, False))
        scale = inner_l2(g, np.abs(coupled_action(op, nonlin, state, q, True)), np.abs(v))
        assert abs(lhs - rhs) <= 1e-12 * scale
        b = random_control(g, rng)
        adj = solve_adjoint(op, nonlin, state, b)
        forward_v = coupled_action(op, nonlin, state, v, False)
        scale = inner_l2(g, np.abs(b), np.abs(v))
        assert abs(inner_l2(g, b, v) - inner_l2(g, adj, forward_v)) <= 1e-9 * scale

    def test_indefinite_linearization_raises(self):
        # c = gamma1 * dG/dy1 = 0.2 * (-30) = -6 lies below -lambda_min(L),
        # about -pi^2/2, so the scalar operator is indefinite; the first
        # search direction from the smoothest mode has negative curvature
        g = Grid(16, 1.0)
        basis = MonomialBasis(1)
        coeffs = np.zeros(basis.size)
        coeffs[basis.position_of((1, 0))] = -30.0
        nonlin = BasisCombo(0.2, 0.2, basis=basis, coeffs=coeffs)
        rhs = np.stack([g.sample_scalar(kappa), g.zero_scalar()])
        with pytest.raises(NumericalError, match="indefinite linearization"):
            solve_adjoint(NegLaplacian(g), nonlin, g.zero_field(), rhs)

    def test_monotone_counterpart_still_solves(self):
        g = Grid(16, 1.0)
        op = NegLaplacian(g)
        basis = MonomialBasis(1)
        coeffs = np.zeros(basis.size)
        coeffs[basis.position_of((1, 0))] = 30.0
        nonlin = BasisCombo(0.2, 0.2, basis=basis, coeffs=coeffs)
        rhs = np.stack([g.sample_scalar(kappa), g.zero_scalar()])
        q = solve_adjoint(op, nonlin, g.zero_field(), rhs)
        residual = coupled_action(op, nonlin, g.zero_field(), q, True) - rhs
        assert l2_norm(g, residual) <= 1e-9 * l2_norm(g, rhs)

    def test_non_finite_linearization_raises(self):
        g = Grid(8, 1.0)
        state = np.zeros((2,) + g.shape)
        state[:, 3, 3] = 400.0
        rhs = random_control(g, np.random.default_rng(9))
        with pytest.raises(NumericalError, match="non-finite"):
            solve_adjoint(NegLaplacian(g), ClosedForm(0.2, 0.2, kind="exponential"),
                          state, rhs)


class TestStackedAdjoint:
    def test_items_bit_identical_to_solves_alone(self):
        g = Grid(16, 1.0)
        op = NegLaplacian(g)
        basis = MonomialBasis(2)
        rng = np.random.default_rng(21)
        states = np.stack([0.5 * random_control(g, rng) for _ in range(4)])
        rhs = np.stack([random_control(g, rng), np.zeros((2,) + g.shape),
                        1e-6 * random_control(g, rng), random_control(g, rng)])
        combos = [ClosedForm(0.3, 0.2, kind="sinusoidal"),
                  stacked_pair(basis, [[0.1, 0.2], [0, 0, 0, 1.0], [], rng.uniform(0, 1, 6)],
                               0.3, 0.2)]
        for nonlin in combos:
            q = solve_adjoint(op, nonlin, states, rhs)
            assert q.shape == rhs.shape and np.all(q[1] == 0.0)
            for b in range(len(rhs)):
                alone = solve_adjoint(op, nonlin.rows([b]), states[b:b + 1], rhs[b:b + 1])
                assert np.array_equal(q[b], alone[0])

    def indefinite_pair(self, g):
        basis = MonomialBasis(1)
        pos = basis.position_of((1, 0))
        rows = np.zeros((2, basis.size))
        rows[0, pos], rows[1, pos] = 30.0, -30.0
        rhs = np.stack([g.sample_scalar(kappa), g.zero_scalar()])
        return BasisCombo(0.2, 0.2, basis=basis, coeffs=rows), np.stack([rhs, rhs])

    def test_indefinite_item_keeps_its_label(self):
        g = Grid(16, 1.0)
        op = NegLaplacian(g)
        nonlin, rhs = self.indefinite_pair(g)
        states = np.zeros_like(rhs)
        messages = []
        for rows in ([1], [0, 1]):
            with pytest.raises(NumericalError, match="indefinite linearization") as info:
                solve_adjoint(op, nonlin.rows(rows), states[rows], rhs[rows])
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        # the monotone row alone solves
        assert np.all(np.isfinite(solve_adjoint(op, nonlin.rows([0]), states[:1], rhs[:1])))

    def test_non_finite_linearization_item_keeps_its_label(self):
        g = Grid(8, 1.0)
        op = NegLaplacian(g)
        nonlin = ClosedForm(0.2, 0.2, kind="exponential")
        states = np.zeros((2, 2) + g.shape)
        states[1, :, 3, 3] = 400.0
        rhs = np.stack([random_control(g, np.random.default_rng(s)) for s in (9, 10)])
        for items in ([1], [0, 1]):
            with pytest.raises(NumericalError, match="non-finite linearization"):
                solve_adjoint(op, nonlin, states[items], rhs[items])
        # a zero right-hand side does not exempt an item from linearization
        rhs[1] = 0.0
        with pytest.raises(NumericalError, match="non-finite linearization"):
            solve_adjoint(op, nonlin, states, rhs)


class TestWellposednessProbes:
    def test_solution_bound_proxy(self):
        # ||y||_Y stays within a fixed multiple of ||eps||_L2
        g = Grid(16, 1.0)
        op = NegLaplacian(g)
        nonlin = ClosedForm(0.2, 0.2, kind="bilinear")
        rng = np.random.default_rng(6)
        for _ in range(20):
            eps = random_control(g, rng)
            y, _ = solve_semilinear(op, nonlin, eps, FixedPointConfig())
            assert laplace_norm(op, y) <= 10.0 * l2_norm(g, eps)

    def test_control_to_state_lipschitz_probe(self):
        g = Grid(16, 1.0)
        op = NegLaplacian(g)
        nonlin = ClosedForm(0.2, 0.2, kind="bilinear")
        cfg = FixedPointConfig()
        rng = np.random.default_rng(7)
        ratios = []
        for _ in range(50):
            e1 = random_control(g, rng)
            e2 = random_control(g, rng)
            y1, _ = solve_semilinear(op, nonlin, e1, cfg)
            y2, _ = solve_semilinear(op, nonlin, e2, cfg)
            ratios.append(laplace_norm(op, y1 - y2) / l2_norm(g, e1 - e2))
        ratios = np.array(ratios)
        assert np.all(np.isfinite(ratios))
        # empirical boundedness: the spread stays narrow over the sample
        assert ratios.max() <= 5.0 * np.median(ratios)
