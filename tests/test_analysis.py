import numpy as np
import pytest

from greedyrecon import (
    ClosedForm,
    ControlBox,
    Grid,
    IdentificationObjective,
    NumericalError,
    OptimConfig,
    SolverContext,
    collinearity,
    constructed_control,
    error_field,
    error_values,
    generate_data,
    identify,
    landscape_scan,
    random_constant_controls,
    slice_hessian,
    solution_sets,
    stability_probe,
    taylor_error_table,
)

from greedyrecon import analysis

from conftest import constant_control, kappa, make_context, random_control, same_bits


@pytest.fixture(scope="module")
def ctx():
    return make_context(n=16, degree=2)


class TestGenerateData:
    def test_zero_coefficients_give_poisson_solves(self, ctx):
        rng = np.random.default_rng(0)
        controls = [random_control(ctx.grid, rng) for _ in range(2)]
        data = generate_data(ctx.combo(np.zeros(6)), controls, ctx)
        for eps, d in zip(controls, data):
            assert np.array_equal(d, ctx.op.solve(eps))

    def test_closed_form_equals_in_span_combo(self, ctx):
        rng = np.random.default_rng(1)
        controls = [random_control(ctx.grid, rng)]
        closed = ClosedForm(0.2, 0.2, kind="bilinear")
        alpha = np.zeros(6)
        alpha[ctx.basis.position_of((1, 1))] = 0.05
        d1 = generate_data(closed, controls, ctx)
        d2 = generate_data(ctx.combo(alpha), controls, ctx)
        assert np.allclose(d1[0], d2[0], atol=1e-14)

    def test_zero_controls_zero_data(self, ctx):
        controls = [np.zeros((2,) + ctx.grid.shape)]
        data = generate_data(ClosedForm(0.2, 0.2, kind="bilinear"), controls, ctx)
        assert np.all(data[0] == 0.0)


class TestIdentify:
    def test_constant_truth_matches_grid_search(self):
        ctx = make_context(n=8, degree=0)
        rng = np.random.default_rng(2)
        controls = [random_control(ctx.grid, rng) for _ in range(2)]
        truth = ctx.combo(np.array([0.37]))
        data = generate_data(truth, controls, ctx)
        alpha, value, _ = identify(controls, data, ctx,
                                   OptimConfig(grad_tol=1e-12),
                                   alpha_max=1.0, seed=0)
        obj = IdentificationObjective(ctx, controls, data)
        grid = np.arange(0.0, 1.0 + 1e-12, 0.01)
        best = grid[int(np.argmin([obj(np.array([b]), False).value for b in grid]))]
        assert abs(alpha[0] - best) <= 0.01
        assert abs(alpha[0] - 0.37) <= 1e-4
        assert value <= 1e-12

    def test_zero_controls_zero_alpha_optimal(self, ctx):
        controls = [np.zeros((2,) + ctx.grid.shape)]
        data = [np.zeros((2,) + ctx.grid.shape)]
        alpha, value, _ = identify(controls, data, ctx,
                                   OptimConfig(grad_tol=1e-10),
                                   alpha_max=1.0, seed=0)
        # zero coefficients reproduce the zero data exactly
        obj = IdentificationObjective(ctx, controls, data)
        assert obj(np.zeros(6), False).value == 0.0
        assert value <= 1e-20

    def test_restriction_inequality(self, ctx):
        rng = np.random.default_rng(3)
        controls = [random_control(ctx.grid, rng) for _ in range(2)]
        data = generate_data(ClosedForm(0.2, 0.2, kind="sinusoidal"), controls, ctx)
        alpha, value, _ = identify(controls, data, ctx,
                                   OptimConfig(grad_tol=1e-10),
                                   alpha_max=1.0, seed=1)
        obj = IdentificationObjective(ctx, controls, data)
        assert 0.0 <= value <= obj(np.zeros(6), False).value

    def test_k_restriction_pins_tail(self, ctx):
        rng = np.random.default_rng(4)
        controls = [random_control(ctx.grid, rng)]
        data = generate_data(ClosedForm(0.2, 0.2, kind="bilinear"), controls, ctx)
        alpha, _, _ = identify(controls, data, ctx,
                               OptimConfig(grad_tol=1e-10),
                               alpha_max=1.0, seed=0, k=2)
        assert np.all(alpha[2:] == 0.0)

    def test_every_start_failing_raises_the_first_starts_error(self, ctx, monkeypatch):
        class Failing:
            def __init__(self, *args):
                pass

            def __call__(self, x, *args):
                raise NumericalError("zero start" if not x.any() else "random start")

        monkeypatch.setattr(analysis, "IdentificationObjective", Failing)
        controls = [random_control(ctx.grid, np.random.default_rng(5))]
        with pytest.raises(NumericalError, match="^zero start$"):
            identify(controls, controls, ctx, OptimConfig(), alpha_max=1.0, seed=0)


class TestSolutionSets:
    def test_zero_state_degenerates_to_widened_square(self, ctx):
        states = [np.zeros((2,) + ctx.grid.shape)]
        sets, (center, side) = solution_sets(states)
        assert len(sets) == 1
        assert sets[0].points.shape == ((ctx.grid.n + 1) ** 2, 2)
        assert center == (0.0, 0.0)
        assert side == 1e-6

    def test_scaled_mode_states_are_collinear(self, ctx):
        eta, theta = 0.5, 1.0
        field = np.stack([eta * ctx.grid.sample_scalar(kappa),
                          -theta * ctx.grid.sample_scalar(kappa)])
        sets, _ = solution_sets([field])
        assert collinearity(sets[0].points) <= 1e-12
        # points live on the segment towards (eta, -theta)
        pts = sets[0].points
        assert np.all(pts[:, 0] >= -1e-12) and np.all(pts[:, 1] <= 1e-12)
        mask = np.abs(pts[:, 0]) > 1e-9
        slopes = pts[mask, 1] / pts[mask, 0]
        assert np.allclose(slopes, -theta / eta, atol=1e-9)

    def test_square_geometry(self, ctx):
        state = np.zeros((2,) + ctx.grid.shape)
        state[0, 3, 3] = 1.0
        state[1, 5, 5] = -2.0
        _, (center, side) = solution_sets([state])
        assert center == (0.5, -1.0)
        assert side == 2.0

    def test_collinearity_extremes(self):
        line = np.stack([np.linspace(0, 1, 50), np.linspace(0, -2, 50)], axis=1)
        assert collinearity(line) <= 1e-14
        rng = np.random.default_rng(5)
        blob = rng.standard_normal((500, 2))
        assert collinearity(blob) > 0.5


class TestErrorField:
    def test_exact_representation_vanishes(self, ctx):
        alpha = np.zeros(6)
        alpha[ctx.basis.position_of((1, 1))] = 0.05
        truth = ClosedForm(0.2, 0.2, kind="bilinear")
        ef = error_field(truth, alpha, ctx.basis, ((0.0, 0.0), 2.0), m=31)
        assert np.max(np.abs(ef.samples)) <= 1e-15

    def test_zero_reconstruction_shows_truth(self, ctx):
        truth = ClosedForm(0.2, 0.2, kind="bilinear")
        ef = error_field(truth, np.zeros(6), ctx.basis, ((0.0, 0.0), 2.0), m=21)
        g1, g2 = np.meshgrid(ef.y1, ef.y2, indexing="ij")
        assert np.allclose(ef.samples, 0.05 * g1 * g2)

    def test_restriction_inequality_on_subsets(self, ctx):
        truth = ClosedForm(0.2, 0.2, kind="sinusoidal")
        rng = np.random.default_rng(6)
        alpha = rng.uniform(0, 0.2, 6)
        ef = error_field(truth, alpha, ctx.basis, ((0.0, 0.0), 2.0), m=41)
        pts = np.stack([g.ravel() for g in
                        np.meshgrid(ef.y1[5:20], ef.y2[5:20], indexing="ij")], axis=1)
        sub = np.max(np.abs(error_values(truth, alpha, ctx.basis,
                                         pts[:, 0], pts[:, 1])))
        assert sub <= np.max(np.abs(ef.samples)) + 1e-15

    def test_consistency_with_pointwise_values(self, ctx):
        truth = ClosedForm(0.2, 0.2, kind="exponential")
        alpha = np.full(6, 0.01)
        ef = error_field(truth, alpha, ctx.basis, ((0.1, -0.2), 1.5), m=11)
        direct = error_values(truth, alpha, ctx.basis, ef.y1[3], ef.y2[7])
        assert ef.samples[3, 7] == direct

    def test_minimum_lattice(self, ctx):
        with pytest.raises(ValueError):
            error_field(ClosedForm(0.2, 0.2, kind="bilinear"), np.zeros(6),
                        ctx.basis, ((0.0, 0.0), 1.0), m=1)


class TestConstructedControl:
    def test_degenerate_parameters_give_zero(self, ctx):
        eps = constructed_control(0.0, 0.0, 0.2, 0.2, ctx.grid)
        assert np.all(eps == 0.0)

    def test_center_values(self):
        # kappa = 1 at the origin, so the formula collapses to closed form
        grid = make_context(n=16, degree=1).grid
        eta, theta, g1, g2 = 0.5, 1.0, 0.2, 0.3
        eps = constructed_control(eta, theta, g1, g2, grid)
        i = grid.n // 2
        assert eps[0, i, i] == pytest.approx(eta * np.pi**2 / 2 - 0.05 * g1 * eta * theta)
        assert eps[1, i, i] == pytest.approx(-theta * np.pi**2 / 2 + 0.05 * g2 * eta * theta)

    def test_boundary_ring_zero(self, ctx):
        eps = constructed_control(0.5, 1.0, 0.2, 0.2, ctx.grid)
        assert np.all(eps[:, 0, :] == 0.0) and np.all(eps[:, :, -1] == 0.0)

    @pytest.mark.parametrize("x_max", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", [8, 128])
    def test_same_bits_as_sampling_each_component(self, n, x_max):
        # one meshgrid and one kappa for both components
        grid = Grid(n, x_max)
        X = x_max
        lam = np.pi**2 / (2.0 * X**2)

        def kappa_X(x1, x2):
            return (np.sin((x1 + X) * np.pi / (2.0 * X))
                    * np.sin((x2 + X) * np.pi / (2.0 * X)))

        for eta, theta, g1, g2 in [(0.5, 1.0, 0.2, 0.3), (-0.7, 0.25, 1.0, 0.05)]:
            def eps1(x1, x2):
                k = kappa_X(x1, x2)
                return eta * lam * k - 0.05 * g1 * eta * theta * k**2

            def eps2(x1, x2):
                k = kappa_X(x1, x2)
                return -theta * lam * k + 0.05 * g2 * eta * theta * k**2

            got = constructed_control(eta, theta, g1, g2, grid)
            assert same_bits(got, grid.sample_field(eps1, eps2))


class TestRandomConstantControls:
    def test_seeded_reproducibility(self, ctx):
        box = ControlBox((-1.0, -1.0), (1.0, 1.0))
        a = random_constant_controls(5, box, ctx.grid, seed=9)
        b = random_constant_controls(5, box, ctx.grid, seed=9)
        c = random_constant_controls(5, box, ctx.grid, seed=10)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert not np.array_equal(a[0], c[0])

    @pytest.mark.parametrize("mode", ["diagonal", "independent"])
    def test_within_box_and_constant(self, ctx, mode):
        box = ControlBox((-0.5, -1.0), (0.25, 1.0))
        controls = random_constant_controls(8, box, ctx.grid, seed=3, mode=mode)
        for eps in controls:
            assert box.contains(eps)
            inner = eps[:, 1:-1, 1:-1]
            assert np.ptp(inner[0]) == 0.0 and np.ptp(inner[1]) == 0.0
            if mode == "diagonal":
                assert inner[0, 0, 0] == inner[1, 0, 0]

    def test_diagonal_needs_overlapping_bounds(self, ctx):
        box = ControlBox((0.5, -1.0), (1.0, 0.25))
        with pytest.raises(ValueError, match="equal-component"):
            random_constant_controls(3, box, ctx.grid, seed=0, mode="diagonal")
        random_constant_controls(3, box, ctx.grid, seed=0, mode="independent")

    def test_solution_sets_nearly_collinear(self, ctx):
        # per-set collinearity holds in both modes; the union is one line
        # only for the equal-component design
        box = ControlBox((-1.0, -1.0), (1.0, 1.0))
        truth = ClosedForm(0.2, 0.2, kind="bilinear")
        unions = {}
        for mode in ("diagonal", "independent"):
            controls = random_constant_controls(6, box, ctx.grid, seed=1, mode=mode)
            states = generate_data(truth, controls, ctx)
            sets, _ = solution_sets(states)
            assert max(collinearity(s.points) for s in sets) <= 0.05
            unions[mode] = collinearity(np.concatenate([s.points for s in sets]))
        assert unions["diagonal"] <= 0.05
        assert unions["independent"] > 0.05


class TestLandscape:
    def test_single_cell_matches_identification_value(self, ctx):
        rng = np.random.default_rng(7)
        controls = [random_control(ctx.grid, rng) for _ in range(2)]
        data = generate_data(ClosedForm(0.2, 0.2, kind="bilinear"), controls, ctx)
        alpha = rng.uniform(0, 0.2, 6)
        scan = landscape_scan(controls, data, ctx, alpha, (4, 3),
                              [alpha[4]], [alpha[3]])
        obj = IdentificationObjective(ctx, controls, data)
        assert scan.values[0, 0] == obj(alpha, False).value

    def test_in_span_truth_attains_zero_minimum(self, ctx):
        rng = np.random.default_rng(8)
        controls = [random_control(ctx.grid, rng) for _ in range(2)]
        pos = ctx.basis.position_of((1, 1))
        alpha_star = np.zeros(6)
        alpha_star[pos] = 0.05
        data = generate_data(ctx.combo(alpha_star), controls, ctx)
        lattice = np.array([0.0, 0.05, 0.5])
        scan = landscape_scan(controls, data, ctx, alpha_star,
                              (pos, ctx.basis.position_of((2, 0))),
                              lattice, np.array([0.0, 0.3]))
        assert scan.values[1, 0] == 0.0
        assert np.nanmin(scan.values) == 0.0

    def test_failed_cells_marked_nan(self, ctx):
        # gigantic coefficients break the fixed-point contraction
        rng = np.random.default_rng(9)
        controls = [constant_control(ctx.grid, (1.0, -1.0))]
        data = generate_data(ClosedForm(0.2, 0.2, kind="bilinear"), controls, ctx)
        scan = landscape_scan(controls, data, ctx, np.zeros(6), (4, 3),
                              np.array([0.0, 1e8]), np.array([0.0]))
        assert np.isfinite(scan.values[0, 0])
        assert np.isnan(scan.values[1, 0])

    def test_bad_index_pair_rejected(self, ctx):
        with pytest.raises(ValueError):
            landscape_scan([], [], ctx, np.zeros(6), (0, 0), [0.0], [0.0])


class TestSliceHessian:
    def test_positive_definite_at_in_span_minimum(self, ctx):
        rng = np.random.default_rng(10)
        controls = [random_control(ctx.grid, rng) for _ in range(3)]
        pos = ctx.basis.position_of((1, 1))
        alpha_star = np.zeros(6)
        alpha_star[pos] = 0.05
        data = generate_data(ctx.combo(alpha_star), controls, ctx)
        hess = slice_hessian(controls, data, ctx, alpha_star,
                             (pos, ctx.basis.position_of((2, 0))), step=1e-3)
        eigs = np.linalg.eigvalsh(hess)
        assert eigs[0] > 0.0


class TestTaylorErrorTable:
    def test_perfect_recovery_is_zero(self, ctx):
        alpha = np.zeros(6)
        alpha[ctx.basis.position_of((1, 1))] = 0.05
        table = taylor_error_table("bilinear", alpha, ctx.basis)
        assert all(err == 0.0 for _, _, err in table.values())

    def test_exponential_origin_entry(self, ctx):
        table = taylor_error_table("exponential", np.zeros(6), ctx.basis)
        truth, ident, err = table[(0, 0)]
        assert truth == pytest.approx(0.01)
        assert ident == 0.0
        assert err == pytest.approx(0.01)

    def test_out_of_basis_monomials_counted_as_zero(self, ctx):
        table = taylor_error_table("exponential", np.zeros(6), ctx.basis, d=3)
        truth, ident, err = table[(3, 3)]
        assert ident == 0.0
        assert err == truth


class TestStabilityProbe:
    def test_ratio_families_bounded(self, ctx):
        control = constant_control(ctx.grid, (0.5, 0.5))
        stats = stability_probe(ctx, k=3, samples=30, seed=0, control=control)
        assert stats.samples_used >= 25
        for family in (stats.h1_per_dalpha, stats.y_per_dalpha, stats.dalpha_per_y):
            assert np.isfinite(family[0]) and np.isfinite(family[1])
            assert family[0] > 0.0

    def test_h1_ratio_grows_at_most_linearly_in_k(self, ctx):
        control = constant_control(ctx.grid, (0.5, 0.5))
        maxima = {}
        for k in (1, 2, 3):
            maxima[k] = stability_probe(ctx, k=k, samples=30, seed=0,
                                        control=control).h1_per_dalpha[0]
        for k in (2, 3):
            assert maxima[k] <= 2.0 * k * maxima[1]

    def test_needs_two_samples(self, ctx):
        with pytest.raises(ValueError):
            stability_probe(ctx, k=1, samples=1, seed=0,
                            control=np.zeros((2,) + ctx.grid.shape))

    @pytest.mark.parametrize("k", [0, 7])
    def test_k_outside_basis_rejected(self, ctx, k):
        with pytest.raises(ValueError, match=r"k must lie in \[1, 6\]"):
            stability_probe(ctx, k=k, samples=3, seed=0,
                            control=np.zeros((2,) + ctx.grid.shape))

    def test_every_sample_failing_raises(self, ctx, monkeypatch):
        def failing(self, nonlin, eps, y0=None):
            raise NumericalError("injected")

        monkeypatch.setattr(SolverContext, "solve", failing)
        with pytest.raises(NumericalError, match="all stability-probe samples failed"):
            stability_probe(ctx, k=2, samples=3, seed=0,
                            control=constant_control(ctx.grid, (0.5, 0.5)))

    def test_no_separated_pair_gives_nan_inverse_ratio(self, ctx):
        # coefficients in [0, 1] lie less than 2 apart in every pair
        stats = stability_probe(ctx, k=2, samples=4, seed=0,
                                control=constant_control(ctx.grid, (0.5, 0.5)),
                                min_separation=2.0)
        assert stats.samples_used == 4
        assert np.isnan(stats.dalpha_per_y).all()
        assert np.isfinite(stats.h1_per_dalpha + stats.y_per_dalpha).all()
