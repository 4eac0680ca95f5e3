import numpy as np
import pytest
import scipy.optimize as sopt

from greedyrecon import (
    ControlBox,
    DiscriminationObjective,
    NumericalError,
    OptimConfig,
    minimize_box,
)
from greedyrecon.objectives import (
    ObjectiveEval,
    constant_control,
    control_to_vec,
    discriminate,
    project_box,
)
from greedyrecon.optimize import (
    LBFGS_MEMORY,
    lockstep_minimize,
    multistart_maximize,
    multistart_minimize,
)

from conftest import make_context


def quadratic(center):
    center = np.asarray(center, dtype=float)

    def fun(x, need_grad=True):
        d = x - center
        return ObjectiveEval(0.5 * float(d @ d), d.copy() if need_grad else None)

    return fun


def rosenbrock(x, need_grad=True):
    v = (1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2
    if not need_grad:
        return ObjectiveEval(v, None)
    g = np.array([
        -2.0 * (1.0 - x[0]) - 400.0 * x[0] * (x[1] - x[0] ** 2),
        200.0 * (x[1] - x[0] ** 2),
    ])
    return ObjectiveEval(v, g)


BOX2 = (np.array([-2.0, -2.0]), np.array([2.0, 2.0]))


class TestMinimizeBox:
    def test_interior_quadratic(self):
        res = minimize_box(quadratic([0.3, -0.7]), np.zeros(2), *BOX2, OptimConfig())
        assert res.converged
        assert res.projected_grad_norm <= 1e-8
        assert np.allclose(res.x, [0.3, -0.7], atol=1e-7)

    def test_exterior_center_clamps(self):
        res = minimize_box(quadratic([5.0, -9.0]), np.zeros(2), *BOX2, OptimConfig())
        assert np.allclose(res.x, [2.0, -2.0], atol=1e-10)
        assert res.converged  # projected gradient vanishes at the corner

    def test_fully_fixed_box_returns_the_bound(self):
        # setulb evaluates the bound once and stops without an iteration
        lo = np.array([0.25, -0.5])
        fun = quadratic([1.0, 1.0])
        res = minimize_box(fun, np.zeros(2), lo, lo.copy(), OptimConfig())
        assert np.array_equal(res.x, lo)
        assert res.value == fun(lo).value
        assert res.projected_grad_norm == 0.0
        assert res.converged
        assert res.iterations == 0
        assert res.evals == 1

    def test_rosenbrock_reaches_reference_minimum(self):
        res = minimize_box(rosenbrock, np.array([-1.2, 1.0]), *BOX2,
                           OptimConfig(max_iters=5000, grad_tol=1e-9))
        assert res.value <= 1e-8
        assert np.allclose(res.x, [1.0, 1.0], atol=1e-4)

    def test_iterates_always_feasible(self):
        lo = np.array([-0.5, -0.5])
        hi = np.array([0.5, 0.5])
        seen = []

        def fun(x, need_grad=True):
            seen.append(x.copy())
            return quadratic([3.0, -3.0])(x, need_grad)

        minimize_box(fun, np.array([4.0, 4.0]), lo, hi, OptimConfig())
        for x in seen:
            assert np.all(x >= lo - 1e-15) and np.all(x <= hi + 1e-15)

    def test_reported_value_is_oracle_value_below_start(self):
        x0 = np.array([-1.2, 1.0])
        res = minimize_box(rosenbrock, x0, *BOX2,
                           OptimConfig(max_iters=300, grad_tol=1e-12))
        assert res.value == rosenbrock(res.x).value
        assert res.value <= rosenbrock(project_box(x0, *BOX2)).value

    def test_deterministic_given_inputs(self):
        cfg = OptimConfig(max_iters=200, grad_tol=1e-12)
        r1 = minimize_box(rosenbrock, np.array([-1.2, 1.0]), *BOX2, cfg)
        r2 = minimize_box(rosenbrock, np.array([-1.2, 1.0]), *BOX2, cfg)
        assert np.array_equal(r1.x, r2.x)
        assert r1.value == r2.value
        assert r1.iterations == r2.iterations
        assert r1.projected_grad_norm == r2.projected_grad_norm

    def test_conditioned_quadratic_converges_within_budget(self):
        rng = np.random.default_rng(0)
        n = 12
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = q @ np.diag(np.geomspace(1.0, 1e3, n)) @ q.T
        center = rng.uniform(-0.5, 0.5, n)

        def fun(x, need_grad=True):
            d = x - center
            return ObjectiveEval(0.5 * float(d @ a @ d),
                                 a @ d if need_grad else None)

        res = minimize_box(fun, np.zeros(n), np.full(n, -1.0), np.full(n, 1.0),
                           OptimConfig(max_iters=500, grad_tol=1e-9))
        assert res.converged

    def test_lying_oracle_returns_unconverged(self):
        # claims descent is possible but never delivers any decrease
        def fun(x, need_grad=True):
            return ObjectiveEval(float(np.sum(x)), -np.ones_like(x) if need_grad else None)

        res = minimize_box(fun, np.zeros(2), *BOX2, OptimConfig(max_iters=50))
        assert not res.converged

    def test_oracle_failure_propagates_unchanged(self):
        raised = []

        def fun(x, need_grad=True):
            if x[0] > 0.5:
                raised.append(NumericalError("boom"))
                raise raised[-1]
            return quadratic([1.0, 0.0])(x, need_grad)

        with pytest.raises(NumericalError) as info:
            minimize_box(fun, np.zeros(2), *BOX2, OptimConfig())
        assert info.value is raised[-1]

    def test_infeasible_start_projected_first(self):
        seen = []

        def fun(x, need_grad=True):
            seen.append(x.copy())
            return quadratic([0.0, 0.0])(x, need_grad)

        minimize_box(fun, np.array([10.0, -10.0]), *BOX2, OptimConfig())
        assert np.all(np.abs(seen[0]) <= 2.0)


def one_at_a_time(fun):
    """A lockstep oracle that evaluates a one-point oracle at each point."""
    return lambda problems, xs: [fun(x) for x in xs]


def maximize_from(fun, x0, lo, hi, cfg):
    """Single-start maximization through multistart_maximize's negation."""
    (res,), _, _ = multistart_maximize(one_at_a_time(fun), [[x0]], lo, hi, cfg)
    return res


class TestMaximizeBox:
    def test_concave_quadratic(self):
        def fun(x, need_grad=True):
            return ObjectiveEval(-float(x @ x), -2.0 * x if need_grad else None)

        res = maximize_from(fun, np.array([1.0, -1.5]), *BOX2, OptimConfig())
        assert np.allclose(res.x, 0.0, atol=1e-8)
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_linear_goes_bang_bang(self):
        def fun(x, need_grad=True):
            return ObjectiveEval(float(np.sum(x)), np.ones_like(x) if need_grad else None)

        res = maximize_from(fun, np.zeros(3), np.full(3, -1.0), np.full(3, 1.0),
                            OptimConfig())
        assert np.allclose(res.x, 1.0)

    def test_equivalence_with_negated_minimize(self):
        def fun(x, need_grad=True):
            v = -((x[0] - 0.2) ** 2) - 2.0 * (x[1] + 0.4) ** 2
            g = np.array([-2.0 * (x[0] - 0.2), -4.0 * (x[1] + 0.4)])
            return ObjectiveEval(v, g if need_grad else None)

        def neg(x, need_grad=True):
            ev = fun(x, need_grad)
            return ObjectiveEval(-ev.value, None if ev.grad is None else -ev.grad)

        cfg = OptimConfig()
        up = maximize_from(fun, np.zeros(2), *BOX2, cfg)
        down = minimize_box(neg, np.zeros(2), *BOX2, cfg)
        assert np.array_equal(up.x, down.x)
        assert up.value == -down.value


class TestMultistart:
    def test_picks_global_among_starts(self):
        # two basins: x^4 - x^2 on [-2, 2] has minima at +-1/sqrt(2)
        def fun(x, need_grad=True):
            v = float(x[0] ** 4 - x[0] ** 2 + 0.1 * x[0])
            g = np.array([4 * x[0] ** 3 - 2 * x[0] + 0.1])
            return ObjectiveEval(v, g if need_grad else None)

        lo, hi = np.array([-2.0]), np.array([2.0])
        rng = np.random.default_rng(2)
        starts = [np.array([1.0])] + [rng.uniform(lo, hi) for _ in range(8)]
        res = multistart_minimize(fun, starts, lo, hi, OptimConfig())
        roots = np.roots([4.0, 0.0, -2.0, 0.1])
        best_root = min((r.real for r in roots if abs(r.imag) < 1e-12),
                        key=lambda r: r**4 - r**2 + 0.1 * r)
        assert res.x[0] == pytest.approx(best_root, abs=1e-6)

    def test_seeded_reproducibility(self):
        def fun(x, need_grad=True):
            v = float(np.cos(3 * x[0]) + 0.5 * x[0] ** 2)
            g = np.array([-3 * np.sin(3 * x[0]) + x[0]])
            return ObjectiveEval(v, g if need_grad else None)

        lo, hi = np.array([-3.0]), np.array([3.0])

        def seeded_starts():
            rng = np.random.default_rng(7)
            return [np.zeros(1)] + [rng.uniform(lo, hi) for _ in range(5)]

        a = multistart_minimize(fun, seeded_starts(), lo, hi, OptimConfig())
        b = multistart_minimize(fun, seeded_starts(), lo, hi, OptimConfig())
        assert np.array_equal(a.x, b.x)

    def test_maximize_variant(self):
        def fun(x, need_grad=True):
            return ObjectiveEval(-float(x @ x) + 1.0,
                                 -2.0 * x if need_grad else None)

        lo, hi = np.full(2, -1.0), np.full(2, 1.0)
        rng = np.random.default_rng(3)
        starts = [np.array([0.5, 0.5])] + [rng.uniform(lo, hi) for _ in range(2)]
        (res,), _, _ = multistart_maximize(one_at_a_time(fun), [starts], lo, hi,
                                           OptimConfig())
        assert res.value == pytest.approx(1.0, abs=1e-10)


def scipy_reference(fun, x0, lo, hi, cfg):
    """scipy's own L-BFGS-B call with the options the engine replicates."""
    return sopt.minimize(
        lambda x: fun(x), x0, jac=True, method="L-BFGS-B", bounds=list(zip(lo, hi)),
        options={"maxcor": LBFGS_MEMORY, "maxiter": cfg.max_iters, "maxfun": 10**8,
                 "ftol": 0.0, "gtol": cfg.grad_tol / max(1.0, np.sqrt(len(x0)))})


def assert_matches_scipy(res, ref, sign=1.0):
    assert np.array_equal(res.x, ref.x)
    assert sign * res.value == ref.fun
    assert res.iterations == ref.nit
    assert res.evals == ref.nfev


def scaled_rosenbrock(a):
    """sum a (x_{i+1} - x_i^2)^2 + (1 - x_i)^2; its run length depends on a."""

    def fun(x, need_grad=True):
        r = x[1:] - x[:-1] ** 2
        v = float(np.sum(a * r**2 + (1.0 - x[:-1]) ** 2))
        g = np.zeros_like(x)
        g[:-1] = -4.0 * a * x[:-1] * r - 2.0 * (1.0 - x[:-1])
        g[1:] += 2.0 * a * r
        return ObjectiveEval(v, g if need_grad else None)

    return fun


class TestScipyEquivalence:
    """The engine steps scipy's private ``setulb``; every run must take the
    path ``scipy.optimize.minimize`` takes, bit for bit."""

    def test_lockstep_rosenbrock_runs_match_scipy(self):
        funs = [scaled_rosenbrock(a) for a in (1.0, 10.0, 100.0, 300.0)]
        n = 8
        lo, hi = np.full(n, -1.5), np.full(n, 2.0)
        lo[3] = 1.2  # one bound active at the solution
        starts = [[np.linspace(-1.0, 1.0, n) * s] for s in (0.3, -0.5, 0.9, -1.2)]
        cfg = OptimConfig(max_iters=400, grad_tol=1e-10)
        sizes = []

        def evaluate(problems, xs):
            sizes.append(len(xs))
            return [funs[p](x) for p, x in zip(problems, xs)]

        out = lockstep_minimize(evaluate, starts, lo, hi, cfg)
        for fun, (x0,), res in zip(funs, starts, out.outcomes):
            assert_matches_scipy(res, scipy_reference(fun, x0, lo, hi, cfg))
        lengths = [res.evals for res in out.outcomes]
        assert len(set(lengths)) == 4
        assert out.rounds == max(lengths) == len(sizes)
        assert out.evals == sum(lengths) == sum(sizes)
        assert sizes[0] == 4 and sizes[-1] == 1

    def test_stacked_discrimination_subproblems_match_scipy(self):
        ctx = make_context(n=8, degree=2)
        objs = [DiscriminationObjective(ctx, np.array([0.1]), 3, nu=1e-6),
                DiscriminationObjective(ctx, np.zeros(0), 4, nu=1e-6)]
        box = ControlBox((-1.0, -1.0), (1.0, 1.0))
        lo, hi = box.flat_bounds(ctx.grid)
        x0 = control_to_vec(constant_control(ctx.grid, (0.4, -0.3)))
        cfg = OptimConfig(max_iters=80, grad_tol=1e-6 * ctx.grid.h)
        out = multistart_maximize(
            lambda problems, xs: discriminate([objs[p] for p in problems], xs),
            [[x0], [x0]], lo, hi, cfg)
        for obj, res in zip(objs, out.outcomes):
            ref = scipy_reference(
                lambda x: ObjectiveEval(-obj(x).value, -obj(x).grad), x0, lo, hi, cfg)
            assert ref.nit > 3
            assert_matches_scipy(res, ref, sign=-1.0)

    def test_one_fixed_variable_matches_scipy(self):
        # identify(k=...) pins the tail of the coefficient box at zero
        lo, hi = np.full(4, -2.0), np.full(4, 2.0)
        lo[2] = hi[2] = 0.0
        fun = scaled_rosenbrock(5.0)
        x0 = np.array([-1.0, 0.5, 1.0, 0.3])
        cfg = OptimConfig(max_iters=300, grad_tol=1e-10)
        res = minimize_box(fun, x0, lo, hi, cfg)
        assert res.x[2] == 0.0
        assert_matches_scipy(res, scipy_reference(fun, x0, lo, hi, cfg))


class TestLockstepFailures:
    @staticmethod
    def two_band_fun(x, need_grad=True):
        # x^2 / 8 on [-10, 10], whose first step maps x to 3x/4; x in (5, 9)
        # fails, and so does x in (1, 3.9), which start 4 reaches at its
        # second point, a round after starts 8 and 7.5 failed at their first
        if 5.0 < x[0] < 9.0:
            raise NumericalError("high")
        if 1.0 < x[0] < 3.9:
            raise NumericalError("low")
        return ObjectiveEval(0.125 * float(x @ x), 0.25 * x)

    def test_best_finished_start_wins_and_all_failed_gives_first_error(self):
        fun = self.two_band_fun
        lo, hi = np.array([-10.0]), np.array([10.0])
        cfg = OptimConfig()
        calls = []

        def evaluate(problems, xs):
            calls.append(len(xs))
            return [fun(x) for x in xs]

        starts = [[np.array([-3.0]), np.array([4.0]), np.array([8.0]), np.array([-6.0])],
                  [np.array([7.5])],
                  [np.array([4.0]), np.array([8.0])]]
        out = lockstep_minimize(evaluate, starts, lo, hi, cfg)
        # problem 0: starts 4 and 8 fail, -3 and -6 finish, and the better
        # of those wins, the first on ties
        alone = [minimize_box(fun, starts[0][j], lo, hi, cfg) for j in (0, 3)]
        best = min(alone, key=lambda res: res.value)
        assert np.array_equal(out.outcomes[0].x, best.x)
        assert out.outcomes[0].value == best.value
        # every start of problems 1 and 2 fails; problem 2 reports its first
        # start's error, though its second start failed a round earlier
        assert isinstance(out.outcomes[1], NumericalError)
        assert str(out.outcomes[1]) == "high"
        assert str(out.outcomes[2]) == "low"
        # round 1 stacks 7 runs, fails, and retries them alone; round 2
        # stacks the four runs left, fails on both starts at 4, and retries;
        # then starts -3 and -6 go on
        assert calls[:8] == [7, 1, 1, 1, 1, 1, 1, 1]
        assert calls[8:13] == [4, 1, 1, 1, 1]
        assert all(size <= 2 for size in calls[13:])
        assert out.evals == alone[0].evals + alone[1].evals + 1 + 1

    def test_sequential_multistart_follows_the_same_rule(self):
        fun = self.two_band_fun
        lo, hi = np.array([-10.0]), np.array([10.0])
        cfg = OptimConfig()
        res = multistart_minimize(fun, [np.array([8.0]), np.array([-3.0])], lo, hi, cfg)
        alone = minimize_box(fun, np.array([-3.0]), lo, hi, cfg)
        assert np.array_equal(res.x, alone.x) and res.evals == alone.evals
        with pytest.raises(NumericalError, match="^low$"):
            multistart_minimize(fun, [np.array([4.0]), np.array([8.0])], lo, hi, cfg)

    def test_failure_isolated_from_other_problems(self):
        def broken(x, need_grad=True):
            raise NumericalError("boom")

        funs = [rosenbrock, broken]
        cfg = OptimConfig(max_iters=200)
        starts = [[np.array([-1.2, 1.0])], [np.array([1.5, 1.5])]]

        def evaluate(problems, xs):
            return [funs[p](x) for p, x in zip(problems, xs)]

        out = lockstep_minimize(evaluate, starts, *BOX2, cfg)
        alone = minimize_box(rosenbrock, starts[0][0], *BOX2, cfg)
        assert np.array_equal(out.outcomes[0].x, alone.x)
        assert out.outcomes[0].evals == alone.evals
        assert str(out.outcomes[1]) == "boom"
