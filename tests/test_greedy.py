import dataclasses

import numpy as np
import pytest

import greedyrecon.greedy as greedy_mod
from greedyrecon import (
    ControlBox,
    GreedyConfig,
    GreedyFailure,
    Grid,
    NegLaplacian,
    OptimConfig,
    run_greedy,
)
from greedyrecon.exceptions import NumericalError
from greedyrecon.forward import FixedPointConfig
from greedyrecon.greedy import (
    STAGE_INIT,
    STAGE_SPLIT,
    DISCRIMINATION_C,
    _select_winner,
    discrimination_scale,
    fitting_targets,
    promote,
    run_fitting_sweep,
    run_initialization,
    run_splitting,
    stage_rng,
)
from greedyrecon.objectives import (
    DiscriminationObjective,
    FittingObjective,
    ObjectiveEval,
    constant_control,
    control_to_vec,
    discriminate,
)
from greedyrecon.optimize import minimize_box, multistart_maximize

from conftest import make_context


def fast_config(**kw):
    base = dict(
        optim_control=OptimConfig(grad_tol=1e-6, max_iters=60),
        optim_coeff=OptimConfig(grad_tol=1e-9, max_iters=300),
        seed=0,
    )
    base.update(kw)
    return GreedyConfig(**base)


def oracle_best(ctx, beta, cand, cfg, prev_control, restarts=10):
    """Independent candidate re-optimization with a larger restart budget,
    on the unscaled score and tolerance."""
    obj = DiscriminationObjective(ctx, beta, cand, cfg.nu)
    lo, hi = cfg.box.flat_bounds(ctx.grid)
    rng = np.random.default_rng(np.random.SeedSequence([4242, cand]))
    starts = [np.zeros(lo.size)]
    if prev_control is not None:
        starts.append(control_to_vec(prev_control))
    starts += [control_to_vec(constant_control(ctx.grid, cfg.box.sample_constant(rng)))
               for _ in range(restarts)]
    ocfg = dataclasses.replace(cfg.optim_control,
                               grad_tol=cfg.optim_control.grad_tol * ctx.grid.h,
                               max_iters=200)
    # one stacked call per round; each item is bit-identical to obj(x)
    (res,), _, _ = multistart_maximize(lambda problems, xs: discriminate([obj] * len(xs), xs),
                                       [starts], lo, hi, ocfg)
    return res


def sequential_stage(ctx, cfg, stage, k, betas, starts):
    """Scores, errors and winner of a discrimination stage solved one
    candidate and one start at a time, each start by minimize_box on the
    score scaled as the stage scales it, and the number of failed starts."""
    lo, hi = cfg.box.flat_bounds(ctx.grid)
    scale = discrimination_scale(ctx.grid)
    ocfg = dataclasses.replace(cfg.optim_control,
                               grad_tol=cfg.optim_control.grad_tol * ctx.grid.h * scale)
    scores, errors, failed = {}, {}, 0
    for cand in sorted(betas):
        obj = DiscriminationObjective(ctx, betas[cand], cand, cfg.nu)

        def neg(x, need_grad=True):
            value, grad = obj(x)
            return ObjectiveEval(-scale * value, -scale * grad)

        pair = cfg.box.sample_constant(stage_rng(cfg.seed, stage, k, cand))
        random_start = control_to_vec(constant_control(ctx.grid, pair))
        # the best finished start wins; the first start's error if none finished
        values, failures = [], []
        for x0 in [*starts, random_start]:
            try:
                values.append(minimize_box(neg, x0, lo, hi, ocfg).value)
            except NumericalError as exc:
                failures.append(str(exc))
        scores[cand] = -min(values) / scale if values else None
        if not values:
            errors[cand] = failures[0]
        failed += len(failures)
    return scores, errors, _select_winner(scores), failed


class TestSelectWinner:
    def test_clear_margin(self):
        assert _select_winner({0: 1.0, 1: 2.0, 2: 0.5}) == 1

    def test_tie_takes_lowest_index(self):
        assert _select_winner({2: 1.0, 5: 1.0 - 1e-9, 3: 0.2}) == 2
        assert _select_winner({5: 1.0, 2: 1.0 - 1e-9}) == 2

    def test_failed_candidates_ignored(self):
        assert _select_winner({0: None, 1: 0.3, 2: None}) == 1

    def test_all_zero_scores(self):
        assert _select_winner({3: 0.0, 1: 0.0, 2: 0.0}) == 1


class TestStructure:
    def test_degree_zero_single_control(self):
        ctx = make_context(n=8, degree=0)
        run = run_greedy(ctx, fast_config())
        assert run.k_final == 1
        assert len(run.controls) == 1
        assert len(run.f_max_history) == 1
        assert run.stopped_by in ("tol1", "exhausted")

    def test_huge_tol1_stops_after_initialization(self):
        ctx = make_context(n=8, degree=1)
        run = run_greedy(ctx, fast_config(tol1=1e10))
        assert run.k_final == 1
        assert run.stopped_by == "tol1"

    def test_zero_box_controls_are_zero_and_stop_early(self):
        # with only the zero control feasible, every splitting score is 0,
        # so the loop ends at the first splitting; the initialization still
        # records a positive value because the constant element forces the
        # candidate state away from zero even without a control
        ctx = make_context(n=8, degree=1)
        cfg = fast_config(box=ControlBox((0.0, 0.0), (0.0, 0.0)))
        run = run_greedy(ctx, cfg)
        assert all(np.all(c == 0.0) for c in run.controls)
        assert run.stopped_by == "tol1"
        assert run.f_max_history[0] > 0.0
        assert run.f_max_history[-1] <= cfg.tol1

    def test_run_invariants_p2(self):
        ctx = make_context(n=8, degree=2)
        cfg = fast_config()
        run = run_greedy(ctx, cfg)
        assert run.k_final == len(run.controls) == len(run.f_max_history)
        assert run.k_final <= ctx.basis.size
        assert sorted(run.basis.order) == list(range(ctx.basis.size))
        assert all(f >= 0.0 for f in run.f_max_history)
        assert all(cfg.box.contains(c) for c in run.controls)
        if run.stopped_by == "tol1":
            assert run.f_max_history[-1] <= cfg.tol1
        else:
            assert run.k_final == ctx.basis.size
        assert len(run.winners) == run.k_final
        assert len(run.progress) == run.k_final

    def test_stages_leave_the_context_as_it_is(self):
        ctx = make_context(n=8, degree=2)
        basis = ctx.basis
        cfg = fast_config()
        run = run_greedy(ctx, cfg)
        control, _ = run_initialization(ctx, cfg)
        betas, _, _ = run_fitting_sweep(ctx, 1, [control], cfg)
        run_splitting(ctx, 1, betas, cfg, prev_control=control)
        assert ctx.basis is basis and basis.order == tuple(range(basis.size))
        # the run holds the design's order: each winner promoted in turn
        replay = ctx
        for rec in run.progress:
            replay = promote(replay, rec["k"], rec["winner"])
        assert run.basis == replay.basis != basis

    def test_determinism(self):
        cfg = fast_config(seed=11)
        run1 = run_greedy(make_context(n=8, degree=1), cfg)
        run2 = run_greedy(make_context(n=8, degree=1), cfg)
        assert run1.winners == run2.winners
        assert run1.f_max_history == run2.f_max_history
        for c1, c2 in zip(run1.controls, run2.controls):
            assert np.array_equal(c1, c2)


class TestFittingSweep:
    def test_in_span_candidate_fits_to_regularizer_level(self):
        # candidate equal to an already selected element is reproduced exactly
        ctx = make_context(n=8, degree=1)
        cfg = fast_config()
        rng = np.random.default_rng(1)
        control = np.zeros((2,) + ctx.grid.shape)
        control[:, 1:-1, 1:-1] = rng.uniform(-1, 1, (2, 7, 7))
        # make position 1 and 2 the same monomial family: fit candidate 1
        # against k=1 selected elements after promoting it artificially
        betas, errors, _ = run_fitting_sweep(ctx, 1, [control], cfg)
        assert set(betas) == {1, 2}
        assert errors == {}
        for beta in betas.values():
            assert beta.shape == (1,)
            assert 0.0 <= beta[0] <= cfg.alpha_max

    def test_grid_search_oracle_k1(self):
        ctx = make_context(n=8, degree=1)
        cfg = fast_config(nu=0.0)
        rng = np.random.default_rng(2)
        control = np.zeros((2,) + ctx.grid.shape)
        control[:, 1:-1, 1:-1] = rng.uniform(-1, 1, (2, 7, 7))
        targets = {c: fitting_targets(ctx, c, [control]) for c in (1, 2)}
        betas, _, _ = run_fitting_sweep(ctx, 1, [control], cfg)
        for cand in (1, 2):
            obj = FittingObjective(ctx, [control], targets[cand], nu=0.0)
            grid = np.arange(0.0, 1.0 + 1e-12, 0.01)
            values = [obj(np.array([b]), False).value for b in grid]
            best = grid[int(np.argmin(values))]
            assert abs(betas[cand][0] - best) <= 0.01

    def test_each_fit_is_one_run_from_zero(self, monkeypatch):
        ctx = make_context(n=8, degree=2)
        cfg = fast_config()
        rng = np.random.default_rng(3)
        controls = [np.zeros((2,) + ctx.grid.shape) for _ in range(2)]
        for control in controls:
            control[:, 1:-1, 1:-1] = rng.uniform(-1, 1, (2, 7, 7))
        drawn = []
        original = greedy_mod.stage_rng

        def spy(*args):
            drawn.append(args)
            return original(*args)

        monkeypatch.setattr(greedy_mod, "stage_rng", spy)
        betas, errors, _ = run_fitting_sweep(ctx, 2, controls, cfg)
        assert drawn == []
        assert set(betas) == {2, 3, 4, 5} and errors == {}
        lo, hi = np.zeros(2), np.full(2, cfg.alpha_max)
        for cand, beta in betas.items():
            obj = FittingObjective(ctx, controls, fitting_targets(ctx, cand, controls), cfg.nu)
            assert np.array_equal(beta, minimize_box(obj, np.zeros(2), lo, hi,
                                                     cfg.optim_coeff).x)

    def test_fit_failing_mid_run_leaves_the_other_fits_bit_identical(self, monkeypatch):
        ctx = make_context(n=8, degree=2)
        cfg = fast_config()
        rng = np.random.default_rng(0)
        controls = [np.zeros((2,) + ctx.grid.shape) for _ in range(2)]
        for control in controls:
            control[:, 1:-1, 1:-1] = rng.uniform(-1, 1, (2, 7, 7))
        clean, _, clean_stats = run_fitting_sweep(ctx, 2, controls, cfg)
        assert clean_stats["candidates"][3]["evals"] > 2
        built, calls = [], []

        def flaky(*args):
            # candidate 3's objective, the second built, fails from its third call
            obj = FittingObjective(*args)
            built.append(obj)
            if len(built) != 2:
                return obj

            def call(beta, need_grad=True):
                calls.append(beta.copy())
                if len(calls) > 2:
                    raise NumericalError("fit injected")
                return obj(beta, need_grad)

            return call

        monkeypatch.setattr(greedy_mod, "FittingObjective", flaky)
        betas, errors, stats = run_fitting_sweep(ctx, 2, controls, cfg)
        assert errors == {3: "fit injected"}
        assert set(betas) == set(stats["candidates"]) == {2, 4, 5}
        for cand, beta in betas.items():
            assert np.array_equal(beta, clean[cand])
            assert stats["candidates"][cand] == clean_stats["candidates"][cand]

    def test_requires_matching_control_count(self):
        ctx = make_context(n=8, degree=1)
        with pytest.raises(ValueError):
            run_fitting_sweep(ctx, 2, [np.zeros((2,) + ctx.grid.shape)], fast_config())


class TestOracleAgreement:
    def test_initialization_winner_matches_bruteforce(self):
        ctx = make_context(n=16, degree=1)
        cfg = fast_config()
        control, record = run_initialization(ctx, cfg)
        winner, f_max = record["winner"], record["f_max"]
        oracle_scores = {c: oracle_best(ctx, np.zeros(0), c, cfg, None).value
                         for c in range(3)}
        assert _select_winner(oracle_scores) == winner
        # recorded f_max equals the misfit recomputed from fresh solves
        y_b = ctx.solve(ctx.combo(np.zeros(0)), control)
        y_c = ctx.solve(ctx.unit(winner), control)
        misfit = 0.5 * ctx.grid.h**2 * float(np.sum((y_b - y_c) ** 2))
        assert f_max == pytest.approx(misfit, rel=1e-12)


class TestFailureHandling:
    def test_single_candidate_failure_skipped(self, monkeypatch):
        ctx = make_context(n=8, degree=1)
        cfg = fast_config()
        original = greedy_mod.discriminate

        def flaky(objectives, vecs):
            if any(o.candidate_pos == 1 and o.beta.size == 0 for o in objectives):
                raise NumericalError("injected")
            return original(objectives, vecs)

        monkeypatch.setattr(greedy_mod, "discriminate", flaky)
        run = run_greedy(ctx, cfg)
        assert run.progress[0]["scores"][1] is None
        assert run.progress[0]["errors"] == {1: "injected"}
        assert all(rec["errors"] == {} for rec in run.progress[1:])
        assert run.k_final >= 1

    def test_fitting_failure_reason_kept_in_splitting_record(self, monkeypatch):
        ctx = make_context(n=8, degree=1)
        original = greedy_mod.fitting_targets

        def flaky(ctx, candidate_pos, controls):
            # an error in the targets fails the fit of candidate 2 at k=1
            if (candidate_pos, len(controls)) == (2, 1):
                raise NumericalError("fit injected")
            return original(ctx, candidate_pos, controls)

        monkeypatch.setattr(greedy_mod, "fitting_targets", flaky)
        run = run_greedy(ctx, fast_config())
        split = run.progress[1]
        assert split["stage"] == "splitting"
        assert split["errors"] == {2: "fitting: fit injected"}
        assert 2 not in split["scores"]

    def test_total_failure_raises_with_partial(self, monkeypatch):
        ctx = make_context(n=8, degree=1)

        def broken(*args, **kwargs):
            raise NumericalError("injected")

        monkeypatch.setattr(greedy_mod, "discriminate", broken)
        with pytest.raises(GreedyFailure, match="candidate 0: injected") as info:
            run_greedy(ctx, fast_config())
        assert info.value.partial is not None
        assert info.value.partial.k_final == 0

    def test_splitting_failure_at_k1_raises_with_partial(self, monkeypatch):
        ctx = make_context(n=8, degree=1)
        original = greedy_mod.discriminate

        def broken_at_k1(objectives, vecs):
            # the splitting subproblems at k fit a surrogate of k coefficients
            if any(o.beta.size == 1 for o in objectives):
                raise NumericalError("injected")
            return original(objectives, vecs)

        monkeypatch.setattr(greedy_mod, "discriminate", broken_at_k1)
        with pytest.raises(GreedyFailure,
                           match="splitting subproblem at k=1 failed") as info:
            run_greedy(ctx, fast_config())
        partial = info.value.partial
        assert partial.k_final == 1
        assert len(partial.controls) == 1
        assert len(partial.progress) == 1
        assert partial.winners == [partial.progress[0]["winner"]]
        assert partial.f_max_history == [partial.progress[0]["f_max"]]
        assert partial.stopped_by == "failed"


class TestLockstepStage:
    """A stage runs every (candidate, start) in lockstep; its outcome must be
    the one solving them one at a time gives, failures included."""

    def failing_context(self, gamma=6.0):
        # at gamma = 6 the fixed point stalls or blows up in the middle of
        # some (candidate, start) runs, while others converge
        return make_context(n=8, degree=2, gamma1=gamma, gamma2=gamma)

    def test_initialization_failures_match_sequential(self):
        ctx = self.failing_context()
        cfg = fast_config()
        betas = {c: np.zeros(0) for c in range(ctx.basis.size)}
        zero = control_to_vec(ctx.grid.zero_field())
        *expected, failed = sequential_stage(ctx, cfg, STAGE_INIT, 0, betas, [zero])
        _, record = run_initialization(ctx, cfg)
        # random starts fail, but every candidate keeps its zero start's score
        assert failed and not record["errors"]
        assert None not in record["scores"].values()
        assert [record["scores"], record["errors"], record["winner"]] == expected
        stats = record["stats"]
        assert set(stats["candidates"]) == {c for c, s in expected[0].items() if s is not None}
        assert stats["rounds"] == max(r["evals"] for r in stats["candidates"].values())

    def test_splitting_failures_match_sequential(self):
        # at gamma = 6 every splitting run here reaches a control at which
        # the fixed point fails; at gamma = 5 two of the five candidates fail
        ctx = self.failing_context(gamma=5.0)
        cfg = fast_config()
        rng = np.random.default_rng(5)
        prev = constant_control(ctx.grid, (0.5, -0.4))
        betas = {c: rng.uniform(0.0, 0.5, 1) for c in range(1, ctx.basis.size)}
        starts = [control_to_vec(ctx.grid.zero_field()), control_to_vec(prev)]
        *expected, _ = sequential_stage(ctx, cfg, STAGE_SPLIT, 1, betas, starts)
        _, record = run_splitting(ctx, 1, betas, cfg, prev_control=prev)
        assert record["errors"] and any(s is not None for s in record["scores"].values())
        assert [record["scores"], record["errors"], record["winner"]] == expected

    def test_fixed_point_cap_fails_candidates_alike(self):
        ctx = dataclasses.replace(make_context(n=8, degree=2), fp=FixedPointConfig(ell_max=5))
        cfg = fast_config()
        betas = {c: np.zeros(0) for c in range(ctx.basis.size)}
        zero = control_to_vec(ctx.grid.zero_field())
        *expected, failed = sequential_stage(ctx, cfg, STAGE_INIT, 0, betas, [zero])
        _, record = run_initialization(ctx, cfg)
        assert failed
        assert [record["scores"], record["errors"], record["winner"]] == expected


class TestStageRng:
    def test_independent_streams(self):
        a = stage_rng(0, 1, 0, 0).uniform(size=3)
        b = stage_rng(0, 1, 0, 1).uniform(size=3)
        c = stage_rng(0, 1, 0, 0).uniform(size=3)
        assert not np.array_equal(a, b)
        assert np.array_equal(a, c)


class TestDiscriminationScale:
    """The discrimination runs see the score times a power of two near
    DISCRIMINATION_C / h^2; what a stage reports stays unscaled."""

    @pytest.mark.parametrize("n, x_max", [(2, 1.0), (8, 1.0), (16, 1.0), (24, 0.5),
                                          (64, 1.0), (100, 3.0), (256, 1.0)])
    def test_scale_is_a_power_of_two_near_c_over_h2(self, n, x_max):
        grid = Grid(n, x_max)
        scale = discrimination_scale(grid)
        mantissa, _ = np.frexp(scale)
        assert mantissa == 0.5
        target = DISCRIMINATION_C / grid.h**2
        assert target / np.sqrt(2.0) <= scale <= target * np.sqrt(2.0)

    def test_scores_are_the_unscaled_oracle_values(self, monkeypatch):
        ctx = make_context(n=8, degree=2)
        cfg = fast_config()
        outcomes = []
        original = greedy_mod.multistart_maximize

        def spy(*args):
            runs = original(*args)
            outcomes.append(runs.outcomes)
            return runs

        monkeypatch.setattr(greedy_mod, "multistart_maximize", spy)

        def check(ctx, record, control, betas):
            winner = record["winner"]
            for cand, res in zip(sorted(betas), outcomes[-1]):
                obj = DiscriminationObjective(ctx, betas[cand], cand, cfg.nu)
                assert record["scores"][cand] == obj(res.x, need_grad=False).value
            f_max = DiscriminationObjective(ctx, betas[winner], winner, 0.0)(
                control_to_vec(control), need_grad=False).value
            assert record["f_max"] == f_max > 0.0

        control, record = run_initialization(ctx, cfg)
        check(ctx, record, control, {c: np.zeros(0) for c in range(ctx.basis.size)})
        ctx = promote(ctx, 0, record["winner"])
        betas, _, _ = run_fitting_sweep(ctx, 1, [control], cfg)
        control, record = run_splitting(ctx, 1, betas, cfg, prev_control=control)
        check(ctx, record, control, betas)


@pytest.fixture(scope="module")
def design16():
    """The n=16, P=2 design at the default greedy settings, master seed 0."""
    return run_greedy(make_context(n=16, degree=2), GreedyConfig(seed=0))


def test_design16_winners_and_order(design16):
    # the reference design: a change that moves it must say why here
    assert design16.winners == [0, 2, 2, 3, 4, 5]
    assert list(design16.basis.order) == [0, 2, 1, 3, 4, 5]
    assert design16.stopped_by == "exhausted"


def test_discrimination_evals_per_iteration(design16):
    # the winning starts took 1.36 evaluations per L-BFGS-B iteration, and
    # 7.09 with the unscaled score, whose line searches began at a step of
    # about 1e-6 and extrapolated x4 per evaluation up to the box
    wins = [r for rec in design16.progress for r in rec["stats"]["candidates"].values()]
    ratio = sum(r["evals"] for r in wins) / sum(r["iterations"] for r in wins)
    assert all(r["converged"] for r in wins)
    assert ratio <= 2.0


class TestLastBitRobustness:
    """A one-ulp change of every Poisson solve leaves the design the same.

    Measured: the controls moved by at most 2.4e-10 and f_max by 4.7e-11
    relative (7.6e-8 and 8.8e-9 with the unscaled score); the bounds leave
    a margin of about 40 and 20."""

    @pytest.mark.parametrize("factor", [1.0 - 2.2e-16, 1.0 + 2.2e-16])
    def test_one_ulp_poisson_perturbation(self, design16, monkeypatch, factor):
        exact = NegLaplacian.inverse_interior
        monkeypatch.setattr(NegLaplacian, "inverse_interior",
                            lambda self, b: exact(self, b) * factor)
        run = run_greedy(make_context(n=16, degree=2), GreedyConfig(seed=0))
        assert run.winners == design16.winners
        assert list(run.basis.order) == list(design16.basis.order)
        moved = max(float(np.max(np.abs(a - b)))
                    for a, b in zip(run.controls, design16.controls))
        rel = max(abs(a - b) / b for a, b in zip(run.f_max_history,
                                                 design16.f_max_history))
        assert moved <= 1e-8
        assert rel <= 1e-9
