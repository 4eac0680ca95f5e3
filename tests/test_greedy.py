import dataclasses

import numpy as np
import pytest

import greedyrecon.greedy as greedy_mod
from greedyrecon import (
    ControlBox,
    GreedyConfig,
    GreedyFailure,
    OptimConfig,
    run_greedy,
)
from greedyrecon.greedy import (
    _constant_start,
    _select_winner,
    fitting_targets,
    run_fitting_sweep,
    run_initialization,
    stage_rng,
)
from greedyrecon.objectives import DiscriminationObjective, control_to_vec
from greedyrecon.optimize import multistart_maximize

from conftest import make_context


def fast_config(**kw):
    base = dict(
        optim_control=OptimConfig(grad_tol=1e-6, max_iters=60, restarts=1),
        optim_coeff=OptimConfig(grad_tol=1e-9, max_iters=300, restarts=1),
        seed=0,
    )
    base.update(kw)
    return GreedyConfig(**base)


def oracle_best(ctx, beta, cand, cfg, prev_control, restarts=10):
    """Independent candidate re-optimization with a larger restart budget."""
    obj = DiscriminationObjective(ctx, beta, cand, cfg.nu, cfg.reg_sign)
    lo, hi = cfg.box.flat_bounds(ctx.grid)
    rng = np.random.default_rng(np.random.SeedSequence([4242, cand]))
    starts = [np.zeros(lo.size)]
    if prev_control is not None:
        starts.append(control_to_vec(prev_control))
    starts += [_constant_start(ctx.grid, cfg.box.sample_constant(rng))
               for _ in range(restarts)]
    ocfg = dataclasses.replace(cfg.optim_control,
                               grad_tol=cfg.optim_control.grad_tol * ctx.grid.h,
                               max_iters=200)
    return multistart_maximize(obj, starts, lo, hi, ocfg, rng, n_random=0)


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
        assert len(run.swaps) == run.k_final
        assert len(run.progress) == run.k_final

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
        betas = run_fitting_sweep(ctx, 1, [control], cfg)
        assert set(betas) == {1, 2}
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
        betas = run_fitting_sweep(ctx, 1, [control], cfg)
        from greedyrecon.objectives import FittingObjective

        for cand in (1, 2):
            obj = FittingObjective(ctx, [control], targets[cand], nu=0.0)
            grid = np.arange(0.0, 1.0 + 1e-12, 0.01)
            values = [obj(np.array([b]), False).value for b in grid]
            best = grid[int(np.argmin(values))]
            assert abs(betas[cand][0] - best) <= 0.01

    def test_requires_matching_control_count(self):
        ctx = make_context(n=8, degree=1)
        with pytest.raises(ValueError):
            run_fitting_sweep(ctx, 2, [np.zeros((2,) + ctx.grid.shape)], fast_config())


class TestOracleAgreement:
    def test_initialization_winner_matches_bruteforce(self):
        ctx = make_context(n=16, degree=1)
        cfg = fast_config()
        control, winner, f_max, record = run_initialization(ctx, cfg)
        ctx.basis.swap(0, winner)  # undo the op's swap for oracle scoring
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
        original = greedy_mod._optimize_discrimination

        def flaky(ctx_, beta, cand, cfg_, starts, rng):
            if cand == 1 and beta.size == 0 and len(starts) == 1:
                from greedyrecon.exceptions import NumericalError

                raise NumericalError("injected")
            return original(ctx_, beta, cand, cfg_, starts, rng)

        monkeypatch.setattr(greedy_mod, "_optimize_discrimination", flaky)
        run = run_greedy(ctx, cfg)
        assert run.progress[0]["scores"][1] is None
        assert run.progress[0]["errors"] == {1: "injected"}
        assert all(rec["errors"] == {} for rec in run.progress[1:])
        assert run.k_final >= 1

    def test_fitting_failure_reason_kept_in_splitting_record(self, monkeypatch):
        ctx = make_context(n=8, degree=1)
        original = greedy_mod.stage_rng

        def flaky(seed, stage, iteration, candidate):
            # the fitting subproblem draws its stream first, so raising
            # here fails the fit of candidate 2 at k=1
            if (stage, iteration, candidate) == (greedy_mod.STAGE_FIT, 1, 2):
                from greedyrecon.exceptions import NumericalError

                raise NumericalError("fit injected")
            return original(seed, stage, iteration, candidate)

        monkeypatch.setattr(greedy_mod, "stage_rng", flaky)
        run = run_greedy(ctx, fast_config())
        split = run.progress[1]
        assert split["stage"] == "splitting"
        assert split["errors"] == {2: "fitting: fit injected"}
        assert 2 not in split["scores"]

    def test_total_failure_raises_with_partial(self, monkeypatch):
        ctx = make_context(n=8, degree=1)

        def broken(*args, **kwargs):
            from greedyrecon.exceptions import NumericalError

            raise NumericalError("injected")

        monkeypatch.setattr(greedy_mod, "_optimize_discrimination", broken)
        with pytest.raises(GreedyFailure, match="candidate 0: injected") as info:
            run_greedy(ctx, fast_config())
        assert info.value.partial is not None
        assert info.value.partial.k_final == 0

    def test_splitting_failure_at_k1_raises_with_partial(self, monkeypatch):
        ctx = make_context(n=8, degree=1)
        original = greedy_mod._optimize_discrimination

        def broken_at_k1(ctx_, beta, cand, cfg_, starts, rng):
            # the splitting subproblems at k fit a surrogate of k coefficients
            if beta.size == 1:
                from greedyrecon.exceptions import NumericalError

                raise NumericalError("injected")
            return original(ctx_, beta, cand, cfg_, starts, rng)

        monkeypatch.setattr(greedy_mod, "_optimize_discrimination", broken_at_k1)
        with pytest.raises(GreedyFailure,
                           match="splitting subproblem at k=1 failed") as info:
            run_greedy(ctx, fast_config())
        partial = info.value.partial
        assert partial.k_final == 1
        assert len(partial.controls) == 1
        assert len(partial.winners) == 1
        assert len(partial.f_max_history) == 1
        assert partial.stopped_by == "failed"


class TestStageRng:
    def test_independent_streams(self):
        a = stage_rng(0, 1, 0, 0).uniform(size=3)
        b = stage_rng(0, 1, 0, 1).uniform(size=3)
        c = stage_rng(0, 1, 0, 0).uniform(size=3)
        assert not np.array_equal(a, b)
        assert np.array_equal(a, c)
