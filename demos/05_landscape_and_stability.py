"""Convexity of the data-fitting landscape and perturbation-response ratios.

Left part: scan the identification objective over the coefficients of y1^2
and y1*y2 with everything else fixed, once with designed controls and once
with random constant controls; the designed controls produce visibly more
curvature at the minimum (larger smallest Hessian eigenvalue).

Right part: empirical stability ratios of the coefficient-to-state map,
which back the Lipschitz bounds the reconstruction relies on.
"""

import numpy as np

from greedyrecon import (
    ClosedForm,
    ControlBox,
    FixedPointConfig,
    GreedyConfig,
    Grid,
    MonomialBasis,
    NegLaplacian,
    OptimConfig,
    SolverContext,
    generate_data,
    identify,
    random_constant_controls,
    run_greedy,
    slice_hessian,
    stability_probe,
)


def make_ctx():
    grid = Grid(16, 1.0)
    return SolverContext(NegLaplacian(grid), MonomialBasis(2), 0.2, 0.2,
                         FixedPointConfig())


def hessian_at_minimum(ctx, controls):
    truth = ClosedForm(0.2, 0.2, kind="bilinear")
    data = generate_data(truth, controls, ctx)
    alpha, _, _ = identify(controls, data, ctx,
                           OptimConfig(grad_tol=1e-12, max_iters=2000),
                           alpha_max=1.0, seed=0)
    pair = (ctx.basis.position_of((2, 0)), ctx.basis.position_of((1, 1)))
    return slice_hessian(controls, data, ctx, alpha, pair, step=1e-3)


def main():
    ctx = make_ctx()
    run = run_greedy(ctx, GreedyConfig(seed=0))
    eig_greedy = np.linalg.eigvalsh(hessian_at_minimum(ctx, run.controls))[0]

    ctx_rand = make_ctx()
    controls = random_constant_controls(19, ControlBox((-1, -1), (1, 1)),
                                        ctx_rand.grid, seed=0)
    eig_random = np.linalg.eigvalsh(hessian_at_minimum(ctx_rand, controls))[0]

    print("smallest eigenvalue of the 2-D slice Hessian at the minimizer")
    print(f"  designed controls: {eig_greedy:.3e}")
    print(f"  random constants:  {eig_random:.3e}")
    print(f"  curvature gain:    {eig_greedy / eig_random:.1f}x\n")

    probe = np.zeros((2,) + ctx.grid.shape)
    probe[:, 1:-1, 1:-1] = 0.5
    print("perturbation-response ratios over 30 coefficient pairs (k = 1, 2, 3)")
    for k in (1, 2, 3):
        stats = stability_probe(ctx, k=k, samples=30, seed=0, control=probe)
        print(f"  k={k}: ||dy||_H1/||da||_inf max {stats.h1_per_dalpha[0]:.3e}, "
              f"||dy||_Y/||da||_inf max {stats.y_per_dalpha[0]:.3e}, "
              f"inverse max {stats.dalpha_per_y[0]:.3e}")


if __name__ == "__main__":
    main()
