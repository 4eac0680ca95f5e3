"""Measuring reconstruction quality coefficient by coefficient.

For closed-form targets outside the monomial span (sinusoidal,
exponential) the natural scoreboard is the gap between each identified
coefficient and the target's Taylor coefficient at the origin.  This demo
reconstructs the exponential target at two basis degrees and prints the
gap table; richer bases shrink the low-order gaps while the highest-order
entries saturate.
"""


from greedyrecon import (
    ClosedForm,
    FixedPointConfig,
    GreedyConfig,
    Grid,
    MonomialBasis,
    NegLaplacian,
    OptimConfig,
    SolverContext,
    generate_data,
    identify,
    run_greedy,
    taylor_error_table,
)


def reconstruct(degree):
    grid = Grid(16, 1.0)
    ctx = SolverContext(NegLaplacian(grid), MonomialBasis(degree), 0.2, 0.2,
                        FixedPointConfig())
    run = run_greedy(ctx, GreedyConfig(seed=0))
    truth = ClosedForm(0.2, 0.2, kind="exponential")
    data = generate_data(truth, run.controls, ctx)
    alpha, value, _ = identify(run.controls, data, ctx,
                               OptimConfig(grad_tol=1e-12, max_iters=2000),
                               alpha_max=1.0, seed=0)
    return ctx, alpha, value


def main():
    tables = {}
    for degree in (2, 3):
        ctx, alpha, value = reconstruct(degree)
        tables[degree] = taylor_error_table("exponential", alpha, ctx.basis, d=2)
        print(f"degree {degree}: identification objective {value:.3e}")

    print("\nper-monomial gap |taylor - identified| (entries up to order 2):")
    print(f"  {'monomial':>10} {'taylor':>12} {'gap P=2':>12} {'gap P=3':>12}")
    for key in sorted(tables[2], key=lambda k: (k[0] + k[1], k)):
        t, _, gap2 = tables[2][key]
        gap3 = tables[3][key][2]
        print(f"  y1^{key[0]} y2^{key[1]:<4} {t:12.5f} {gap2:12.3e} {gap3:12.3e}")


if __name__ == "__main__":
    main()
