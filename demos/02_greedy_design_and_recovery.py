"""End-to-end reconstruction of an in-span interaction.

Offline, the greedy driver designs one control per basis candidate using
only model simulations.  Online, those controls produce (synthetic)
observations under the true interaction G(y) = 0.05*y1*y2, and the final
identification recovers its coefficient on the y1*y2 monomial.

Desk-scale settings (N=16, quadratic basis) keep this under a minute.
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
    l2_norm,
    run_greedy,
)


def main():
    grid = Grid(16, 1.0)
    ctx = SolverContext(NegLaplacian(grid), MonomialBasis(2), 0.2, 0.2,
                        FixedPointConfig())
    cfg = GreedyConfig(seed=0)

    print("offline phase: greedy control design (no data involved)")
    run = run_greedy(ctx, cfg)
    print(f"  designed {run.k_final} controls, stopped by {run.stopped_by}")
    print("  selection order:", run.basis.ordered_exponents())
    for k, (f, eps) in enumerate(zip(run.f_max_history, run.controls), start=1):
        print(f"  step {k}: f_max {f:.3e}, control L2 norm {l2_norm(grid, eps):.3f}")

    print("\nonline phase: synthetic observations + identification")
    truth = ClosedForm(0.2, 0.2, kind="bilinear")
    data = generate_data(truth, run.controls, ctx)
    alpha, value, _ = identify(run.controls, data, ctx,
                               OptimConfig(grad_tol=1e-12, max_iters=2000),
                               alpha_max=cfg.alpha_max, seed=cfg.seed)
    print(f"  final objective {value:.3e}")
    print("  identified coefficients:")
    for pos, exp in enumerate(ctx.basis.ordered_exponents()):
        marker = "  <- true coefficient is 0.05" if exp == (1, 1) else ""
        print(f"    y1^{exp[0]} y2^{exp[1]}: {alpha[pos]:+.6e}{marker}")


if __name__ == "__main__":
    main()
