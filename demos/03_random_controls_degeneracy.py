"""Why designed controls matter: the random-constant-control baseline.

Equal-component constant controls drive both state components along the
same profile, so every observation traces the SAME line in the (y1, y2)
value plane.  On that line the quadratic monomials y1^2, y1*y2, y2^2 are
indistinguishable: the identification matches the data essentially
perfectly while splitting the true bilinear coefficient across all three.
The reconstruction is excellent on the line and wrong everywhere else.
Compare with the greedy-designed controls of demo 02.
"""

import numpy as np

from greedyrecon import (
    ClosedForm,
    ControlBox,
    FixedPointConfig,
    Grid,
    MonomialBasis,
    NegLaplacian,
    OptimConfig,
    SolverContext,
    collinearity,
    error_field,
    error_values,
    generate_data,
    identify,
    random_constant_controls,
    solution_sets,
)


def main():
    grid = Grid(16, 1.0)
    ctx = SolverContext(NegLaplacian(grid), MonomialBasis(5), 0.2, 0.2,
                        FixedPointConfig())
    box = ControlBox((-1.0, -1.0), (1.0, 1.0))
    controls = random_constant_controls(19, box, grid, seed=0)
    truth = ClosedForm(0.2, 0.2, kind="bilinear")
    data = generate_data(truth, controls, ctx)

    alpha, value, _ = identify(controls, data, ctx,
                               OptimConfig(grad_tol=1e-12, max_iters=3000),
                               alpha_max=1.0, seed=0)
    states = ctx.solve(ctx.combo(alpha), np.stack(controls))
    sets, square = solution_sets(states)
    union = np.concatenate(sets)
    print(f"identification objective: {value:.3e}  (data matched precisely)")
    print(f"collinearity of ALL solution sets together: {collinearity(union):.2e}"
          "  (one line)")

    print("\nidentified coefficients above 1e-4 (truth: 0.05 on y1*y2 only):")
    for pos, exp in enumerate(ctx.basis.ordered_exponents()):
        if abs(alpha[pos]) > 1e-4:
            print(f"  y1^{exp[0]} y2^{exp[1]}: {alpha[pos]:+.5f}")

    field = error_field(truth, alpha, ctx.basis, square, m=101)
    onset = max(float(np.max(np.abs(error_values(
        truth, alpha, ctx.basis, points[:, 0], points[:, 1])))) for points in sets)
    offset = float(np.max(np.abs(field.samples)))
    print(f"\nmax |error| on the probed line:   {onset:.3e}")
    print(f"max |error| on the full square:   {offset:.3e}")
    print(f"off-set/on-set factor:            {offset / max(onset, 1e-300):.0f}")
    print("\nlarge factor = the data said nothing about G away from the line")


if __name__ == "__main__":
    main()
