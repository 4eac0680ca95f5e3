import numpy as np
import pytest
import scipy.fft as fft
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings, strategies as st

from greedyrecon import (
    Grid,
    NegLaplacian,
    NumericalError,
    grid as grid_module,
    h1_norm,
    inner_l2,
    l2_norm,
    laplace_norm,
)
from greedyrecon.grid import DENSE_SINE_MAX_N, interior

from conftest import kappa, same_bits, signed_zeros


class TestGrid:
    def test_paper_spacing(self):
        assert Grid(4, 1.0).h == 0.5

    def test_single_interior_node(self):
        assert Grid(2, 1.0).interior_count == 1

    def test_desk_scale_counts(self):
        g = Grid(64, 1.0)
        assert g.h == 0.03125
        assert g.interior_count == 3969

    def test_node_coordinates(self):
        g = Grid(4, 2.0)
        x = g.nodes1d()
        assert x[0] == -2.0 and x[-1] == 2.0
        assert np.allclose(np.diff(x), g.h)

    @pytest.mark.parametrize("n,x_max", [(1, 1.0), (0, 1.0), (4, 0.0), (4, -2.0)])
    def test_invalid_arguments(self, n, x_max):
        with pytest.raises(ValueError):
            Grid(n, x_max)

    def test_sample_zeroes_boundary(self):
        g = Grid(8, 1.0)
        u = g.sample_scalar(lambda x1, x2: np.ones_like(x1))
        assert np.all(u[0, :] == 0) and np.all(u[:, -1] == 0)
        assert np.all(u[1:-1, 1:-1] == 1.0)


class TestNegLaplacian:
    def test_single_node_operator(self):
        op = NegLaplacian(Grid(2, 1.0))
        assert op.matrix.shape == (1, 1)
        assert op.matrix[0, 0] == 4.0

    def test_stencil_on_constant_interior(self):
        # h = 0.5; interior corner keeps 2 neighbours, so (4 - 2)/h^2 = 8
        g = Grid(4, 1.0)
        op = NegLaplacian(g)
        u = np.zeros(g.shape)
        u[1:-1, 1:-1] = 1.0
        out = op.apply(u)
        assert out[1, 1] == pytest.approx(8.0)
        assert out[2, 2] == pytest.approx(0.0)  # all 4 neighbours present
        assert out[1, 2] == pytest.approx(4.0)  # edge of the interior block

    def test_smallest_eigenvalue_matches_dense_oracle(self):
        g = Grid(8, 1.0)
        op = NegLaplacian(g)
        eigs = np.linalg.eigvalsh(op.matrix.toarray())
        assert np.all(eigs > 0)  # positive definite
        formula = 8.0 / g.h**2 * np.sin(np.pi * g.h / 4.0) ** 2
        assert eigs[0] == pytest.approx(formula, rel=1e-12)

    def test_diagonal_and_symmetry_structure(self):
        g = Grid(6, 1.5)
        op = NegLaplacian(g)
        mat = op.matrix.toarray()
        assert np.allclose(np.diag(mat), 4.0 / g.h**2)
        assert np.array_equal(mat, mat.T)
        assert np.all(mat.sum(axis=1) >= -1e-12)


class TestLinearSolve:
    def test_single_node_system(self):
        g = Grid(2, 1.0)
        rhs = np.zeros(g.shape)
        rhs[1, 1] = 1.0
        u = NegLaplacian(g).solve(rhs)
        assert u[1, 1] == pytest.approx(0.25)

    def test_zero_rhs(self):
        g = Grid(8, 1.0)
        u = NegLaplacian(g).solve(np.zeros(g.shape))
        assert np.all(u == 0.0)

    def test_componentwise_pair_solve(self):
        g = Grid(8, 1.0)
        op = NegLaplacian(g)
        rhs = np.zeros((2,) + g.shape)
        rhs[0, 2, 3] = 1.0
        rhs[1, 4, 4] = -2.0
        u = op.solve(rhs)
        assert np.allclose(u[0], op.solve(rhs[0]))
        assert np.allclose(u[1], op.solve(rhs[1]))

    def test_manufactured_poisson_convergence(self):
        # -Lap kappa = (pi^2/2) kappa, so the discrete error is O(h^2)
        errs = {}
        for n in (16, 32):
            g = Grid(n, 1.0)
            rhs = (np.pi**2 / 2.0) * g.sample_scalar(kappa)
            u = NegLaplacian(g).solve(rhs)
            errs[n] = np.abs(u - g.sample_scalar(kappa)).max()
        assert 3.5 <= errs[16] / errs[32] <= 4.5

    def test_shape_mismatch_rejected(self):
        op = NegLaplacian(Grid(8, 1.0))
        with pytest.raises(ValueError):
            op.solve(np.zeros((5, 5)))

    @pytest.mark.parametrize("n", [8, DENSE_SINE_MAX_N + 8])
    def test_non_finite_rhs_rejected(self, n):
        g = Grid(n, 1.0)
        rhs = np.zeros(g.shape)
        rhs[3, 4] = np.nan
        with pytest.raises(NumericalError, match="non-finite"):
            NegLaplacian(g).solve(rhs)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 40), x_max=st.floats(0.25, 4.0),
           seed=st.integers(0, 2**32 - 1), pair=st.booleans())
    @example(n=DENSE_SINE_MAX_N + 8, x_max=1.5, seed=3, pair=True)  # transform side
    def test_sine_transform_solve_matches_sparse_direct(self, n, x_max, seed, pair):
        g = Grid(n, x_max)
        op = NegLaplacian(g)
        rng = np.random.default_rng(seed)
        rhs = rng.standard_normal(((2,) if pair else ()) + g.shape)
        u = op.solve(rhs)
        assert np.all(u[..., [0, -1], :] == 0.0) and np.all(u[..., :, [0, -1]] == 0.0)
        for k in range(2 if pair else 1):
            b = (rhs[k] if pair else rhs)[1:-1, 1:-1].reshape(-1)
            got = (u[k] if pair else u)[1:-1, 1:-1].reshape(-1)
            ref = spla.spsolve(op.matrix.tocsc(), b)
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 130), x_max=st.floats(0.25, 4.0),
           seed=st.integers(0, 2**32 - 1), stack=st.sampled_from([(), (2,), (3, 2)]))
    def test_dense_sine_products_match_fft(self, n, x_max, seed, stack):
        # the dense path is forced at every n, so the crossover can move
        # without leaving a mesh size untested
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(grid_module, "DENSE_SINE_MAX_N", 130)
            op = NegLaplacian(Grid(n, x_max))
        b = np.random.default_rng(seed).standard_normal(stack + (n - 1, n - 1))
        axes = (-2, -1)
        ref = fft.idstn(fft.dstn(b, type=1, axes=axes) / op.eigenvalues,
                        type=1, axes=axes)
        got = op.inverse_interior(b)
        assert got.shape == b.shape
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)

    @pytest.mark.parametrize("n", [DENSE_SINE_MAX_N + 1, 128, 256])
    def test_transform_solve_bit_identical_to_scipy_fft(self, n):
        # pocketfft's dst is called with the arguments scipy.fft's dstn and
        # idstn pass it, so the solve keeps the bits of the scipy.fft code
        op = NegLaplacian(Grid(n, 1.5))
        b = interior(np.random.default_rng(n).standard_normal((3, 2, n + 1, n + 1)))
        assert not b.flags.c_contiguous
        axes = (-2, -1)
        ref = fft.idstn(fft.dstn(b, type=1, axes=axes) / op.eigenvalues,
                        type=1, axes=axes)
        assert np.array_equal(op.inverse_interior(b), ref)

    def test_dense_products_only_up_to_crossover(self):
        assert DENSE_SINE_MAX_N < 128  # forward-fine's meshes stay on pocketfft
        assert NegLaplacian(Grid(DENSE_SINE_MAX_N, 1.0))._sine is not None
        assert NegLaplacian(Grid(DENSE_SINE_MAX_N + 1, 1.0))._sine is None

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 30), seed=st.integers(0, 2**32 - 1))
    def test_interior_stencil_matches_matrix(self, n, seed):
        g = Grid(n, 1.0)
        op = NegLaplacian(g)
        u = np.random.default_rng(seed).standard_normal((n - 1, n - 1))
        ref = (op.matrix @ u.reshape(-1)).reshape(u.shape)
        # summation order differs, so the slack is roundoff of the 5 terms
        scale = 8.0 * np.abs(u).max() / g.h**2
        assert np.abs(op.apply_interior(u) - ref).max() <= 1e-15 * scale


class TestInPlaceTransform:
    """Above DENSE_SINE_MAX_N the backward transform writes over the output
    of the forward one; the solve keeps the bits of the out-of-place form."""

    @staticmethod
    def out_of_place(op, b):
        dst, axes = op._dst, (-2, -1)
        return dst(dst(b, 1, axes, 0, None, 1, None) / op.eigenvalues,
                   1, axes, 2, None, 1, None)

    @pytest.mark.parametrize("n", [DENSE_SINE_MAX_N + 1, 128, 256])
    @pytest.mark.parametrize("stack", [(), (2,), (3, 2)])
    def test_same_bits_as_out_of_place(self, n, stack):
        op = NegLaplacian(Grid(n, 1.5))
        rng = np.random.default_rng(n + len(stack))
        full = signed_zeros(rng, rng.standard_normal(stack + (n + 1, n + 1)))
        strided = interior(full)
        assert not strided.flags.c_contiguous
        for b in (strided, np.ascontiguousarray(strided)):
            before = b.copy()
            got = op.inverse_interior(b)
            assert got.shape == b.shape and got.flags.c_contiguous
            assert same_bits(got, self.out_of_place(op, b))
            assert same_bits(b, before)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1),
           stack=st.sampled_from([(), (2,), (3, 2)]), zero=st.booleans())
    def test_dense_transform_never_returns_negative_zero(self, n, seed, stack, zero):
        # so at lambda_a = 0 the fixed point takes every dense solve as its
        # iterate; pocketfft's transform solves zero data to -0.0 (test_forward)
        rng = np.random.default_rng(seed)
        b = rng.standard_normal(stack + (n - 1, n - 1)) * (0.0 if zero else 1.0)
        x = NegLaplacian(Grid(n, 1.0)).inverse_interior(signed_zeros(rng, b, 0.5))
        assert not np.any(np.signbit(x) & (x == 0.0))


def slice_update_stencil(op, u):
    """Reference for NegLaplacian.apply_interior: 4u, then one in-place
    subtraction per neighbour on the strided sub-block that has it."""
    out = 4.0 * u
    out[..., 1:, :] -= u[..., :-1, :]
    out[..., :-1, :] -= u[..., 1:, :]
    out[..., :, 1:] -= u[..., :, :-1]
    out[..., :, :-1] -= u[..., :, 1:]
    out /= op.grid.h**2
    return out


class TestFlatStencil:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 40), lead=st.sampled_from([(), (2,), (3, 2)]),
           strided=st.booleans(), specials=st.integers(0, 4),
           seed=st.integers(0, 2**32 - 1))
    @example(n=2, lead=(3, 2), strided=True, specials=1, seed=0)
    @example(n=2, lead=(), strided=False, specials=0, seed=1)
    @example(n=40, lead=(2,), strided=True, specials=4, seed=2)
    def test_bit_identical_to_slice_updates(self, n, lead, strided, specials, seed):
        rng = np.random.default_rng(seed)
        op = NegLaplacian(Grid(n, 1.3))
        full = signed_zeros(rng, rng.standard_normal(lead + (n + 1, n + 1)))
        # infinities and NaNs on a 2 x 2 block of nodes, so that neighbours
        # meet: inf - inf is NaN in both stencils
        flat = full.reshape(-1)
        block = rng.integers(0, flat.size) + np.array([0, 1, n + 1, n + 2])
        block = block[block < flat.size][:specials]
        flat[block] = rng.choice([np.inf, -np.inf, np.nan], block.size)
        u = interior(full) if strided else np.ascontiguousarray(interior(full))
        kept = u.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            got = op.apply_interior(u)
            ref = slice_update_stencil(op, u)
        assert same_bits(got, ref)
        assert same_bits(u, kept)

    def test_every_mesh_from_one_interior_node(self):
        rng = np.random.default_rng(7)
        for n in range(2, 41):
            op = NegLaplacian(Grid(n, 1.0))
            for lead in ((), (2,), (4, 2)):
                full = signed_zeros(rng, rng.uniform(-1.0, 1.0, lead + (n + 1, n + 1)))
                for u in (interior(full), np.ascontiguousarray(interior(full))):
                    assert same_bits(op.apply_interior(u), slice_update_stencil(op, u))
                ref = np.zeros_like(full)
                ref[..., 1:-1, 1:-1] = slice_update_stencil(op, interior(full))
                assert same_bits(op.apply(full), ref)


class TestNorms:
    def test_kappa_l2_close_to_one(self):
        # integral of kappa^2 over (-1,1)^2 is exactly 1; the lumped sum
        # is compared against a trapezoid quadrature oracle
        g = Grid(32, 1.0)
        field = g.sample_scalar(kappa)
        x = g.nodes1d()
        quad = np.trapezoid(np.trapezoid(field**2, x, axis=1), x)
        assert quad == pytest.approx(1.0, abs=2e-3)
        assert l2_norm(g, field) == pytest.approx(1.0, abs=2e-3)

    def test_kappa_laplace_norm_eigenrelation(self):
        g = Grid(32, 1.0)
        op = NegLaplacian(g)
        field = g.sample_scalar(kappa)
        ratio = laplace_norm(op, field) / l2_norm(g, field)
        assert ratio == pytest.approx(np.pi**2 / 2.0, rel=2e-3)

    def test_h1_norm_of_linear_ramp(self):
        # forward differences of a ramp in x1 are exactly h per edge
        g = Grid(10, 1.0)
        u = np.tile(g.nodes1d()[:, None], (1, g.n + 1))
        expected = np.sqrt(g.n * (g.n + 1) * g.h**2)
        assert h1_norm(g, u) == pytest.approx(expected, rel=1e-12)


class TestOperatorIdentities:
    def test_discrete_integration_by_parts(self):
        # inner(Lu, v) equals the forward-difference Dirichlet form exactly
        g = Grid(12, 1.0)
        op = NegLaplacian(g)
        rng = np.random.default_rng(5)
        for _ in range(5):
            u = np.zeros(g.shape)
            v = np.zeros(g.shape)
            u[1:-1, 1:-1] = rng.standard_normal((g.n - 1, g.n - 1))
            v[1:-1, 1:-1] = rng.standard_normal((g.n - 1, g.n - 1))
            lhs = inner_l2(g, op.apply(u), v)
            du1 = u[1:, :] - u[:-1, :]
            dv1 = v[1:, :] - v[:-1, :]
            du2 = u[:, 1:] - u[:, :-1]
            dv2 = v[:, 1:] - v[:, :-1]
            rhs = float(np.sum(du1 * dv1) + np.sum(du2 * dv2))
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_operator_symmetry(self):
        g = Grid(10, 1.0)
        op = NegLaplacian(g)
        rng = np.random.default_rng(11)
        for _ in range(5):
            u = np.zeros(g.shape)
            v = np.zeros(g.shape)
            u[1:-1, 1:-1] = rng.standard_normal((g.n - 1, g.n - 1))
            v[1:-1, 1:-1] = rng.standard_normal((g.n - 1, g.n - 1))
            assert inner_l2(g, op.apply(u), v) == pytest.approx(
                inner_l2(g, u, op.apply(v)), rel=1e-12
            )
