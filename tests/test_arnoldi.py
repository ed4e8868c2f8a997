"""Krylov baseline: factorization invariants and the projected evaluator."""

import numpy as np
import pytest

from berngen.arnoldi import (arnoldi_extend, arnoldi_q_approx,
                             orthogonality_loss)
from berngen.bvp import circulant_shift, discretize_laplacian, uniform_grid
from berngen.fourier import reference_q
from berngen.matfunc import BandedOperator, spectral_reference


def _prefix(dec, j):
    return dec.prefix(j)


class TestFactorization:
    def test_single_step(self):
        rng = np.random.default_rng(1)
        A = BandedOperator.dense(rng.standard_normal((8, 8)))
        f = rng.standard_normal(8)
        dec = arnoldi_extend(A, f, 1)
        assert dec.j == 1
        assert not dec.breakdown
        assert dec.V.shape == (8, 2)
        assert dec.H.shape == (2, 1)
        assert abs(dec.beta - np.linalg.norm(f)) < 1e-14
        assert np.allclose(dec.V[:, 0], f / np.linalg.norm(f), atol=1e-15)
        assert orthogonality_loss(dec) <= 1e-14

    def test_hessenberg_structure(self):
        rng = np.random.default_rng(2)
        A = BandedOperator.dense(rng.standard_normal((12, 12)))
        dec = arnoldi_extend(A, rng.standard_normal(12), 7)
        for m in range(7):
            assert np.all(dec.H[m + 2:, m] == 0.0)

    def test_symmetric_operator_gives_tridiagonal(self):
        from berngen.bvp import Grid
        grid = Grid(nodes=0.25 * np.arange(26.0))
        A = discretize_laplacian(grid)
        M = A.to_dense()
        assert np.array_equal(M, M.T)
        dec = arnoldi_extend(A, np.ones(24), 10)
        H = dec.H[:10, :10]
        mask = np.triu(np.ones_like(H, dtype=bool), 2)
        assert np.abs(H[mask]).max() <= 1e-10 * A.norm1()

    def test_arnoldi_relation(self):
        """A V_j = V_{j+1} H holds to machine precision."""
        grid = uniform_grid(1.0, 64)
        A = discretize_laplacian(grid)
        rng = np.random.default_rng(3)
        f = rng.standard_normal(64)
        dec = arnoldi_extend(A, f, 30)
        AV = np.stack([A.matvec(dec.V[:, m]) for m in range(30)], axis=1)
        resid = np.linalg.norm(AV - dec.V @ dec.H)
        assert resid <= 1e-12 * A.norm1()

    def test_prefix_matches_fresh_run(self):
        """A long run restricted to its first j steps equals the j-step
        run."""
        rng = np.random.default_rng(4)
        A = BandedOperator.dense(rng.standard_normal((20, 20)))
        f = rng.standard_normal(20)
        full = arnoldi_extend(A, f, 15)
        for j in (1, 5, 11):
            fresh = arnoldi_extend(A, f, j)
            assert np.array_equal(full.V[:, :j + 1], fresh.V)
            assert np.array_equal(full.H[:j + 1, :j], fresh.H)

    def test_shift_invariance_of_basis(self):
        """Adding c I leaves the basis unchanged and shifts diag(H) by c."""
        rng = np.random.default_rng(5)
        M = rng.standard_normal((16, 16))
        A = BandedOperator.dense(M)
        B = BandedOperator.dense(M + 2.5 * np.eye(16))
        f = rng.standard_normal(16)
        da = arnoldi_extend(A, f, 8)
        db = arnoldi_extend(B, f, 8)
        assert np.abs(da.V - db.V).max() <= 1e-10
        shifted = da.H.copy()
        shifted[:8, :8] += 2.5 * np.eye(8)
        assert np.abs(db.H - shifted).max() <= 1e-10

    def test_breakdown_on_invariant_subspace(self):
        C = circulant_shift(40, 1e-8)
        dec = arnoldi_extend(C, np.ones(40), 10)
        assert dec.breakdown
        assert dec.j == 1
        assert dec.V.shape == (40, 1)
        assert dec.H.shape == (1, 1)
        assert abs(dec.H[0, 0] - 1e-8) < 1e-22

    def test_validation(self):
        A = BandedOperator.diagonal([1.0, 2.0])
        with pytest.raises(ValueError):
            arnoldi_extend(A, np.zeros(2), 1)
        with pytest.raises(ValueError):
            arnoldi_extend(A, np.ones(2), 0)
        with pytest.raises(ValueError):
            arnoldi_extend(A, np.ones(2), 3)


class TestOrthogonalityLoss:
    def test_benign_operator_stays_orthogonal(self):
        grid = uniform_grid(1.0, 64)
        A = discretize_laplacian(grid)
        rng = np.random.default_rng(6)
        dec = arnoldi_extend(A, rng.standard_normal(64), 30)
        assert orthogonality_loss(dec) <= 1e-12

    def test_prefix_loss_never_decreases(self):
        grid = uniform_grid(1.0, 64)
        A = discretize_laplacian(grid)
        dec = arnoldi_extend(A, np.ones(64), 40)
        losses = [orthogonality_loss(_prefix(dec, j)) for j in range(1, 41)]
        for a, b in zip(losses, losses[1:]):
            assert b >= a - 1e-16


class TestProjectedEvaluator:
    def test_scalar_case(self):
        A = BandedOperator.diagonal([-1.7])
        dec = arnoldi_extend(A, np.array([2.0]), 1)
        assert dec.breakdown
        got = arnoldi_q_approx(dec, 0.4)[0]
        assert abs(got - 2.0 * reference_q(0.4, -1.7)) < 1e-13

    @pytest.mark.parametrize("w", [1e-9, 1e-6, -1e-5])
    def test_no_cancellation_near_removable_singularity(self, w):
        """phi_1(H_j) stays accurate where e^{H_j} - I cancels (the
        e^{H_j} - I form was off by 1.6e-7 at w = 1e-9)."""
        dec = arnoldi_extend(BandedOperator.diagonal([w]), np.array([2.0]), 1)
        got = arnoldi_q_approx(dec, 0.4)[0]
        assert abs(got - 2.0 * reference_q(0.4, w)) <= 4e-15

    def test_clustered_circulant_breakdown(self):
        """f = ones is an eigenvector of the circulant, so Arnoldi stops at
        j = 1 with H_1 = 1e-8 and must match the FFT reference."""
        A = circulant_shift(64, 1e-8)
        f = np.ones(64)
        dec = arnoldi_extend(A, f, 5)
        assert dec.breakdown and dec.j == 1
        z = spectral_reference(A, 1.0 / 6.0, f)
        assert np.max(np.abs(arnoldi_q_approx(dec, 1.0 / 6.0) - z)) <= 1e-14

    def test_overflow_raises(self):
        """A radius-1e8 circulant overflows the dense kernel on the
        Hessenberg block; the evaluator raises instead of returning NaN."""
        dec = arnoldi_extend(circulant_shift(512, 1e8), np.ones(512), 2)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="non-finite"):
                arnoldi_q_approx(dec, 1.0 / 6.0)

    def test_full_dimension_is_exact(self):
        grid = uniform_grid(1.0, 32)
        A = discretize_laplacian(grid)
        f = np.ones(32)
        dec = arnoldi_extend(A, f, 32)
        got = arnoldi_q_approx(dec, 0.3)
        ref = spectral_reference(A, 0.3, f)
        assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_converges_with_subspace_size(self):
        grid = uniform_grid(1.0, 48)
        A = discretize_laplacian(grid)
        f = np.ones(48)
        ref = spectral_reference(A, 0.25, f)
        dec = arnoldi_extend(A, f, 24)
        errs = []
        for j in (4, 12, 24):
            got = arnoldi_q_approx(_prefix(dec, j), 0.25)
            errs.append(np.linalg.norm(got - ref) / np.linalg.norm(ref))
        assert errs[2] < errs[0]
        assert errs[2] <= 1e-8
