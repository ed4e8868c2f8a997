"""Banded operators, shifted solves, and the matrix action of q."""

import math
import os
import select
import signal
import sys
import threading
import tracemalloc
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg
import sympy
from hypothesis import example, given, settings, strategies as st

import berngen.matfunc
from berngen.acceleration import G_approx, build_triangle, pair_weights
from berngen.arnoldi import arnoldi_extend
from berngen.bernoulli import DEGREE_CAP, eval_bernoulli, shared_table
from berngen.bvp import (circulant_shift, discretize_laplacian,
                         geometric_grid, uniform_grid)
from berngen.cli import _OPERATORS
from berngen.fourier import (ApproxParams, PoleProximityError, parity_signs,
                             reference_q)
from berngen.matfunc import (DENSE_CAP, SCALING_CAP, SPECTRAL_CAP,
                             ActionPlan, BandedOperator, G_action,
                             _complex_solves, _dominant, _expm_dense, _q,
                             g_action, h_action,
                             load_matrix_market, load_tridiagonal,
                             reference_solution, shifted_solve,
                             spectral_reference)

TWO_PI = 2.0 * math.pi


def _random_tridiagonal(rng, s, scale=1.0):
    return BandedOperator.tridiagonal(scale * rng.standard_normal(s - 1),
                                      scale * rng.standard_normal(s),
                                      scale * rng.standard_normal(s - 1))


def _random_periodic(rng, s, off_range=(0.0, 2.0), diag_scale=1.0):
    """Periodic tridiagonal with signed off-diagonals and corners whose
    moduli lie in off_range."""
    def off(n):
        return rng.choice([-1.0, 1.0], n) * rng.uniform(*off_range, n)

    return BandedOperator.tridiagonal(
        off(s - 1), diag_scale * rng.uniform(-2, 2, s), off(s - 1),
        corners=off(2))


class TestBandedOperator:
    def test_tridiagonal_round_trip(self):
        A = BandedOperator.tridiagonal([1.0, 2.0], [3.0, 4.0, 5.0],
                                       [6.0, 7.0])
        M = A.to_dense()
        assert np.array_equal(
            M, [[3.0, 6.0, 0.0], [1.0, 4.0, 7.0], [0.0, 2.0, 5.0]])
        assert A.is_tridiagonal

    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(3)
        A = _random_tridiagonal(rng, 9)
        v = rng.standard_normal(9)
        assert np.allclose(A.matvec(v), A.to_dense() @ v, atol=1e-14)

    @pytest.mark.parametrize("kind", ["tridiagonal", "periodic", "dense"])
    def test_row_stack_matvec_matches_row_wise(self, kind):
        """A 2-D matvec gives each row the arithmetic of a lone vector, in
        every storage and for every batch size."""
        rng = np.random.default_rng(4)
        A = (_random_periodic(rng, 9) if kind == "periodic"
             else _random_tridiagonal(rng, 9))
        if kind == "dense":
            A = BandedOperator.dense(A.to_dense())
        V = rng.standard_normal((5, 9))
        rows = np.array([A.matvec(v) for v in V])
        for lo, hi in ((0, 5), (1, 4), (2, 3)):
            assert np.array_equal(A.matvec(V[lo:hi]), rows[lo:hi])
        assert np.array_equal(A.matvec(V[2]), rows[2])
        assert A.matvec(V[:0]).shape == (0, 9)

    def test_dense_constructor(self):
        M = np.array([[1.0, 2.0], [2.0, 5.0]])
        A = BandedOperator.dense(M)
        assert not A.is_tridiagonal
        got = A.to_dense()
        got[0, 0] = 99.0
        assert A.to_dense()[0, 0] == 1.0

    def test_norm1_is_max_column_sum(self):
        rng = np.random.default_rng(4)
        A = _random_tridiagonal(rng, 7)
        expect = np.abs(A.to_dense()).sum(axis=0).max()
        assert abs(A.norm1() - expect) < 1e-14
        D = BandedOperator.dense(rng.standard_normal((5, 5)))
        expect = np.abs(D.to_dense()).sum(axis=0).max()
        assert abs(D.norm1() - expect) < 1e-14

    def test_one_by_one(self):
        A = BandedOperator.tridiagonal([], [2.5], [])
        assert A.dimension == 1
        assert A.matvec(np.array([2.0]))[0] == 5.0
        for op in (A, BandedOperator.dense([[2.5]])):
            assert np.array_equal(op.to_dense(), [[2.5]])
            assert op.norm1() == 2.5
            assert np.array_equal(op.matvec(np.array([[2.0], [-4.0]])),
                                  [[5.0], [-10.0]])
        B = BandedOperator.tridiagonal([], [-3.0], [])
        assert B.norm1() == 3.0 and B.diag[0] == -3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            BandedOperator.tridiagonal([1.0], [1.0, 2.0, 3.0], [1.0])
        with pytest.raises(ValueError):
            BandedOperator.tridiagonal([], [], [])
        with pytest.raises(ValueError):
            BandedOperator.dense(np.zeros((2, 3)))
        # the solve layer divides by s
        with pytest.raises(ValueError, match="empty dense operator"):
            BandedOperator.dense(np.zeros((0, 0)))

    @pytest.mark.parametrize("s", [3, 4, 9, 30])
    def test_periodic_matches_dense(self, s):
        rng = np.random.default_rng(5 + s)
        for _ in range(5):
            A = _random_periodic(rng, s)
            M = A.to_dense()
            assert M[0, s - 1] == A.corners[0] != 0.0
            assert M[s - 1, 0] == A.corners[1] != 0.0
            assert np.array_equal(np.diag(M, -1), A.sub)
            assert np.array_equal(np.diag(M), A.diag)
            assert np.array_equal(np.diag(M, 1), A.sup)
            assert np.count_nonzero(M) == 3 * s
            v = rng.standard_normal(s)
            assert np.allclose(A.matvec(v), M @ v, rtol=1e-14, atol=1e-14)
            assert abs(A.norm1() - np.abs(M).sum(axis=0).max()) < 1e-13
            assert not A.is_tridiagonal

    def test_norm1_counts_a_lone_corner(self):
        """Column s-1 holds only the corner A[0, s-1], the largest entry."""
        sub, sup = [1.0, 1.0, 1.0], [1.0, 1.0, 0.0]
        A = BandedOperator.tridiagonal(sub, [1.0, 1.0, 1.0, 0.0], sup,
                                       corners=(-7.0, 0.0))
        assert A.norm1() == np.abs(A.to_dense()).sum(axis=0).max() == 7.0
        B = BandedOperator.tridiagonal(sup[::-1], [0.0, 1.0, 1.0, 1.0],
                                       sub, corners=(0.0, 7.0))
        assert B.norm1() == 7.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_refused(self, bad):
        """A NaN or infinite entry would only surface as a NaN solution or
        a RuntimeWarning inside the shifted solve."""
        bands = [np.ones(3), np.zeros(4), np.ones(3)]
        for band in range(3):
            with_bad = [b.copy() for b in bands]
            with_bad[band][1] = bad
            with pytest.raises(ValueError, match="finite"):
                BandedOperator.tridiagonal(*with_bad)
        with pytest.raises(ValueError, match="finite"):
            BandedOperator.tridiagonal(*bands, corners=(1.0, bad))
        with pytest.raises(ValueError, match="finite"):
            BandedOperator.diagonal([1.0, bad])
        with pytest.raises(ValueError, match="finite"):
            BandedOperator.dense([[1.0, bad], [0.0, 1.0]])

    @pytest.mark.parametrize("imag", [0.0, 1.0])
    def test_complex_entries_refused(self, imag):
        """A complex dtype is refused even with zero imaginary parts: numpy
        would drop them with only a ComplexWarning."""
        bad, match = complex(2.0, imag), "operator entries must be real"
        bands = [np.ones(3), np.zeros(4), np.ones(3)]
        for band in range(3):
            with_bad = [b.astype(complex) if i == band else b
                        for i, b in enumerate(bands)]
            with_bad[band][1] = bad
            with pytest.raises(TypeError, match=match):
                BandedOperator.tridiagonal(*with_bad)
        with pytest.raises(TypeError, match=match):
            BandedOperator.tridiagonal(*bands, corners=(1.0, bad))
        with pytest.raises(TypeError, match=match):
            BandedOperator.diagonal([1.0, bad])
        with pytest.raises(TypeError, match=match):
            BandedOperator.dense([[1.0, bad], [0.0, 1.0]])

    def test_corner_validation(self):
        with pytest.raises(ValueError, match="dimension >= 3"):
            BandedOperator.tridiagonal([1.0], [1.0, 2.0], [1.0],
                                       corners=(1.0, 0.0))
        A = BandedOperator.tridiagonal([1.0], [1.0, 2.0], [1.0],
                                       corners=(0.0, 0.0))
        assert A.corners is None and A.is_tridiagonal
        bands = (np.ones(3), np.ones(4), np.ones(3))
        for corners in ((1.0, 2.0, 3.0), (1.0,)):
            with pytest.raises(ValueError, match="two values"):
                BandedOperator.tridiagonal(*bands, corners=corners)


class TestShiftedSolve:
    def test_matches_dense_solve(self):
        rng = np.random.default_rng(11)
        for s, k in ((8, 1), (33, 2), (100, 5)):
            A = _random_tridiagonal(rng, s)
            b = rng.standard_normal(s)
            M = A.to_dense()
            shifted = M @ M + (TWO_PI * k) ** 2 * np.eye(s)
            expect = np.linalg.solve(shifted, b)
            got = shifted_solve(A, k, b)
            assert np.linalg.norm(got - expect) <= 1e-11 * np.linalg.norm(
                expect)

    def test_pivoting_handles_small_diagonal(self):
        """Large off-diagonal entries against a tiny diagonal force row
        swaps in the banded elimination."""
        rng = np.random.default_rng(12)
        s = 40
        A = BandedOperator.tridiagonal(50.0 * np.ones(s - 1),
                                       1e-9 * rng.standard_normal(s),
                                       -50.0 * np.ones(s - 1))
        b = rng.standard_normal(s)
        M = A.to_dense()
        shifted = M @ M + TWO_PI ** 2 * np.eye(s)
        expect = np.linalg.solve(shifted, b)
        got = shifted_solve(A, 1, b)
        assert np.linalg.norm(got - expect) <= 1e-11 * np.linalg.norm(expect)

    def test_scipy_banded_oracle(self):
        rng = np.random.default_rng(13)
        s, k = 60, 3
        A = _random_tridiagonal(rng, s)
        b = rng.standard_normal(s)
        M = A.to_dense()
        shifted = M @ M + (TWO_PI * k) ** 2 * np.eye(s)
        ab = np.zeros((5, s))
        for i in range(s):
            for j in range(max(0, i - 2), min(s, i + 3)):
                ab[2 + i - j, j] = shifted[i, j]
        expect = scipy.linalg.solve_banded((2, 2), ab, b)
        got = shifted_solve(A, k, b)
        assert np.linalg.norm(got - expect) <= 1e-11 * np.linalg.norm(expect)

    def test_diagonal_operator_componentwise(self):
        d = np.array([1.0, -2.0, 0.5, 3.0])
        A = BandedOperator.diagonal(d)
        b = np.array([4.0, 3.0, 2.0, 1.0])
        got = shifted_solve(A, 2, b)
        expect = b / (d * d + (TWO_PI * 2) ** 2)
        assert np.allclose(got, expect, rtol=1e-14)

    def test_zero_operator(self):
        A = BandedOperator.diagonal(np.zeros(5))
        b = np.arange(1.0, 6.0)
        assert np.allclose(shifted_solve(A, 3, b),
                           b / (TWO_PI * 3) ** 2, rtol=1e-15)

    def test_dense_path(self):
        rng = np.random.default_rng(14)
        M = rng.standard_normal((12, 12))
        A = BandedOperator.dense(M)
        b = rng.standard_normal(12)
        expect = np.linalg.solve(M @ M + TWO_PI ** 2 * np.eye(12), b)
        assert np.allclose(shifted_solve(A, 1, b), expect, atol=1e-12)

    def test_singular_shift_raises(self):
        """A^2 = -(2 pi)^2 I makes the k = 1 shifted system exactly
        singular."""
        A = BandedOperator.tridiagonal([-TWO_PI], [0.0, 0.0], [TWO_PI])
        with pytest.raises(np.linalg.LinAlgError):
            shifted_solve(A, 1, np.ones(2))

    def test_mode_index_validated(self):
        A = BandedOperator.diagonal([1.0])
        for k in (0, np.array([1, 0, 2])):
            with pytest.raises(ValueError):
                shifted_solve(A, k, np.ones(1))

    def test_non_integer_mode_index_refused(self):
        """k = 1.5 would solve at the shift (3 pi)^2, between two modes."""
        A = discretize_laplacian(uniform_grid(1.0, 8))
        for k in (1.5, 3.0, np.array([1.0, 2.0]), np.array([[1, 2]])):
            with pytest.raises(TypeError):
                shifted_solve(A, k, np.ones(8))
        assert np.array_equal(shifted_solve(A, np.int64(3), np.ones(8)),
                              shifted_solve(A, 3, np.ones(8)))

    @pytest.mark.parametrize("kind", ["tridiagonal", "periodic", "dense"])
    def test_non_finite_right_hand_side_refused(self, kind):
        rng = np.random.default_rng(15)
        A = (_random_periodic(rng, 6) if kind == "periodic"
             else _random_tridiagonal(rng, 6))
        if kind == "dense":
            A = BandedOperator.dense(A.to_dense())
        for bad in (np.nan, np.inf):
            b = np.ones(6)
            b[2] = bad
            with pytest.raises(ValueError, match="finite"):
                shifted_solve(A, np.arange(1, 4), b)
            with pytest.raises(ValueError, match="finite"):
                ActionPlan(A, 2, 4, 1, b)

    @pytest.mark.parametrize("dense", [False, True])
    def test_right_hand_side_length_validated(self, dense):
        rng = np.random.default_rng(15)
        A = _random_tridiagonal(rng, 6)
        if dense:
            A = BandedOperator.dense(A.to_dense())
        for s in (5, 7):
            with pytest.raises(ValueError):
                shifted_solve(A, 1, np.ones(s))
            with pytest.raises(ValueError):
                ActionPlan(A, 2, 4, 1, np.ones(s))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=12),
           st.integers(min_value=1, max_value=4),
           st.sampled_from([(0.0, 2.0), (30.0, 60.0)]),
           st.sampled_from([1.0, 1e-9]),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_apply_inverts_solve(self, s, k, off_range, diag_scale, seed):
        """Off-diagonals below 2 never swap rows.  Off-diagonals of
        modulus 30..60 exceed every |diagonal - 2 pi k i| <= |2 - 8 pi i|,
        so the first elimination step swaps; s = 1 is the 1x1 system."""
        rng = np.random.default_rng(seed)

        def off():
            return (rng.choice([-1.0, 1.0], s - 1)
                    * rng.uniform(*off_range, s - 1))

        A = BandedOperator.tridiagonal(
            off(), diag_scale * rng.uniform(-2, 2, s), off())
        b = rng.uniform(-2, 2, s)
        t = TWO_PI * k
        x = shifted_solve(A, k, b)
        residual = A.matvec(A.matvec(x)) + t * t * x - b
        assert np.linalg.norm(residual) <= 1e-14 * (
            (A.norm1() + t) ** 2 * np.linalg.norm(x))

    @pytest.mark.parametrize("s", [3, 4, 7, 12, 40])
    def test_periodic_matches_dense_path(self, s):
        """Off-diagonals and corners of modulus 30..60 against a diagonal
        of at most 2: no k here is diagonally dominant, so each takes the
        dense LU, as the dense operator does."""
        rng = np.random.default_rng(16 + s)
        for k in (1, 2, 4):
            for _ in range(6):
                A = _random_periodic(rng, s, (30.0, 60.0))
                b = rng.standard_normal(s)
                got = shifted_solve(A, k, b)
                expect = shifted_solve(BandedOperator.dense(A.to_dense()),
                                       k, b)
                assert np.linalg.norm(got - expect) <= 1e-13 * (
                    np.linalg.norm(expect))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=3, max_value=12),
           st.integers(min_value=1, max_value=4),
           st.sampled_from([(0.0, 2.0), (30.0, 60.0)]),
           st.sampled_from([1.0, 1e-9]),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    @example(4, 1, (30.0, 60.0), 1.0, 545)
    def test_periodic_apply_inverts_solve(self, s, k, off_range, diag_scale,
                                          seed):
        """The residual bound of test_apply_inverts_solve on periodic
        operators, corners drawn like the off-diagonals.  In the explicit
        example A - 2 pi i I has condition number 1.5 but its tridiagonal
        split T about 1.2e3: the Sherman-Morrison cut missed the bound
        (8.9e-14 of the scale); the shift is not diagonally dominant, so it
        takes the dense LU instead."""
        A = _random_periodic(np.random.default_rng(seed), s, off_range,
                             diag_scale)
        b = np.random.default_rng(seed + 1).uniform(-2, 2, s)
        t = TWO_PI * k
        x = shifted_solve(A, k, b)
        residual = A.matvec(A.matvec(x)) + t * t * x - b
        assert np.linalg.norm(residual) <= 1e-14 * (
            (A.norm1() + t) ** 2 * np.linalg.norm(x))

    @pytest.mark.parametrize("dense", [False, True])
    def test_periodic_singular_shift_raises(self, dense):
        """The spectrum of 2 pi times the 4-cycle holds 2 pi i."""
        A = circulant_shift(4, TWO_PI)
        if dense:
            A = BandedOperator.dense(A.to_dense())
        with pytest.raises(np.linalg.LinAlgError):
            shifted_solve(A, 1, np.ones(4))

    @pytest.mark.parametrize("kind", ["tridiagonal", "swapping",
                                      "periodic", "dense", "mixed",
                                      "periodic-mixed"])
    def test_batch_rows_equal_single_solves(self, kind):
        """Each row of a batched call is the single-k result bit for bit,
        whatever else the batch holds and in whatever order.  In the mixed
        kinds k = 1..8 take both the pivoted elimination and cyclic
        reduction."""
        rng = np.random.default_rng(17)
        if kind == "periodic":
            A = _random_periodic(rng, 12, (30.0, 60.0))
        elif kind == "periodic-mixed":
            A = _random_periodic(rng, 12, (4.0, 8.0))
        elif kind == "mixed":
            A = BandedOperator.tridiagonal(rng.uniform(5.0, 10.0, 11),
                                           rng.uniform(-1.0, 1.0, 12),
                                           rng.uniform(5.0, 10.0, 11))
        else:
            A = _random_tridiagonal(rng, 12,
                                    scale=20.0 if kind == "swapping" else 1.0)
        if kind == "dense":
            A = BandedOperator.dense(A.to_dense())
        if kind.endswith("mixed"):
            dominant = _dominant(A, 1j * TWO_PI * np.arange(1, 9))
            assert dominant.any() and not dominant.all()
        b = rng.standard_normal(12)
        single = {k: shifted_solve(A, k, b) for k in range(1, 9)}
        for ks in ([1, 2, 3, 4, 5, 6, 7, 8], [8, 3, 1], [5], [2, 2, 7],
                   np.arange(4, 9)):
            got = shifted_solve(A, np.asarray(ks), b)
            assert got.shape == (len(ks), 12)
            for k, row in zip(ks, got):
                assert np.array_equal(row, single[k])

    @pytest.mark.parametrize("kind", ["tridiagonal", "periodic"])
    def test_batch_width_never_changes_bits(self, kind, monkeypatch):
        """29 cyclic-reduction shifts at s = 4096 in batches of 1, 4, 6, 8
        and all 29 give the same bits.  A batch of one system reaches numpy's
        one-element loops at the last levels, where an in-place complex
        product rounds differently from the batched one."""
        s = 4096
        A = (discretize_laplacian(uniform_grid(192.0, s))
             if kind == "tridiagonal" else circulant_shift(s, 1e-8))
        f = np.random.default_rng(9).standard_normal(s)
        ks = np.arange(1, 30)
        assert _dominant(A, 1j * TWO_PI * ks).all()
        solves = []
        for width in (1, 4, 6, 8, 29):
            monkeypatch.setattr(berngen.matfunc, "_WORK_ROWS", width * s)
            solves.append(shifted_solve(A, ks, f))
        for x in solves[1:]:
            assert np.array_equal(x, solves[0])

    def test_plan_batch_width_never_changes_bits(self, monkeypatch):
        """The 58 solves and Z rows of a trajectory-sized plan in batches
        of 1, 6, 8 and 58."""
        s = 4096
        A = discretize_laplacian(uniform_grid(192.0, s))
        f = np.random.default_rng(9).standard_normal(s)
        plans = []
        for width in (1, 6, 8, 58):
            monkeypatch.setattr(berngen.matfunc, "_WORK_ROWS", width * s)
            plans.append(ActionPlan(A, 2, 50, 4, f))
        for plan in plans[1:]:
            assert np.array_equal(plan._X, plans[0]._X)
            assert np.array_equal(plan._Z, plans[0]._Z)

    @pytest.mark.parametrize("sub, diag, sup", [
        (10.0 * np.ones(8), np.zeros(9), 10.0 * np.ones(8)),
        ([10.0, 10.0], [0.0, 1e-12, 0.0], [-TWO_PI ** 2 / 10.0, 1.0])])
    def test_batch_mixes_swapping_and_plain_shifts(self, sub, diag, sup):
        """Diagonal 0 against a subdiagonal 10: at k = 1 the first column
        swaps (|2 pi i| < 10), at k = 2 it does not (|4 pi i| > 10).  In
        the 3x3 case the unswapped k = 1 elimination would meet the
        pivot 1e-12 in the second column."""
        A = BandedOperator.tridiagonal(sub, diag, sup)
        s = A.dimension
        b = np.random.default_rng(18).standard_normal(s)
        M = A.to_dense()
        got = shifted_solve(A, np.array([1, 2]), b)
        for k, row in zip((1, 2), got):
            t = TWO_PI * k
            expect = np.linalg.solve(M - 1j * t * np.eye(s), b).imag / t
            assert np.linalg.norm(row - expect) <= 1e-14 * np.linalg.norm(
                expect)

    @pytest.mark.parametrize("grid, replaced", [
        (uniform_grid(24.0, 512), 2.57e-15),
        (geometric_grid(0.01, 1.005, 512), 8.09e-15)])
    def test_heat_operators_against_dense_lu(self, grid, replaced):
        """The bvp-compare operators at k = 1..16 and 208; the largest
        error over k = 1..208 falls at k <= 3 on both grids.  The bound is
        2x the error of the per-k elimination this solve replaced: 2.57e-15
        (uniform) and 8.09e-15 (geometric) relative in the max norm."""
        A = discretize_laplacian(grid)
        M = A.to_dense()
        b = np.ones(A.dimension)
        ks = np.append(np.arange(1, 17), 208)
        for k, row in zip(ks, shifted_solve(A, ks, b)):
            t = TWO_PI * k
            expect = np.linalg.solve(M - 1j * t * np.eye(len(b)), b).imag / t
            assert np.abs(row - expect).max() <= 2 * replaced * np.abs(
                expect).max()

    def test_periodic_batch_meets_residual_bound(self):
        """k = 1..4 on the explicit example of
        test_periodic_apply_inverts_solve, where the Sherman-Morrison cut
        fails at k = 1, held to the same residual bound."""
        A = _random_periodic(np.random.default_rng(545), 4, (30.0, 60.0))
        b = np.random.default_rng(546).uniform(-2, 2, 4)
        ks = np.arange(1, 5)
        for k, x in zip(ks, shifted_solve(A, ks, b)):
            t = TWO_PI * k
            residual = A.matvec(A.matvec(x)) + t * t * x - b
            assert np.linalg.norm(residual) <= 1e-14 * (
                (A.norm1() + t) ** 2 * np.linalg.norm(x))

    @pytest.mark.parametrize("kind", ["tridiagonal", "periodic", "dense"])
    def test_singular_shift_inside_batch_raises(self, kind):
        if kind == "periodic":
            A = circulant_shift(4, TWO_PI)
        else:
            A = BandedOperator.tridiagonal([-TWO_PI], [0.0, 0.0], [TWO_PI])
        if kind == "dense":
            A = BandedOperator.dense(A.to_dense())
        with pytest.raises(np.linalg.LinAlgError):
            shifted_solve(A, np.array([2, 1, 3]), np.ones(A.dimension))

    def test_near_pole_shift_raises(self):
        """Bands [a], [0, 0], [-a] give the eigenvalues +-a i.  At
        a = 6 pi + 1e-14 the k = 3 system is not singular, but its
        solution is ~1e14 times b, which a plan would turn into a vector
        of norm 2e15; at a = 6 pi the elimination meets a zero pivot."""
        f = np.ones(2)
        for a, error in ((3 * TWO_PI + 1e-14, PoleProximityError),
                         (3 * TWO_PI, np.linalg.LinAlgError)):
            A = BandedOperator.tridiagonal([a], [0.0, 0.0], [-a])
            with pytest.raises(error):
                ActionPlan(A, 2, 10, 2, f).evaluate(0.3)
            with pytest.raises(error):
                shifted_solve(A, np.arange(1, 6), f)

    @staticmethod
    def _non_normal(s):
        """tridiag(1.9, 2, 300): real spectrum in [-45.7, 49.7], but so far
        from normal that its pseudospectrum reaches 2 pi k i."""
        return BandedOperator.tridiagonal(1.9 * np.ones(s - 1),
                                          2.0 * np.ones(s),
                                          300.0 * np.ones(s - 1))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("s, k", [(512, 1), (2048, 1), (2048, 11)])
    def test_non_finite_solution_raises(self, s, k):
        """The pivoted elimination overflows to NaN rows here, which no
        pivot check and no ||y||_1 bound saw: the solve returned them
        with only a RuntimeWarning."""
        with pytest.raises(np.linalg.LinAlgError, match=f"k = {k} "):
            shifted_solve(self._non_normal(s), k, np.ones(s))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_solution_fails_the_plan(self):
        """The same operator at s = 2048 gave a plan whose evaluate held
        1,752 NaN entries."""
        s = 2048
        with pytest.raises(np.linalg.LinAlgError, match="k = 1 "):
            plan = ActionPlan(self._non_normal(s), 2, 10, 0, np.ones(s))
            plan.evaluate(0.3)

    @pytest.mark.parametrize("A, pivoted", [
        (discretize_laplacian(uniform_grid(24.0, 64)), []),
        (discretize_laplacian(geometric_grid(0.01, 1.005, 64)), []),
        (circulant_shift(64, 1e-8), []),
        (circulant_shift(12, 30.0), [1, 2, 3, 4]),
        (BandedOperator.tridiagonal([3 * TWO_PI], [0.0, 0.0],
                                    [-3 * TWO_PI]), [1, 2, 3])])
    def test_path_per_shift(self, monkeypatch, A, pivoted):
        """Cyclic reduction takes exactly the k at which every row of
        A - 2 pi k i I is strictly diagonally dominant: every k on both
        heat operators and the radius-1e-8 circulant, k > 4 on the
        radius-30 one, and k > 3 where 2 pi k must beat the off-diagonal
        6 pi.  The other k take a pivoted solve: the banded elimination on
        a tridiagonal operator, in one call for all of them, and numpy's
        dense LU on a periodic one."""
        paths, calls = {}, []

        def recording(name, kernel):
            def run(A, z, b):
                k = np.rint(z.imag / TWO_PI).astype(int).tolist()
                paths.update(dict.fromkeys(k, name))
                calls.append(name)
                return kernel(A, z, b)
            return run

        def dense_lu(M, b, solve=np.linalg.solve):
            paths[round(-M[1, 1].imag / TWO_PI)] = "dense LU"
            return solve(M, b)

        reduction = ("_cyclic_reduction", "_periodic_solve")
        for name in ("_pivoted_elimination",) + reduction:
            monkeypatch.setattr(berngen.matfunc, name, recording(
                name, getattr(berngen.matfunc, name)))
        monkeypatch.setattr(np.linalg, "solve", dense_lu)
        try:
            shifted_solve(A, np.arange(1, 9), np.ones(A.dimension))
        except np.linalg.LinAlgError:   # 6 pi i is an eigenvalue of the last
            pass
        expect = ("dense LU" if A.corners is not None
                  else "_pivoted_elimination")
        assert [k for k, name in sorted(paths.items())
                if name not in reduction] == pivoted
        assert {paths[k] for k in pivoted} <= {expect}
        assert sorted(paths) == list(range(1, 9))
        assert calls.count("_pivoted_elimination") == (
            1 if pivoted and A.corners is None else 0)

    @pytest.mark.parametrize("scale", [30.0, 1e8])
    def test_non_dominant_circulant_solves(self, scale):
        """Every eigenvalue lies on the circle of radius 30 (or 1e8), far
        from 2 pi k i, yet the Sherman-Morrison cut's tridiagonal part
        grows like (scale / 2 pi k)^s: at s = 64 the cut raised
        PoleProximityError (radius 30) or overflowed (1e8).  k = 1..4
        (radius 30) and k = 1..8 (1e8) are not diagonally dominant and
        take the dense LU.  The suite fails on any RuntimeWarning."""
        A = circulant_shift(64, scale)
        M, b = A.to_dense(), np.random.default_rng(19).standard_normal(64)
        ks = np.arange(1, 9)
        for k, row in zip(ks, shifted_solve(A, ks, b)):
            t = TWO_PI * k
            expect = np.linalg.solve(M - 1j * t * np.eye(64), b).imag / t
            assert np.linalg.norm(row - expect) <= 1e-14 * np.linalg.norm(
                expect)

    def test_non_dominant_periodic_above_dense_cap_refused(self):
        """Above DENSE_CAP a non-dominant periodic shift raises LinAlgError
        before any solve: no s x s matrix, no RuntimeWarning (which fails
        the suite)."""
        s = 2 * DENSE_CAP
        A, b = circulant_shift(s, 30.0), np.ones(s)
        tracemalloc.start()
        try:
            with pytest.raises(np.linalg.LinAlgError, match="DENSE_CAP"):
                shifted_solve(A, 1, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.01 * 8.0 * s * s

    @pytest.mark.parametrize("grid, measured", [
        (uniform_grid(24.0, 512), 3.34e-15),
        (geometric_grid(0.01, 1.005, 512), 7.26e-15)])
    def test_forward_error_against_extended_precision(self, grid, measured):
        """Y_k = f - t_k^2 x_k, the mode row a plan keeps, against a Thomas
        solve in np.clongdouble, on the bvp-compare operators at
        k = 1..208.  Refined cyclic reduction has the lower median error
        (1.0e-15 against 1.5e-15 uniform, 7.3e-16 against 9.7e-16
        geometric, relative in the max norm); its largest error is frozen
        at three times the value measured when the test was written."""
        A = discretize_laplacian(grid)
        f, t = np.ones(A.dimension), TWO_PI * np.arange(1, 209)
        d = A.diag.astype(np.longdouble)[:, None] - 1j * t.astype(
            np.longdouble)
        y = np.empty(d.shape, dtype=np.clongdouble)
        y[:] = f[:, None]
        for i in range(1, A.dimension):
            mult = A.sub[i - 1] / d[i - 1]
            d[i] -= mult * A.sup[i - 1]
            y[i] -= mult * y[i - 1]
        y[-1] /= d[-1]
        for i in range(A.dimension - 2, -1, -1):
            y[i] = (y[i] - A.sup[i] * y[i + 1]) / d[i]
        expect = f - t.astype(np.longdouble)[:, None] * y.T.imag
        errors = {}
        for kernel in (berngen.matfunc._cyclic_reduction,
                       berngen.matfunc._pivoted_elimination):
            x = kernel(A, 1j * t, np.broadcast_to(f, (len(t), len(f)))).imag
            got = f - t[:, None] * x
            errors[kernel] = (np.abs(got - expect).max(axis=1)
                              / np.abs(expect).max(axis=1)).astype(float)
        reduced, pivoted = errors.values()
        assert np.median(reduced) <= np.median(pivoted)
        assert reduced.max() <= 3.0 * measured


class TestNonDominantAtScale:
    """The advection operator tridiag(51, -2, -49): k = 1..15 are not
    diagonally dominant, so they take the pivoted elimination, and
    sub * sup < 0, so spectral_reference refuses it.  Each bound is three
    times the error measured when the test was written."""

    @staticmethod
    def _advection(s):
        return BandedOperator.tridiagonal(51.0 * np.ones(s - 1),
                                          -2.0 * np.ones(s),
                                          -49.0 * np.ones(s - 1))

    def test_route(self):
        A = self._advection(64)
        dominant = _dominant(A, 1j * TWO_PI * np.arange(1, 59))
        assert not dominant[:15].any() and dominant[15:].all()
        with pytest.raises(ValueError, match="sub"):
            spectral_reference(A, 0.5, np.ones(64))

    def test_plan_against_pade_reference(self):
        s = 512
        A = self._advection(s)
        f = np.random.default_rng(7).standard_normal(s)
        taus = (1.0 / 12.0, 1.0 / 6.0, 0.5, 11.0 / 12.0)
        plan = ActionPlan(A, 2, 50, 4, f)
        for tau, ref, error in zip(taus, reference_solution(A, taus, f),
                                   (7.97e-9, 2.90e-11, 8.67e-14, 2.07e-8)):
            z = plan.evaluate(tau)
            assert np.max(np.abs(z - ref)) <= 3.0 * error * np.max(
                np.abs(ref))

    def test_solves_against_scipy_banded(self):
        """k = 1..58 at s = 4096, the trajectory workload's shifts;
        largest error 7.78e-14 relative in the max norm."""
        s = 4096
        A = self._advection(s)
        f = np.random.default_rng(8).standard_normal(s)
        ks = np.arange(1, 59)
        ab = np.zeros((3, s), dtype=complex)
        ab[0, 1:], ab[2, :-1] = A.sup, A.sub
        for k, x in zip(ks, shifted_solve(A, ks, f)):
            t = TWO_PI * k
            ab[1] = A.diag - 1j * t
            expect = scipy.linalg.solve_banded((1, 1), ab, f + 0j).imag / t
            assert np.max(np.abs(x - expect)) <= 3.0 * 7.78e-14 * np.max(
                np.abs(expect))


class TestGeneralShifts:
    """_complex_solves at real and complex shifts z, not only 2 pi k i,
    against numpy's dense solve of (A - z I) y = b at s = 64.  Each bound
    is three times the largest error over the shifts, relative in the max
    norm, measured when the test was written; the dense operator and the
    circulant's non-dominant shifts take numpy's LU itself."""

    Z = np.array([0.5, 20.0, 3 + 7j, -1 + 40j, TWO_PI * 1j])

    @pytest.mark.parametrize("A, measured", [
        (discretize_laplacian(uniform_grid(24.0, 64)), 3.22e-16),
        (discretize_laplacian(geometric_grid(0.01, 1 + 8 / 64, 64)),
         3.29e-16),
        (circulant_shift(64, 1e-8), 3.72e-16),
        (circulant_shift(64, 30.0), 5.57e-16),
        (BandedOperator.tridiagonal(51.0 * np.ones(63), -2.0 * np.ones(64),
                                    -49.0 * np.ones(63)), 6.02e-16),
        (BandedOperator.dense(
            np.random.default_rng(23).standard_normal((16, 16))), 0.0)],
        ids=["uniform", "geometric", "circulant-1e-8", "circulant-30",
             "advection", "dense"])
    def test_against_dense_solve(self, A, measured):
        s, M = A.dimension, A.to_dense()
        b = np.random.default_rng(29).standard_normal(s)
        got = np.full((len(self.Z), s), np.nan, dtype=complex)
        for j, y in _complex_solves(A, self.Z, b):
            got[j] = y
        for z, row in zip(self.Z, got):
            expect = np.linalg.solve(M - z * np.eye(s), b)
            assert np.max(np.abs(row - expect)) <= 3.0 * measured * np.max(
                np.abs(expect))
        if A._dense is None:
            r = np.abs(M).sum(axis=1) - np.abs(A.diag)
            assert np.array_equal(_dominant(A, self.Z), np.all(
                np.abs(A.diag - self.Z[:, None]) > r, axis=1))

    @pytest.mark.parametrize("grid", [uniform_grid(24.0, 64),
                                      geometric_grid(0.01, 1 + 8 / 64, 64)],
                             ids=["uniform", "geometric"])
    def test_real_shifts_take_reduction_on_heat_operators(self, grid):
        """Every row of a heat operator is weakly dominant, |d_i| = r_i
        with d_i < 0, so z = 0 is not dominant and every real z > 0 is:
        the shifts (I - gamma A)^{-1} of shift-and-invert take cyclic
        reduction."""
        A = discretize_laplacian(grid)
        z = np.geomspace(1e-3, 1e3, 13) + 0j
        assert _dominant(A, z).all()
        assert not _dominant(A, np.zeros(1, dtype=complex)).any()


class TestWorkMemory:
    """tracemalloc peaks: the banded paths at s = 4096, the size of the
    trajectory workload, and the dense phi_1 kernel at n = 256."""

    S = 4096

    @staticmethod
    def _peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("kind, per_shift", [("tridiagonal", 40.0),
                                                 ("periodic", 70.0)])
    def test_solve_bytes_per_shift_and_row(self, kind, per_shift):
        """Eight shifts per batch: the tridiagonal path measured 39.3 bytes
        per shift and row and the periodic one 43.7, the periodic one
        reducing u and b at once against one copy of the diagonals.  Of
        each, 8 bytes per shift and row are the result; the rest, about
        113 and 129 bytes per row of each shift in the batch, is the
        batch's work."""
        A = (discretize_laplacian(uniform_grid(192.0, self.S))
             if kind == "tridiagonal" else circulant_shift(self.S, 1e-8))
        f = np.random.default_rng(9).standard_normal(self.S)
        ks = np.arange(1, 30)
        peak = self._peak(lambda: shifted_solve(A, ks, f)) / (
            len(ks) * self.S)
        assert peak <= per_shift, (
            f"{peak:.1f} bytes per shift and row, bound {per_shift}")

    def test_plan_build_peak(self):
        """The build fills X and Z (24 bytes per mode and row) only after
        the eliminations' work arrays are freed, so it peaks within 15 %
        of what it keeps (10.3 % measured)."""
        A = discretize_laplacian(uniform_grid(192.0, self.S))
        f = np.random.default_rng(9).standard_normal(self.S)
        peak = self._peak(lambda: ActionPlan(A, 2, 50, 4, f)) / (
            8.0 * (3 * 58 + 2) * self.S)
        assert peak <= 1.15, f"peak {peak:.3f} x what it keeps, bound 1.15"

    def test_phi1_block_kernel_peak(self):
        """The kernel works on n x 2n top rows and peaks at 22 n^2 doubles
        (measured); exponentiating the 2n x 2n augmented matrix whole
        peaks at 44 n^2."""
        n = 256
        M = 10.0 * np.random.default_rng(9).standard_normal((n, n))
        peak = self._peak(lambda: _expm_dense(M, phi1=True)) / (8.0 * n * n)
        assert peak <= 26.0, f"{peak:.1f} n^2 doubles, bound 26"


class TestPolynomialAction:
    def test_order_one_is_identity(self):
        rng = np.random.default_rng(21)
        A = _random_tridiagonal(rng, 6)
        f = rng.standard_normal(6)
        assert np.array_equal(h_action(A, 1, 0.7, f), f)

    def test_scalar_matches_polynomial(self):
        """On a 1 x 1 operator the matrix polynomial part is the scalar
        one, bit for bit: both run Horner over the same weights."""
        from berngen.bernoulli import lanczos_polynomial
        table = shared_table()
        for a in (-10.0, -1.3, 0.0, 1.3, 4.0):
            A = BandedOperator.diagonal([a])
            for p in (1, 2, 5, 8, DEGREE_CAP + 1):
                got = h_action(A, p, 0.4, np.array([1.0]))[0]
                assert got == lanczos_polynomial(table, p, 0.4, a), (p, a)

    def test_matches_dense_powers(self):
        from berngen.bernoulli import eval_bernoulli, shared_table
        rng = np.random.default_rng(22)
        A = _random_tridiagonal(rng, 6)
        f = rng.standard_normal(6)
        M = A.to_dense()
        table = shared_table()
        expect = np.zeros(6)
        for k in range(6):
            expect += (eval_bernoulli(table, k, 0.3) / math.factorial(k)) * (
                np.linalg.matrix_power(M, k) @ f)
        assert np.linalg.norm(h_action(A, 6, 0.3, f) - expect) < 1e-12

    def test_order_validated(self):
        A = BandedOperator.diagonal([1.0])
        with pytest.raises(ValueError):
            h_action(A, 0, 0.5, np.ones(1))


class TestActionPlan:
    def test_solve_budget_is_exact(self):
        counting = uniform_grid(1.0, 14)
        A = discretize_laplacian(counting)
        f = np.ones(A.dimension)
        for N, ell in ((5, 0), (5, 2), (12, 4)):
            plan = ActionPlan(A, 2, N, ell, f)
            assert plan.solve_count == N + 2 * ell
            before = plan.solve_count
            plan.evaluate(0.25)
            plan.evaluate(0.75)
            assert plan.solve_count == before

    def test_zero_operator_returns_f(self):
        A = BandedOperator.diagonal(np.zeros(4))
        f = np.array([1.0, -2.0, 3.0, 0.5])
        got = ActionPlan(A, 2, 20, 2, f).evaluate(0.3)
        assert np.linalg.norm(got - f) < 1e-12

    def test_scalar_case_matches_reference_q(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            a = float(rng.uniform(-5.0, 2.0))
            tau = float(rng.uniform(0.05, 0.95))
            A = BandedOperator.diagonal([a])
            got = ActionPlan(A, 2, 120, 3, np.array([1.0])).evaluate(tau)[0]
            assert abs(got - reference_q(tau, a)) < 1e-8 * max(
                1.0, abs(reference_q(tau, a)))

    def test_validation(self):
        A = BandedOperator.diagonal([1.0])
        f = np.ones(1)
        with pytest.raises(ValueError):
            ActionPlan(A, 0, 10, 0, f)
        with pytest.raises(ValueError):
            ActionPlan(A, 2, 0, 0, f)
        with pytest.raises(ValueError):
            ActionPlan(A, 2, 10, -1, f)
        with pytest.raises(ValueError):
            ActionPlan(A, 2, 10, 0, f, scheme="magic")

    def test_banded_and_dense_storage_agree(self):
        rng = np.random.default_rng(31)
        A = _random_tridiagonal(rng, 20, scale=0.5)
        D = BandedOperator.dense(A.to_dense())
        f = rng.standard_normal(20)
        for scheme in ("stabilized", "direct"):
            a = ActionPlan(A, 3, 15, 2, f, scheme=scheme).evaluate(0.3)
            d = ActionPlan(D, 3, 15, 2, f, scheme=scheme).evaluate(0.3)
            assert np.linalg.norm(a - d) <= 1e-12 * np.linalg.norm(a)

    def test_schemes_agree_on_benign_operator(self):
        """For a well-scaled operator the two constructions coincide."""
        rng = np.random.default_rng(32)
        A = _random_tridiagonal(rng, 16, scale=0.5)
        f = rng.standard_normal(16)
        direct = ActionPlan(A, 2, 30, 0, f, scheme="direct").evaluate(0.25)
        stab = ActionPlan(A, 2, 30, 0, f, scheme="stabilized").evaluate(0.25)
        assert np.linalg.norm(direct - stab) <= 1e-10 * np.linalg.norm(stab)

    def test_odd_order_with_p_one(self):
        A = BandedOperator.diagonal([-1.5, -0.25])
        f = np.array([1.0, 2.0])
        got = ActionPlan(A, 1, 400, 0, f).evaluate(0.3)
        expect = np.array([reference_q(0.3, -1.5), 2.0 * reference_q(
            0.3, -0.25)])
        assert np.linalg.norm(got - expect) < 1e-3
        got = ActionPlan(A, 1, 100, 3, f).evaluate(0.3)
        assert np.linalg.norm(got - expect) < 1e-7

    def test_tau_outside_unit_interval(self):
        A = discretize_laplacian(uniform_grid(24.0, 16))
        plan = ActionPlan(A, 2, 50, 3, np.ones(A.dimension))
        for tau in (-0.5, 1.5, math.nan):
            with pytest.raises(ValueError, match=r"tau must lie in \[0, 1\]"):
                plan.evaluate(tau)

    def test_rows_are_formed_once_per_plan(self, monkeypatch):
        """A build makes one matvec row per solved mode plus one for A f
        (a 2-D matvec counts one per row); a view within its source's
        modes makes none and shares its source's arrays; stabilized p = 2
        evaluates with no matvec, p = 3 with one."""
        A = discretize_laplacian(uniform_grid(1.0, 14))
        f = np.ones(A.dimension)
        calls = []
        original = BandedOperator.matvec

        def counting(self, v):
            calls.append(len(v) if np.ndim(v) == 2 else 1)
            return original(self, v)

        monkeypatch.setattr(BandedOperator, "matvec", counting)
        for p, N, ell, scheme in ((2, 8, 2, "stabilized"), (3, 10, 1,
                                  "stabilized"), (6, 5, 0, "direct")):
            calls.clear()
            ActionPlan(A, p, N, ell, f, scheme)
            assert sum(calls) == N + 2 * ell + 1
        base = ActionPlan(A, 2, 12, 2, f)
        for p, N, ell, scheme in ((2, 12, 2, "stabilized"),
                                  (1, 8, 3, "stabilized"),
                                  (6, 16, 0, "direct")):
            calls.clear()
            view = base.view(p, N, ell, scheme)
            assert calls == [] and view.solve_count == 0
            assert np.shares_memory(view._X, base._X)
            assert np.shares_memory(view._Z, base._Z)
        calls.clear()
        assert base.view(2, 20, 1).solve_count == 6 and sum(calls) == 6
        for p, expect in ((2, 0), (3, 1)):
            plan = base.view(p, 12, 2)
            calls.clear()
            plan.evaluate(0.3)
            assert sum(calls) == expect

    def test_circulant_plan_avoids_dense_solve(self, monkeypatch):
        """The clustered circulant of arnoldi-compare --test 4 is solved in
        its periodic form, never by the dense LU."""
        calls = []
        original = np.linalg.solve

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(berngen.matfunc.np.linalg, "solve", counting)
        plan = ActionPlan(circulant_shift(512, 1e-8), 2, 50, 4, np.ones(512))
        assert plan.solve_count == 58
        assert calls == []

    @pytest.mark.parametrize("dense", [False, True])
    def test_view_matches_standalone_plan(self, dense):
        rng = np.random.default_rng(35)
        if dense:
            A = BandedOperator.dense(0.3 * rng.standard_normal((8, 8)))
        else:
            A = _random_tridiagonal(rng, 8, scale=0.5)
        f = rng.standard_normal(8)
        base = ActionPlan(A, 2, 12, 2, f)
        for p in (1, 2, 3, 6, 10):
            for scheme in ("stabilized", "direct"):
                for N, ell in ((8, 1), (12, 2), (15, 3), (20, 0)):
                    view = base.view(p, N, ell, scheme)
                    alone = ActionPlan(A, p, N, ell, f, scheme)
                    for tau in (0.1, 0.3, 0.85):
                        assert np.array_equal(view.evaluate(tau),
                                              alone.evaluate(tau))
        if dense:
            # a view's new D rows once came from one GEMM over the batch,
            # which at s = 512 rounded them unlike a standalone plan's
            A = BandedOperator.dense(rng.standard_normal((512, 512)) / 23.0)
            f = rng.standard_normal(512)
            base = ActionPlan(A, 2, 1, 0, f)
            for N in (2, 9):
                assert np.array_equal(base.view(2, N, 0).evaluate(0.3),
                                      ActionPlan(A, 2, N, 0, f).evaluate(0.3))

    def test_view_solves_only_missing_modes(self, monkeypatch):
        A = discretize_laplacian(uniform_grid(1.0, 14))
        f = np.ones(A.dimension)
        base = ActionPlan(A, 2, 12, 2, f)
        calls = []
        original = berngen.matfunc.shifted_solve

        def counting(A, k, b):
            calls.extend(np.atleast_1d(k).tolist())
            return original(A, k, b)

        monkeypatch.setattr(berngen.matfunc, "shifted_solve", counting)
        for p, N, ell, scheme, missing in (
                (2, 8, 3, "stabilized", 0), (6, 16, 0, "direct", 0),
                (2, 12, 2, "stabilized", 0), (3, 20, 3, "direct", 10)):
            calls.clear()
            view = base.view(p, N, ell, scheme)
            assert view.solve_count == missing == len(calls)
            assert calls == list(range(17, 17 + missing))
        calls.clear()
        deeper = base.view(2, 20, 3).view(2, 26, 1)
        assert deeper.solve_count == 2
        assert calls == list(range(17, 29))

    def test_base_unchanged_after_views(self):
        rng = np.random.default_rng(36)
        A = _random_tridiagonal(rng, 10, scale=0.5)
        f = rng.standard_normal(10)
        base = ActionPlan(A, 2, 10, 2, f)
        taus = (0.2, 0.5, 0.9)
        before = [base.evaluate(tau) for tau in taus]
        for p, N, ell, scheme in ((1, 5, 1, "stabilized"),
                                  (6, 20, 0, "direct"),
                                  (2, 30, 4, "stabilized")):
            base.view(p, N, ell, scheme).evaluate(0.5)
        assert (base.p, base.N, base.ell, base.solve_count) == (2, 10, 2, 14)
        assert base.view(2, 30, 4).solve_count == 30 + 8 - 14
        for tau, expect in zip(taus, before):
            assert np.array_equal(base.evaluate(tau), expect)

    def test_view_validates(self):
        base = ActionPlan(BandedOperator.diagonal([1.0]), 2, 10, 0, np.ones(1))
        with pytest.raises(ValueError):
            base.view(0, 10, 0)
        with pytest.raises(ValueError):
            base.view(2, 10, 0, scheme="magic")

    def test_order_above_bernoulli_cap_fails_before_solving(
            self, monkeypatch):
        A = discretize_laplacian(uniform_grid(1.0, 6))
        f = np.ones(A.dimension)
        base = ActionPlan(A, 2, 4, 1, f)
        calls = []
        original = berngen.matfunc.shifted_solve

        def counting(A, k, b):
            calls.extend(np.atleast_1d(k).tolist())
            return original(A, k, b)

        monkeypatch.setattr(berngen.matfunc, "shifted_solve", counting)
        p = DEGREE_CAP + 2
        with pytest.raises(ValueError):
            ActionPlan(A, p, 4, 1, f)
        with pytest.raises(ValueError):
            base.view(p, 8, 1)
        assert calls == []
        got = base.view(p - 1, 4, 1).evaluate(0.3)
        assert np.all(np.isfinite(got)) and calls == []

    @pytest.mark.parametrize("p", [1, 2, 3, 6])
    @pytest.mark.parametrize("scheme", ["stabilized", "direct"])
    def test_evaluate_matches_explicit_formula(self, p, scheme):
        """evaluate equals the correctly rounded sum of every term of the
        approximation, each built from dense solves and matrix powers."""
        rng = np.random.default_rng(37)
        s = 8
        A = _random_tridiagonal(rng, s, scale=0.5)
        f = rng.standard_normal(s)
        M = A.to_dense()
        sc, ss = parity_signs(p)
        x = sympy.symbols("x")
        bern = [sympy.bernoulli(k, x) / math.factorial(k) for k in range(p)]
        poly = [np.linalg.matrix_power(M, k) @ f for k in range(p)]
        gam, dlt = [], []
        for k in range(1, 41):  # N + 2 ell of the deepest plan below
            tk = TWO_PI * k
            xk = np.linalg.solve(M @ M + tk ** 2 * np.eye(s), f)
            u = np.linalg.matrix_power(M, p) @ xk / tk ** (p - 2)
            v = np.linalg.matrix_power(M, p + 1) @ xk / tk ** (p - 1)
            gam.append(v if p % 2 else u)
            dlt.append(u if p % 2 else v)
        for N, ell in ((1, 2), (7, 0), (12, 3), (30, 5)):
            plan = ActionPlan(A, p, N, ell, f, scheme)
            for tau in (0.1, 0.37, 0.8):
                terms = [float(b.subs(x, tau)) * v
                         for b, v in zip(bern, poly)]
                for k in range(1, N + 1):
                    terms.append(2.0 * sc * math.cos(TWO_PI * k * tau)
                                 * gam[k - 1])
                    terms.append(2.0 * ss * math.sin(TWO_PI * k * tau)
                                 * dlt[k - 1])
                den = 2.0 - 2.0 * math.cos(TWO_PI * tau)
                for fam, sign, trig in ((gam, sc, math.cos),
                                        (dlt, ss, math.sin)):
                    level = fam[N - 1:N + 2 * ell]
                    for j in range(1, ell + 1):
                        t1 = trig(TWO_PI * (N + j) * tau)
                        t0 = trig(TWO_PI * (N + j - 1) * tau)
                        weight = 2.0 * sign * den ** -j
                        terms.append(weight * (2.0 * t1 - t0) * level[1])
                        terms.append(-weight * t1 * level[2])
                        level = [-level[i - 1] + 2.0 * level[i]
                                 - level[i + 1]
                                 for i in range(1, len(level) - 1)]
                expect = np.array([math.fsum(c) for c in zip(*terms)])
                err = np.max(np.abs(plan.evaluate(tau) - expect))
                assert err <= 1e-10 * np.max(np.abs(expect))

    @pytest.mark.parametrize("kind", ["tridiagonal", "periodic", "dense"])
    def test_evaluate_matches_frozen_arithmetic(self, kind):
        """Standalone plans and views, within and beyond their source's
        modes, evaluate bit for bit as _frozen_evaluate does."""
        rng = np.random.default_rng(38)
        s = 12
        A = {"tridiagonal": lambda: _random_tridiagonal(rng, s, scale=0.5),
             "periodic": lambda: _random_periodic(rng, s, (0.1, 0.5), 0.5),
             "dense": lambda: BandedOperator.dense(
                 0.3 * rng.standard_normal((s, s)))}[kind]()
        f = rng.standard_normal(s)
        base = ActionPlan(A, 2, 6, 2, f)
        taus = (1.0 / 12.0, 0.3, 0.5, 11.0 / 12.0, 0.999)
        for p in range(1, 11):
            for scheme in ("stabilized", "direct"):
                for ell in range(5):
                    for plan in (ActionPlan(A, p, 6, ell, f, scheme),
                                 base.view(p, 6, ell, scheme)):
                        for tau in taus:
                            assert np.array_equal(
                                plan.evaluate(tau),
                                _frozen_evaluate(plan, scheme, tau))

    def test_threads_share_plans(self):
        """A plan and two of its views evaluated from two threads at once
        give the serial results, and evaluate leaves each plan's attributes
        as they were: it holds no per-call state."""
        rng = np.random.default_rng(39)
        A = discretize_laplacian(uniform_grid(6.0, 64))
        base = ActionPlan(A, 2, 20, 3, rng.standard_normal(A.dimension))
        plans = (base, base.view(3, 16, 2), base.view(5, 20, 0, "direct"))
        taus = rng.uniform(1.0 / 12.0, 11.0 / 12.0, 200)
        before = [dict(vars(plan)) for plan in plans]
        copies = [{k: np.copy(v) for k, v in vars(plan).items()
                   if isinstance(v, np.ndarray)} for plan in plans]
        serial = [[plan.evaluate(tau) for tau in taus] for plan in plans]

        def run():
            return [[plan.evaluate(tau) for tau in taus] for plan in plans]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(run) for _ in range(2)]
                results = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for got in results:
            for rows, expect in zip(got, serial):
                assert all(np.array_equal(a, b) for a, b in zip(rows, expect))
        for plan, attrs, arrays in zip(plans, before, copies):
            assert vars(plan).keys() == attrs.keys()
            assert all(vars(plan)[k] is v for k, v in attrs.items())
            assert all(np.array_equal(vars(plan)[k], v)
                       for k, v in arrays.items())


def _frozen_evaluate(plan, scheme, tau):
    """ActionPlan.evaluate's arithmetic, frozen with every factor rebuilt
    per call, over the plan's stored rows X and Z: evaluate must match it
    bit for bit, wherever it builds its factors."""
    p, N, ell, X, Z = plan.p, plan.N, plan.ell, plan._X, plan._Z
    pairs = np.reshape(build_triangle(list(np.eye(2 * ell + 1)), ell).pairs(),
                       (2 * ell, 2 * ell + 1))
    tk = TWO_PI * np.arange(1, len(X) + 1)
    trig = np.zeros((2, len(X)))
    trig[:, :N] = np.cos(tk[:N] * tau), np.sin(tk[:N] * tau)
    trig[:, N - 1:] += np.dot(pair_weights(N, ell, tau), pairs)
    trig *= 2.0 * np.array(parity_signs(p))[:, None]
    lo, hi = trig[::-1] if p % 2 else trig
    c = [eval_bernoulli(shared_table(), j, tau) / math.factorial(j)
         for j in range(p)]
    f, w = plan.f, np.zeros(len(Z))
    if scheme == "direct":
        terms = [cj * f for cj in c] + [(lo / tk ** (p - 2)) @ X,
                                        (hi / tk ** (p - 1)) @ X]
    elif p == 1:
        w[0], w[2::2] = c[0], hi
        terms = [w @ Z, (lo * tk) @ X]
    else:
        w[:2], w[2::2], w[3::2] = c[p - 2:], lo, hi
        w[2:] /= np.repeat(tk ** (p - 2), 2)
        terms = [cj * f for cj in c[:p - 2]] + [w @ Z]
    v = terms[-1]
    for term in terms[-2::-1]:
        v = plan.A.matvec(v) + term
    return v


class TestSplitRowProduct:
    """From _L2_BYTES up, evaluate's row products split their columns
    between the caller and a helper thread."""

    TAUS = (1.0 / 12.0, 0.3, 0.5, 11.0 / 12.0)

    @staticmethod
    def _plan(s, seed=40):
        """A heat-operator plan whose X and Z both reach the split."""
        A = discretize_laplacian(uniform_grid(24.0 * (s + 1) / 513.0, s))
        f = np.random.default_rng(seed).standard_normal(s)
        plan = ActionPlan(A, 2, 60, 4, f)
        assert plan._X.nbytes >= berngen.matfunc._L2_BYTES
        return plan

    @pytest.mark.parametrize("s", [4096, 4103])
    def test_split_matches_frozen_arithmetic(self, s):
        """Above the threshold, at s a multiple of 128 and not, every view
        evaluates bit for bit as the unsplit _frozen_evaluate does.  That
        holds at one or two BLAS threads; more threads cut each half again
        at columns that need not be multiples of four."""
        base = self._plan(s)
        for p in (1, 2, 3):
            for scheme in ("stabilized", "direct"):
                plan = base.view(p, 60, 4, scheme)
                for tau in self.TAUS:
                    assert np.array_equal(plan.evaluate(tau),
                                          _frozen_evaluate(plan, scheme, tau))
        assert berngen.matfunc._jobs is not None

    def test_threads_share_large_plans(self):
        """Two threads evaluating a large plan and its views at once, so
        that their jobs queue for the one helper, give the serial results."""
        base = self._plan(4096)
        plans = (base, base.view(1, 60, 4), base.view(3, 60, 4, "direct"))
        taus = np.random.default_rng(41).uniform(1.0 / 12.0, 11.0 / 12.0, 20)
        serial = [[plan.evaluate(tau) for tau in taus] for plan in plans]

        def run():
            return [[plan.evaluate(tau) for tau in taus] for plan in plans]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=3) as pool:
                futures = [pool.submit(run) for _ in range(3)]
                results = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for got in results:
            for rows, expect in zip(got, serial):
                assert all(np.array_equal(a, b) for a, b in zip(rows, expect))

    def test_helper_error_reaches_the_caller(self, monkeypatch):
        """An error in the helper's half is raised by evaluate in the
        calling thread, and the helper lives on to serve the next call."""
        plan = self._plan(4096)
        matmul = np.matmul

        def failing(*args, **kwargs):
            if threading.current_thread().name == "berngen-rows-dot":
                raise RuntimeError("helper half failed")
            return matmul(*args, **kwargs)

        monkeypatch.setattr(np, "matmul", failing)
        with pytest.raises(RuntimeError, match="helper half failed"):
            plan.evaluate(0.3)
        monkeypatch.undo()
        # a dead helper would leave the next call waiting forever
        got = []
        caller = threading.Thread(
            target=lambda: got.append(plan.evaluate(0.3)), daemon=True)
        caller.start()
        caller.join(60.0)
        assert not caller.is_alive()
        assert np.array_equal(got[0],
                              _frozen_evaluate(plan, "stabilized", 0.3))

    def test_no_reference_kept_after_a_call(self):
        """Once evaluate returns, the helper holds nothing of the plan: the
        next plan would otherwise be built with two Z alive."""
        plan = self._plan(4096)
        Z, X = weakref.ref(plan._Z), weakref.ref(plan._X)
        plan.view(1, 60, 4).evaluate(0.3)
        plan.evaluate(0.3)
        del plan
        assert Z() is None and X() is None

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="fork from a threaded process, Linux only")
    def test_forked_child_starts_its_own_helper(self):
        """A child forked after a large evaluate has no helper thread; its
        own large evaluate starts one instead of waiting forever."""
        plan = self._plan(4096)
        expect = plan.evaluate(0.3)
        assert berngen.matfunc._jobs is not None
        read, write = os.pipe()
        with warnings.catch_warnings():
            # Python 3.12 warns of fork in a process that has threads
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            try:
                same = np.array_equal(plan.evaluate(0.3), expect)
                os.write(write, b"1" if same else b"0")
            finally:
                os._exit(0)
        os.close(write)
        try:
            ready, _, _ = select.select([read], [], [], 60.0)
            reply = os.read(read, 1) if ready else b""
            if not ready:
                os.kill(pid, signal.SIGKILL)
        finally:
            os.close(read)
            os.waitpid(pid, 0)
        assert reply == b"1"


def _dst1(x):
    """y_k = sum_i x_i sin(pi i k / (n + 1)), from the FFT of the odd
    extension of x."""
    n = x.shape[0]
    ext = np.zeros(2 * (n + 1))
    ext[1:n + 1] = x
    ext[n + 2:] = -x[::-1]
    return -np.fft.rfft(ext)[1:n + 1].imag / 2.0


class TestAboveDenseCap:
    TAUS = (1.0 / 12.0, 1.0 / 6.0, 0.25, 0.5, 0.75, 11.0 / 12.0)

    @pytest.mark.parametrize("rhs, measured", [
        ("ones", {
            2 ** 12: (1.563e-7, 6.999e-10, 3.312e-11, 1.222e-13, 4.579e-11,
                      4.928e-7),
            2 ** 14: (1.563e-7, 6.999e-10, 3.311e-11, 1.239e-13, 4.577e-11,
                      4.928e-7),
            2 ** 16: (1.563e-7, 6.999e-10, 3.360e-11, 5.241e-13, 4.577e-11,
                      4.928e-7)}),
        ("normal", {
            2 ** 12: (1.468e-6, 9.498e-9, 4.970e-10, 8.167e-13, 1.220e-9,
                      1.431e-5),
            2 ** 14: (1.244e-6, 7.219e-9, 4.194e-10, 8.332e-13, 1.023e-9,
                      1.237e-5),
            2 ** 16: (1.177e-6, 7.585e-9, 4.212e-10, 9.856e-13, 8.516e-10,
                      1.023e-5)}),
    ])
    def test_heat_operator_against_sine_transform(self, rhs, measured):
        """The uniform heat operator is diagonalized by the DST-I, which
        gives the exact action at s = 2^12 to 2^16, where the dense oracles
        refuse.  Each bound is three times the error measured when the
        test was written; a build at s = 2^16 takes about 0.5 s."""
        h = 24.0 / 513.0
        for s, errors in measured.items():
            assert s > DENSE_CAP
            A = discretize_laplacian(uniform_grid(h * (s + 1), s))
            f = (np.ones(s) if rhs == "ones"
                 else np.random.default_rng(7).standard_normal(s))
            lam = -(4.0 / h ** 2) * np.sin(
                np.arange(1, s + 1) * np.pi / (2 * (s + 1))) ** 2
            scale = math.sqrt(2.0 / (s + 1))
            coeffs = scale * _dst1(f)
            plan = ActionPlan(A, 2, 50, 4, f)
            for tau, error in zip(self.TAUS, errors):
                expect = scale * _dst1(lam * np.exp(tau * lam)
                                       / np.expm1(lam) * coeffs)
                err = np.max(np.abs(plan.evaluate(tau) - expect))
                assert err <= 3.0 * error * np.max(np.abs(expect))

    def test_geometric_plan_against_spectral_reference(self):
        """The stretched grid has no closed form; above DENSE_CAP only
        the spectral reference checks it.  Each bound is three times the
        relative error measured when the test was written."""
        s = 2048
        assert DENSE_CAP < s <= SPECTRAL_CAP
        A = discretize_laplacian(geometric_grid(0.01, 1.005, s))
        f = np.ones(s)
        taus = (1.0 / 12.0, 1.0 / 6.0, 0.5)
        refs = spectral_reference(A, taus, f)
        plan = ActionPlan(A, 2, 100, 4, f)
        for tau, ref, error in zip(taus, refs, (4.07e-9, 3.99e-11, 2.04e-12)):
            err = np.max(np.abs(plan.evaluate(tau) - ref))
            assert err <= 3.0 * error * np.max(np.abs(ref))

    def test_circulant_plan_against_fft(self):
        """The unit-radius cyclic shift at s = 2^14 has only the FFT
        oracle.  N = 32, ell = 4 keeps the build near one second.  Each
        bound is three times the relative error measured when the test
        was written."""
        s = 2 ** 14
        A = circulant_shift(s, 1.0)
        f = np.random.default_rng(s).standard_normal(s)
        taus = (1.0 / 6.0, 0.5)
        refs = spectral_reference(A, taus, f)
        plan = ActionPlan(A, 2, 32, 4, f)
        for tau, ref, error in zip(taus, refs, (1.18e-12, 8.67e-15)):
            err = np.max(np.abs(plan.evaluate(tau) - ref))
            assert err <= 3.0 * error * np.max(np.abs(ref))


class TestMatrixApproximations:
    def test_diagonal_commutes_with_scalar(self):
        """On a diagonal operator the reference action is the scalar q
        applied entrywise."""
        d = np.array([-3.0, -1.0, -0.1, 0.5])
        f = np.array([1.0, 2.0, -1.0, 0.5])
        got = reference_solution(BandedOperator.diagonal(d), 0.3, f)
        expect = np.array([reference_q(0.3, a) for a in d]) * f
        assert np.linalg.norm(got - expect) <= 1e-13 * np.linalg.norm(expect)

    @pytest.mark.parametrize("p", range(1, 7))
    def test_one_by_one_plan_matches_G_approx(self, p):
        """The scalar G_approx and a plan on the 1 x 1 operator [a] read the
        same weight row: odd p swaps the cosine and sine families, so a sign
        or family slip on either side shows here."""
        for ell in range(5):
            for tau in (1.0 / 12.0, 0.3, 0.5, 11.0 / 12.0):
                for a in (-10.0, -3.0, -0.4, 1.2):
                    G = G_approx(ApproxParams(p, 40, tau, w=a, ell=ell))
                    plan = ActionPlan(BandedOperator.diagonal([a]), p, 40,
                                      ell, [1.0])
                    assert abs(plan.evaluate(tau)[0] - G) <= (
                        2e-12 * max(1.0, abs(G)))

    def test_direct_scheme_noise_dominates_on_stiff_operator(self):
        """The classical construction amplifies roundoff by ||A||^p; the
        stabilized rebuild of the same sum stays orders of magnitude
        closer at identical parameters."""
        grid = uniform_grid(24.0, 512)
        A = discretize_laplacian(grid)
        f = np.ones(A.dimension)
        ref = reference_solution(A, 1.0 / 6.0, f)
        scale = np.linalg.norm(ref)
        params = ApproxParams(p=8, N=50, tau=1.0 / 6.0)
        bad = np.linalg.norm(g_action(A, params, f) - ref) / scale
        assert bad > 1e4
        stab = ActionPlan(A, 8, 50, 0, f).evaluate(1.0 / 6.0)
        assert np.linalg.norm(stab - ref) / scale < bad / 100.0

    def test_accelerated_action_accuracy(self):
        grid = uniform_grid(24.0, 32)
        A = discretize_laplacian(grid)
        f = np.ones(A.dimension)
        ref = reference_solution(A, 0.3, f)
        params = ApproxParams(p=2, N=40, tau=0.3, ell=2)
        got = G_action(A, params, f)
        rel = np.linalg.norm(got - ref) / np.linalg.norm(ref)
        assert rel < 1e-8

    def test_zero_depth_falls_back_bitwise(self):
        rng = np.random.default_rng(33)
        A = _random_tridiagonal(rng, 10, scale=0.5)
        f = rng.standard_normal(10)
        params = ApproxParams(p=4, N=12, tau=0.3, ell=0)
        assert np.array_equal(G_action(A, params, f),
                              g_action(A, params, f))

    def test_scalar_w_field_is_ignored(self):
        rng = np.random.default_rng(34)
        A = _random_tridiagonal(rng, 8, scale=0.5)
        f = rng.standard_normal(8)
        pa = ApproxParams(p=2, N=10, tau=0.3, w=0.0, ell=1)
        pb = ApproxParams(p=2, N=10, tau=0.3, w=123.0, ell=1)
        assert np.array_equal(G_action(A, pa, f), G_action(A, pb, f))


class TestDenseExponential:
    def test_zero_matrix(self):
        got = _expm_dense(np.zeros((3, 3)))
        assert np.allclose(got, np.eye(3), atol=1e-15)

    def test_nilpotent_series_terminates(self):
        M = np.array([[0.0, 2.0], [0.0, 0.0]])
        assert np.allclose(_expm_dense(M), [[1.0, 2.0], [0.0, 1.0]],
                           atol=1e-15)

    def test_diagonal_matrix(self):
        d = np.array([-1.0, 0.0, 2.5])
        got = _expm_dense(np.diag(d))
        assert np.allclose(got, np.diag(np.exp(d)), rtol=1e-14)

    def test_matches_scipy(self):
        rng = np.random.default_rng(40)
        M = rng.standard_normal((12, 12))
        for scale in (1.0, 50.0):
            got = _expm_dense(scale * M)
            ref = scipy.linalg.expm(scale * M)
            assert np.linalg.norm(got - ref) <= 1e-11 * np.linalg.norm(ref)


class TestPhiOne:
    def test_matches_taylor_series(self):
        rng = np.random.default_rng(50)
        M = 0.01 * rng.standard_normal((6, 6))
        expect = np.zeros((6, 6))
        term = np.eye(6)
        for k in range(1, 20):
            expect += term / math.factorial(k)
            term = term @ M
        got = _expm_dense(M, phi1=True)
        assert np.linalg.norm(got - expect) <= 1e-14

    def test_defining_identity(self):
        """M phi_1(M) = e^M - I at moderate scale."""
        rng = np.random.default_rng(51)
        M = rng.standard_normal((10, 10))
        lhs = M @ _expm_dense(M, phi1=True)
        rhs = _expm_dense(M) - np.eye(10)
        assert np.linalg.norm(lhs - rhs) <= 1e-13 * np.linalg.norm(rhs)

    def test_scalar_value(self):
        a = 0.37
        got = _expm_dense(np.array([[a]]), phi1=True)[0, 0]
        assert abs(got - (math.exp(a) - 1.0) / a) < 1e-15

    # Each bound below is three times the larger relative difference from
    # scipy's expm measured with one and with two BLAS threads when the
    # test was written.

    @staticmethod
    def _check_augmented(M, measured):
        """_expm_dense(M, phi1=True) against the upper-right block of
        scipy's expm of the explicit 2n x 2n matrix [[M, I], [0, 0]]."""
        n = M.shape[0]
        B = np.zeros((2 * n, 2 * n))
        B[:n, :n] = M
        B[:n, n:] = np.eye(n)
        ref = scipy.linalg.expm(B)[:n, n:]
        got = _expm_dense(M, phi1=True)
        assert np.max(np.abs(got - ref)) <= 3.0 * measured * np.max(
            np.abs(ref))

    @pytest.mark.parametrize("a, measured", [
        (0.37, 3.67e-16), (-3.0, 2.80e-15), (40.0, 3.55e-14),
        (-1e4, 4.07e-16)])
    def test_one_by_one_against_augmented_expm(self, a, measured):
        self._check_augmented(np.array([[a]]), measured)

    def test_norm_below_one_against_augmented_expm(self):
        """||M||_1 = 0.5, so the augmented 1-norm is the identity block's
        1 and no squaring is done."""
        M = np.random.default_rng(52).standard_normal((8, 8))
        M *= 0.5 / np.abs(M).sum(axis=0).max()
        self._check_augmented(M, 4.37e-16)

    @pytest.mark.parametrize("j, measured", [(10, 3.22e-13),
                                             (100, 8.59e-13)])
    def test_krylov_hessenberg_against_augmented_expm(self, j, measured):
        """The Hessenberg blocks of arnoldi-compare --test 3."""
        A = discretize_laplacian(geometric_grid(0.01, 1.005, 512))
        dec = arnoldi_extend(A, np.ones(A.dimension), j)
        self._check_augmented(dec.H[:j, :j], measured)

    @pytest.mark.parametrize("kind, measured", [("uniform", 1.54e-14),
                                                ("geometric", 7.93e-14)])
    def test_heat_operator_against_augmented_expm(self, kind, measured):
        grid = (uniform_grid(24.0, 256) if kind == "uniform"
                else geometric_grid(0.01, 1.005, 256))
        self._check_augmented(discretize_laplacian(grid).to_dense(),
                              measured)


class TestReferenceSolution:
    def test_scalar_matches_reference_q(self):
        for a, tau in ((-2.0, 0.3), (1.5, 0.0), (-40.0, 1.0)):
            A = BandedOperator.diagonal([a])
            got = reference_solution(A, tau, np.array([1.0]))[0]
            assert abs(got - reference_q(tau, a)) < 1e-12 * max(
                1.0, abs(reference_q(tau, a)))

    def test_near_singular_scalar(self):
        """The removable singularity at 0 is handled without cancellation."""
        A = BandedOperator.diagonal([1e-12])
        got = reference_solution(A, 0.5, np.array([1.0]))[0]
        assert abs(got - 1.0) < 1e-12

    def test_unit_mean_in_tau(self):
        """Composite Simpson integral of the action over tau returns f."""
        grid = uniform_grid(24.0, 32)
        A = discretize_laplacian(grid)
        f = np.ones(A.dimension)
        taus = np.linspace(0.0, 1.0, 129)
        vals = np.stack([reference_solution(A, t, f) for t in taus])
        h = taus[1] - taus[0]
        integral = (h / 3.0) * (vals[0] + vals[-1]
                                + 4.0 * vals[1:-1:2].sum(axis=0)
                                + 2.0 * vals[2:-1:2].sum(axis=0))
        assert np.linalg.norm(integral - f) <= 1e-7

    def test_satisfies_differential_equation(self):
        """Central differences of the action in tau reproduce A z."""
        grid = uniform_grid(24.0, 32)
        A = discretize_laplacian(grid)
        f = np.ones(A.dimension)
        h = 1e-5
        mid = reference_solution(A, 0.4, f)
        hi = reference_solution(A, 0.4 + h, f)
        lo = reference_solution(A, 0.4 - h, f)
        deriv = (hi - lo) / (2.0 * h)
        expect = A.matvec(mid)
        assert np.linalg.norm(deriv - expect) <= 1e-7 * max(
            1.0, np.linalg.norm(expect))

    def test_dimension_cap(self):
        A = BandedOperator.diagonal(np.zeros(DENSE_CAP + 1))
        with pytest.raises(ValueError):
            reference_solution(A, 0.5, np.zeros(DENSE_CAP + 1))
        with pytest.raises(ValueError):
            reference_solution(A, [0.25, 0.5], np.zeros(DENSE_CAP + 1))

    def test_tau_array_matches_scalar_calls(self):
        A = discretize_laplacian(uniform_grid(24.0, 16))
        f = np.linspace(-1.0, 2.0, A.dimension)
        taus = [0.0, 1.0 / 12.0, 1.0 / 6.0, 0.5, 1.0]
        z = reference_solution(A, taus, f)
        assert z.shape == (5, A.dimension)
        assert np.array_equal(
            z, np.stack([reference_solution(A, t, f) for t in taus]))
        grid = reference_solution(A, np.reshape(taus[:4], (2, 2)), f)
        assert grid.shape == (2, 2, A.dimension)
        assert np.array_equal(grid.reshape(4, -1), z[:4])
        assert reference_solution(A, 0.5, f).shape == (A.dimension,)

    def test_empty_tau_list(self):
        A = discretize_laplacian(uniform_grid(24.0, 16))
        z = reference_solution(A, [], np.ones(A.dimension))
        assert z.shape == (0, A.dimension)

    def test_overflow_raises(self):
        """Eigenvalues of real part 1000 overflow the dense exponential;
        the kernel raises instead of returning a non-finite vector."""
        A = circulant_shift(8, 1e3)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="non-finite"):
                reference_solution(A, 1.0 / 6.0, np.linspace(-1.0, 2.0, 8))

    def test_right_hand_side_length_validated(self):
        """A wrong-length f gets spectral_reference's message, not a numpy
        matmul error."""
        A = discretize_laplacian(uniform_grid(1.0, 8))
        for oracle in (reference_solution, spectral_reference):
            with pytest.raises(ValueError, match=r"expected \(8,\)"):
                oracle(A, 0.5, np.ones(7))


class TestSpectralReference:
    TAUS = (1.0 / 12.0, 1.0 / 6.0, 0.5)

    @staticmethod
    def _heat(kind, s=512):
        grid = (uniform_grid(24.0, s) if kind == "uniform"
                else geometric_grid(0.01, 1.005, s))
        return discretize_laplacian(grid)

    @pytest.mark.parametrize("kind, measured", [
        ("uniform", (4.16e-13, 7.29e-13, 1.33e-12)),
        ("geometric", (4.87e-12, 7.02e-12, 6.01e-12)),
    ])
    def test_matches_pade_reference(self, kind, measured):
        """Both oracles on both heat grids at s = 512.  Each bound is three
        times the larger relative difference measured with one and with
        two BLAS threads when the test was written."""
        A = self._heat(kind)
        f = np.ones(A.dimension)
        pade = reference_solution(A, self.TAUS, f)
        spec = spectral_reference(A, self.TAUS, f)
        for z, ref, diff in zip(spec, pade, measured):
            assert np.max(np.abs(z - ref)) <= 3.0 * diff * np.max(np.abs(ref))

    def test_uniform_grid_against_sine_transform(self):
        """The closed-form DST-I action; each bound is three times the
        relative error measured when the test was written."""
        s, h = 512, 24.0 / 513.0
        A = self._heat("uniform", s)
        f = np.ones(s)
        lam = -(4.0 / h ** 2) * np.sin(
            np.arange(1, s + 1) * np.pi / (2 * (s + 1))) ** 2
        scale = math.sqrt(2.0 / (s + 1))
        coeffs = scale * _dst1(f)
        spec = spectral_reference(A, self.TAUS, f)
        for tau, z, error in zip(self.TAUS, spec,
                                 (4.28e-14, 5.37e-14, 2.00e-14)):
            expect = scale * _dst1(lam * np.exp(tau * lam) / np.expm1(lam)
                                   * coeffs)
            err = np.max(np.abs(z - expect))
            assert err <= 3.0 * error * np.max(np.abs(expect))

    def test_positive_spectrum_against_sine_transform(self):
        """The negated heat operator has eigenvalues up to ||A||_1 = 16900,
        where e^{tau lam} overflows although q stays finite.  Each bound
        is three times the relative error measured when the test was
        written."""
        s, h = 64, 1.0 / 65.0
        A = discretize_laplacian(uniform_grid(1.0, s))
        B = BandedOperator.tridiagonal(-A.sub, -A.diag, -A.sup)
        f = np.linspace(-1.0, 2.0, s)
        lam = (4.0 / h ** 2) * np.sin(
            np.arange(1, s + 1) * np.pi / (2 * (s + 1))) ** 2
        scale = math.sqrt(2.0 / (s + 1))
        coeffs = scale * _dst1(f)
        taus = (1.0 / 6.0, 0.5, 1.0)
        got = spectral_reference(B, taus, f)
        assert np.all(np.isfinite(got))
        for tau, z, error in zip(taus, got, (2.78e-13, 1.59e-13, 8.83e-15)):
            expect = scale * _dst1(lam * np.exp((tau - 1.0) * lam)
                                   / -np.expm1(-lam) * coeffs)
            err = np.max(np.abs(z - expect))
            assert err <= 3.0 * error * np.max(np.abs(expect))

    @pytest.mark.parametrize("s, radius, measured", [
        (512, 1e-8, (2.91e-16, 2.91e-16)),
        (64, 1.0, (5.82e-16, 4.49e-16)),
        (300, 3.0, (7.40e-16, 1.19e-15)),
    ])
    def test_circulant_matches_pade(self, s, radius, measured):
        """The FFT branch against the dense Pade oracle.  Each bound is
        three times the relative difference measured when the test was
        written."""
        A = circulant_shift(s, radius)
        f = np.random.default_rng(s).standard_normal(s)
        taus = (1.0 / 6.0, 0.5)
        pade = reference_solution(A, taus, f)
        fft = spectral_reference(A, taus, f)
        for z, ref, diff in zip(fft, pade, measured):
            assert np.max(np.abs(z - ref)) <= 3.0 * diff * np.max(np.abs(ref))

    def test_eigenvalue_at_pole_refused(self):
        """The FFT gives circulant_shift(4, 2 pi) the eigenvalue -2 pi i
        exactly, where q has a pole: the oracle refuses it, as the scalar
        reference_q does, instead of returning entries near 1e16."""
        with pytest.raises(PoleProximityError):
            spectral_reference(circulant_shift(4, TWO_PI), 0.5,
                               [1.0, -2.0, 0.5, 3.0])

    @pytest.mark.parametrize("kind", ["uniform", "geometric", "circulant"])
    def test_vector_q_matches_reference_q(self, kind):
        """_q against the scalar reference_q on a CLI operator's spectrum,
        negated too so that Re w > 0 takes the rewritten form, and at
        w = 0: within 4 ulp relative (2.03 measured on the circulant)."""
        A = _OPERATORS[kind](512)
        if kind == "circulant":
            lam = np.fft.fft(A.to_dense()[:, 0])
        else:
            off = np.sign(A.sup) * np.sqrt(A.sub * A.sup)
            lam = scipy.linalg.eigvalsh_tridiagonal(A.diag, off)
        w = np.concatenate((lam, -lam, [0.0]))
        taus = np.array([0.0, 1.0 / 12.0, 1.0 / 6.0, 0.5, 1.0])
        got = _q(taus, w)
        expect = np.array([[reference_q(tau, v) for v in w] for tau in taus])
        assert np.all(np.abs(got - expect)
                      <= 4.0 * np.finfo(float).eps * np.abs(expect))
        assert np.all(got[:, -1] == 1.0)

    @pytest.mark.parametrize("w, error", [
        (complex(1e-13, 3.0 * TWO_PI), PoleProximityError),
        (complex(np.nan, 1.0), ValueError),
        (complex(-np.inf, 0.0), ValueError)])
    def test_vector_q_refuses_as_reference_q(self, w, error):
        """A near-pole or non-finite eigenvalue raises reference_q's error,
        with its message."""
        with pytest.raises(error) as vector:
            _q(np.array([0.5]), np.array([-1.0, w]))
        with pytest.raises(error) as scalar:
            reference_q(0.5, w)
        assert str(vector.value) == str(scalar.value)

    def test_signed_off_diagonals_match_pade(self):
        """Off-diagonal pairs of either sign, unequal in size."""
        rng = np.random.default_rng(41)
        s = 12
        sign = np.where(rng.standard_normal(s - 1) > 0, 1.0, -1.0)
        A = BandedOperator.tridiagonal(
            sign * rng.uniform(0.1, 2.0, s - 1), rng.standard_normal(s),
            sign * rng.uniform(0.1, 2.0, s - 1))
        f = rng.standard_normal(s)
        taus = [0.0, 0.3, 1.0]
        ref = reference_solution(A, taus, f)
        got = spectral_reference(A, taus, f)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_scalar_matches_reference_q(self):
        for a, tau in ((-2.0, 0.3), (1.5, 0.0), (-40.0, 1.0), (1e-12, 0.5),
                       (800.0, 0.99), (800.0, 1.0), (1e4, 0.999),
                       (1e4, 0.5)):
            got = spectral_reference(BandedOperator.diagonal([a]), tau,
                                     np.array([1.0]))[0]
            expect = reference_q(tau, a)
            assert abs(got - expect) < 1e-12 * max(1.0, abs(expect))

    def test_zero_eigenvalue_takes_removable_value(self):
        A = BandedOperator.diagonal([0.0])
        f = np.array([2.5])
        for tau in (0.0, 0.5, 1.0):
            assert np.array_equal(spectral_reference(A, tau, f), f)

    def test_tau_shapes(self):
        A = self._heat("uniform", 16)
        f = np.linspace(-1.0, 2.0, A.dimension)
        taus = [0.0, 1.0 / 12.0, 1.0 / 6.0, 0.5, 1.0]
        z = spectral_reference(A, taus, f)
        assert z.shape == (5, A.dimension)
        assert spectral_reference(A, 0.5, f).shape == (A.dimension,)
        single = np.stack([spectral_reference(A, t, f) for t in taus])
        assert np.max(np.abs(z - single)) <= 1e-14 * np.max(np.abs(z))
        grid = spectral_reference(A, np.reshape(taus[:4], (2, 2)), f)
        assert grid.shape == (2, 2, A.dimension)
        assert np.array_equal(grid.reshape(4, -1), z[:4])
        assert spectral_reference(A, [], f).shape == (0, A.dimension)

    def test_dense_operator_refused(self):
        A = BandedOperator.dense(self._heat("uniform", 8).to_dense())
        with pytest.raises(ValueError, match="tridiagonal"):
            spectral_reference(A, 0.5, np.ones(8))

    def test_periodic_operator_refused(self):
        """Only a periodic operator with constant bands whose corners
        continue them is a circulant; any other one is refused."""
        ones = np.ones(7)
        assert spectral_reference(circulant_shift(8, 1.0), 0.5,
                                  np.ones(8)).shape == (8,)
        refused = [BandedOperator.tridiagonal(ones, np.arange(8.0), ones,
                                              corners=(1.0, 1.0))]
        refused += [BandedOperator.tridiagonal(ones, -2.0 * np.ones(8), ones,
                                               corners=corners)
                    for corners in ((1.0, 2.0), (2.0, 1.0), (1.0, 0.0))]
        for A in refused:
            with pytest.raises(ValueError, match="tridiagonal"):
                spectral_reference(A, 0.5, np.ones(8))

    @pytest.mark.parametrize("sub, sup", [
        ([1.0, 0.0], [1.0, 1.0]),
        ([1.0, -1.0], [1.0, 1.0]),
        ([1.0, 1.0], [1.0, -2.0]),
    ])
    def test_non_symmetrizable_refused(self, sub, sup):
        A = BandedOperator.tridiagonal(sub, [-2.0, -2.0, -2.0], sup)
        with pytest.raises(ValueError, match="sub"):
            spectral_reference(A, 0.5, np.ones(3))
        assert np.all(np.isfinite(reference_solution(A, 0.5, np.ones(3))))

    def test_ill_conditioned_scaling_refused(self):
        """tridiag(1.9, -2000, 300) needs a scaling D with
        max(D) / min(D) = (300 / 1.9)^((s - 1) / 2): 3.1e5 at s = 6,
        3.9e6 at s = 7.  Above SCALING_CAP the symmetrized eigh was off by
        a factor of 1e23 at s = 64 and returned NaN at s = 1024."""
        def operator(s):
            return BandedOperator.tridiagonal(1.9 * np.ones(s - 1),
                                              -2000.0 * np.ones(s),
                                              300.0 * np.ones(s - 1))

        assert SCALING_CAP == 1e6
        assert np.all(np.isfinite(spectral_reference(operator(6), 0.3,
                                                     np.ones(6))))
        for s in (7, 64, 1024):
            with pytest.raises(ValueError, match=r"max\(D\) / min\(D\)"):
                spectral_reference(operator(s), 0.3, np.ones(s))

    def test_rhs_length_checked(self):
        A = self._heat("uniform", 8)
        with pytest.raises(ValueError, match="shape"):
            spectral_reference(A, 0.5, np.ones(1))

    def test_dimension_cap(self):
        assert SPECTRAL_CAP == 4096 > DENSE_CAP
        s = SPECTRAL_CAP + 1
        A = BandedOperator.tridiagonal(np.ones(s - 1), -2.0 * np.ones(s),
                                       np.ones(s - 1))
        with pytest.raises(ValueError, match="capped"):
            spectral_reference(A, 0.5, np.ones(s))


_RHS_ENTRIES = {
    "shifted_solve": lambda A, f: shifted_solve(A, np.arange(1, 4), f),
    "ActionPlan": lambda A, f: ActionPlan(A, 2, 4, 1, f),
    "h_action": lambda A, f: h_action(A, 3, 0.3, f),
    "spectral_reference-eigh": lambda A, f: spectral_reference(A, 0.3, f),
    "spectral_reference-fft": lambda A, f: spectral_reference(A, 0.3, f),
    "reference_solution": lambda A, f: reference_solution(A, 0.3, f),
    "arnoldi_extend": lambda A, f: arnoldi_extend(A, f, 3),
}


class TestRightHandSideGate:
    @pytest.mark.parametrize("bad", ["nan", "inf", "length"])
    @pytest.mark.parametrize("entry", sorted(_RHS_ENTRIES))
    def test_bad_f_refused_before_any_work(self, monkeypatch, entry, bad):
        """Every entry point taking f refuses a NaN, a +inf or a wrong
        length with ValueError before any solve, eigendecomposition, FFT
        or Pade step: each of those fails the test if it runs."""
        A = (circulant_shift(8, 1.0) if entry.endswith("fft")
             else discretize_laplacian(uniform_grid(1.0, 8)))
        f = np.ones(7 if bad == "length" else 8)
        if bad != "length":
            f[3] = float(bad)

        def never(*args, **kwargs):
            raise AssertionError("ran before f was checked")
        for name in ("_complex_solves", "_expm_dense"):
            monkeypatch.setattr(berngen.matfunc, name, never)
        monkeypatch.setattr(np.linalg, "eigh", never)
        monkeypatch.setattr(np.fft, "fft", never)
        with pytest.raises(ValueError,
                           match=r"expected \(8,\)" if bad == "length"
                           else "finite"):
            _RHS_ENTRIES[entry](A, f)

    @pytest.mark.parametrize("imag", [0.0, 0.5])
    @pytest.mark.parametrize("entry", sorted(_RHS_ENTRIES))
    def test_complex_f_refused_before_any_work(self, monkeypatch, entry,
                                               imag):
        """A complex f, even with zero imaginary parts, raises TypeError
        before any solve, eigendecomposition, FFT or Pade step, where numpy
        would drop the imaginary part with only a ComplexWarning."""
        A = (circulant_shift(8, 1.0) if entry.endswith("fft")
             else discretize_laplacian(uniform_grid(1.0, 8)))
        f = np.ones(8, dtype=complex)
        f[3] += 1j * imag

        def never(*args, **kwargs):
            raise AssertionError("ran before f was checked")
        for name in ("_complex_solves", "_expm_dense"):
            monkeypatch.setattr(berngen.matfunc, name, never)
        monkeypatch.setattr(np.linalg, "eigh", never)
        monkeypatch.setattr(np.fft, "fft", never)
        with pytest.raises(TypeError, match="f must be real"):
            _RHS_ENTRIES[entry](A, f)


_ORACLES = {
    "spectral_reference-eigh": (spectral_reference, "heat"),
    "spectral_reference-fft": (spectral_reference, "circulant"),
    "reference_solution": (reference_solution, "heat"),
}


class TestOracleTauGate:
    """Both oracles take any real tau, scalar or array, but refuse a
    complex or a non-finite one, as they refuse such an f."""

    @staticmethod
    def _call(entry, tau):
        oracle, kind = _ORACLES[entry]
        A = (circulant_shift(8, 1.0) if kind == "circulant"
             else discretize_laplacian(uniform_grid(1.0, 8)))
        return oracle(A, tau, np.ones(8))

    @pytest.mark.parametrize("tau", [np.complex128(0.3), 0.3 + 0.5j,
                                     [0.3, 0.5 + 0j]])
    @pytest.mark.parametrize("entry", sorted(_ORACLES))
    def test_complex_tau_refused(self, entry, tau):
        with pytest.raises(TypeError, match="tau must be real"):
            self._call(entry, tau)

    @pytest.mark.parametrize("tau", [np.nan, np.inf, [0.3, -np.inf]])
    @pytest.mark.parametrize("entry", sorted(_ORACLES))
    def test_non_finite_tau_refused(self, entry, tau):
        with pytest.raises(ValueError, match="tau must be finite"):
            self._call(entry, tau)


class TestIntegerOrders:
    @pytest.mark.parametrize("value", [2.0, 10.5])
    @pytest.mark.parametrize("slot", ["p", "N", "ell"])
    @pytest.mark.parametrize("build", ["ActionPlan", "view"])
    def test_fractional_order_refused_before_any_solve(
            self, monkeypatch, build, slot, value):
        """p, N and ell must be integers: a float, even 2.0, raises
        TypeError before shifted_solve is called, where it used to build
        the whole plan and fail only in evaluate, or pass float modes."""
        A, f = discretize_laplacian(uniform_grid(1.0, 16)), np.ones(16)
        plan = ActionPlan(A, 2, 2, 1, f)
        calls, original = [], berngen.matfunc.shifted_solve

        def counting(*args):
            calls.append(args[1])
            return original(*args)

        monkeypatch.setattr(berngen.matfunc, "shifted_solve", counting)
        orders = {"p": 2, "N": 10, "ell": 2, slot: value}
        with pytest.raises(TypeError, match="integer"):
            if build == "ActionPlan":
                ActionPlan(A, f=f, **orders)
            else:
                plan.view(**orders)
        assert calls == []


class TestMatrixMarketLoader:
    def test_general_real(self, tmp_path):
        f = tmp_path / "m.mtx"
        f.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "% comment line\n"
            "2 2 3\n"
            "1 1 2.5\n"
            "2 1 -1\n"
            "2 2 4\n")
        A = load_matrix_market(str(f))
        assert np.array_equal(A.to_dense(), [[2.5, 0.0], [-1.0, 4.0]])

    def test_symmetric_fill(self, tmp_path):
        f = tmp_path / "sym.mtx"
        f.write_text(
            "%%MatrixMarket matrix coordinate integer symmetric\n"
            "3 3 4\n"
            "1 1 2\n"
            "2 1 -1\n"
            "3 3 5\n"
            "3 2 7\n")
        A = load_matrix_market(str(f))
        expect = np.array([[2.0, -1.0, 0.0], [-1.0, 0.0, 7.0],
                           [0.0, 7.0, 5.0]])
        assert np.array_equal(A.to_dense(), expect)

    def test_bad_inputs(self, tmp_path):
        bad_header = tmp_path / "a.mtx"
        bad_header.write_text("%%MatrixMarket matrix array real general\n")
        with pytest.raises(ValueError):
            load_matrix_market(str(bad_header))
        complex_field = tmp_path / "b.mtx"
        complex_field.write_text(
            "%%MatrixMarket matrix coordinate complex general\n1 1 1\n"
            "1 1 1.0 0.0\n")
        with pytest.raises(ValueError):
            load_matrix_market(str(complex_field))
        rectangular = tmp_path / "c.mtx"
        rectangular.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 3 1\n"
            "1 1 1.0\n")
        with pytest.raises(ValueError):
            load_matrix_market(str(rectangular))
        short = tmp_path / "d.mtx"
        short.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 3\n"
            "1 1 1.0\n")
        with pytest.raises(ValueError):
            load_matrix_market(str(short))
        hermitian = tmp_path / "e.mtx"
        hermitian.write_text(
            "%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n"
            "1 1 1.0\n")
        with pytest.raises(ValueError, match="unsupported symmetry"):
            load_matrix_market(str(hermitian))
        empty = tmp_path / "f.mtx"
        empty.write_text("%%MatrixMarket matrix coordinate real general\n"
                         "0 0 0\n")
        with pytest.raises(ValueError, match="empty matrix") as info:
            load_matrix_market(str(empty))
        assert str(info.value).startswith(f"{empty}: ")

    @pytest.mark.parametrize("entry", ["0 1 2.0", "1 0 2.0", "4 1 2.0",
                                       "1 4 2.0"])
    def test_index_out_of_range(self, tmp_path, entry):
        f = tmp_path / "range.mtx"
        f.write_text(
            "%%MatrixMarket matrix coordinate real general\n3 3 2\n"
            f"1 1 1.0\n{entry}\n")
        with pytest.raises(ValueError, match=entry):
            load_matrix_market(str(f))

    @pytest.mark.parametrize("entry", ["2 1", "1 x 2.0", "1 1 two"])
    def test_unparsable_entry_names_file_and_line(self, tmp_path, entry):
        """A short or non-numeric entry used to raise the bare unpacking or
        conversion message, without the path."""
        f = tmp_path / "entry.mtx"
        f.write_text(
            "%%MatrixMarket matrix coordinate real general\n3 3 2\n"
            f"1 1 1.0\n{entry}\n")
        with pytest.raises(ValueError,
                           match=rf"entry\.mtx: malformed entry '{entry}'"):
            load_matrix_market(str(f))


    def test_periodic_pattern_is_banded(self, tmp_path):
        f = tmp_path / "cyc.mtx"
        f.write_text(
            "%%MatrixMarket matrix coordinate real general\n4 4 7\n"
            "1 1 -2\n2 1 1\n3 2 1\n4 3 1\n1 2 0.5\n1 4 3\n4 1 -4\n")
        A = load_matrix_market(str(f))
        expect = np.array([[-2.0, 0.5, 0.0, 3.0], [1.0, 0.0, 0.0, 0.0],
                           [0.0, 1.0, 0.0, 0.0], [-4.0, 0.0, 1.0, 0.0]])
        assert A.corners == (3.0, -4.0)
        assert np.array_equal(A.to_dense(), expect)
        tri = tmp_path / "tri.mtx"
        tri.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n"
            "1 1 2\n2 1 -1\n3 1 0\n")
        B = load_matrix_market(str(tri))
        assert B.is_tridiagonal
        assert np.array_equal(B.to_dense(), [[2.0, -1.0, 0.0],
                                             [-1.0, 0.0, 0.0],
                                             [0.0, 0.0, 0.0]])

    @pytest.mark.parametrize("entries", ["2 2 1.0\n1 2 nan",
                                         "2 2 1.0\n4 1 -inf",
                                         "1 3 1.0\n1 1 inf"])
    def test_non_finite_entry_refused(self, tmp_path, entries):
        """A tridiagonal, a periodic and a dense pattern alike."""
        f = tmp_path / "bad.mtx"
        f.write_text("%%MatrixMarket matrix coordinate real general\n"
                     f"4 4 2\n{entries}\n")
        with pytest.raises(ValueError, match="finite"):
            load_matrix_market(str(f))

    def test_one_comment_rule(self, tmp_path):
        """Blank and '%' lines, indented or not, are skipped alike before
        the size line and among the entries."""
        f = tmp_path / "indented.mtx"
        f.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "  % indented comment\n\n"
            "2 2 2\n"
            "\t% another\n"
            "1 1 3\n\n"
            "2 2 4\n")
        A = load_matrix_market(str(f))
        assert np.array_equal(A.to_dense(), [[3.0, 0.0], [0.0, 4.0]])
        no_size = tmp_path / "no_size.mtx"
        no_size.write_text(
            "%%MatrixMarket matrix coordinate real general\n  %\n\n")
        with pytest.raises(ValueError, match="malformed size line"):
            load_matrix_market(str(no_size))

    def test_off_band_entry_stays_dense(self, tmp_path):
        f = tmp_path / "off.mtx"
        f.write_text(
            "%%MatrixMarket matrix coordinate real general\n4 4 3\n"
            "1 1 1\n2 1 2\n1 3 5\n")
        A = load_matrix_market(str(f))
        assert not A.is_tridiagonal and A.corners is None
        expect = np.zeros((4, 4))
        expect[0, 0], expect[1, 0], expect[0, 2] = 1.0, 2.0, 5.0
        assert np.array_equal(A.to_dense(), expect)

    def test_two_by_two_has_no_corners(self, tmp_path):
        """At s = 2 the entries (1, 2) and (2, 1) are the off-diagonals."""
        f = tmp_path / "two.mtx"
        f.write_text("%%MatrixMarket matrix coordinate real general\n"
                     "2 2 2\n1 2 3\n2 1 -4\n")
        A = load_matrix_market(str(f))
        assert A.is_tridiagonal and A.corners is None
        assert A.sup.tolist() == [3.0] and A.sub.tolist() == [-4.0]


#: entry patterns of the Matrix Market property test
_MM_PATTERNS = ("tridiagonal", "upper-corner", "lower-corner",
                "both-corners", "off-band", "off-band-zero")


def _mm_entries(rng, s, pattern):
    """A random entry map (i, j) -> value of the given pattern: each band
    slot present with probability 0.8, as an explicit zero now and then,
    plus the pattern's corner or off-band entries."""
    entries = {}
    for i in range(s):
        for j in range(max(i - 1, 0), min(i + 2, s)):
            if rng.random() < 0.8:
                entries[i, j] = 0.0 if rng.random() < 0.1 else rng.normal()
    corners = {"upper-corner": [(0, s - 1)], "lower-corner": [(s - 1, 0)],
               "both-corners": [(0, s - 1), (s - 1, 0)]}
    for ij in corners.get(pattern, []):
        entries[ij] = rng.normal()
    if pattern.startswith("off-band"):
        off = [(i, j) for i in range(s) for j in range(s) if abs(i - j) > 1
               and (i, j) not in ((0, s - 1), (s - 1, 0))]
        ij = off[rng.integers(len(off))]
        entries[ij] = 0.0 if pattern == "off-band-zero" else rng.normal()
    return entries


class TestMatrixMarketPatterns:
    """load_matrix_market against a dense matrix filled from the same
    entries, over seeded random band, corner and off-band patterns."""

    # below s = 4 every slot off the bands is a corner slot
    @pytest.mark.parametrize("symmetry", ["general", "symmetric"])
    @pytest.mark.parametrize("s, pattern", [
        (s, pattern) for s in range(1, 7) for pattern in _MM_PATTERNS
        if s >= 4 or not pattern.startswith("off-band")])
    def test_matches_dense_fill(self, tmp_path, s, pattern, symmetry):
        rng = np.random.default_rng(
            [s, _MM_PATTERNS.index(pattern), symmetry == "symmetric"])
        for trial in range(4):
            entries = _mm_entries(rng, s, pattern)
            if symmetry == "symmetric":
                # the file holds the lower triangle; the reader mirrors it
                entries = {(max(i, j), min(i, j)): v
                           for (i, j), v in entries.items()}
            M = np.zeros((s, s))
            for (i, j), v in entries.items():
                M[i, j] = v
            if symmetry == "symmetric":
                M += np.tril(M, -1).T
            lines = [f"{i + 1} {j + 1} {v!r}" for (i, j), v in entries.items()]
            rng.shuffle(lines)
            f = tmp_path / f"{trial}.mtx"
            f.write_text(f"%%MatrixMarket matrix coordinate real {symmetry}\n"
                         f"{s} {s} {len(lines)}\n" + "\n".join(lines) + "\n")
            A = load_matrix_market(str(f))
            assert np.array_equal(A.to_dense(), M)
            corner_slots = ((0, s - 1), (s - 1, 0)) if s >= 3 else ()
            off_band = any(M[i, j] for i in range(s) for j in range(s)
                           if abs(i - j) > 1 and (i, j) not in corner_slots)
            corners = tuple(float(M[ij]) for ij in corner_slots)
            assert A.is_tridiagonal == (not off_band and not any(corners))
            assert A.corners == (corners if any(corners) and not off_band
                                 else None)


class TestTridiagonalLoader:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(60)
        A = _random_tridiagonal(rng, 5)
        rows = []
        sub = np.concatenate(([0.0], A.sub))
        sup = np.concatenate((A.sup, [0.0]))
        for i in range(5):
            rows.append(f"{sub[i]:.17g} {A.diag[i]:.17g} {sup[i]:.17g}")
        f = tmp_path / "tri.txt"
        f.write_text("\n".join(rows) + "\n")
        B = load_tridiagonal(str(f))
        assert np.array_equal(B.to_dense(), A.to_dense())

    def test_non_finite_entry_refused(self, tmp_path):
        f = tmp_path / "nan.txt"
        f.write_text("0 -2 1\n1 nan 1\n1 -2 0\n")
        with pytest.raises(ValueError, match="finite"):
            load_tridiagonal(str(f))

    def test_column_count_checked(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("1.0 2.0\n3.0 4.0\n")
        with pytest.raises(ValueError):
            load_tridiagonal(str(f))

    @pytest.mark.parametrize("text", ["", "# no rows\n\n"],
                             ids=["empty", "comments-only"])
    def test_file_without_data_refused(self, tmp_path, text):
        """An empty or comment-only file is refused as one, by a message
        that names it, and numpy warns of nothing."""
        f = tmp_path / "tri.txt"
        f.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match=r"tri\.txt: the file holds no data"):
                load_tridiagonal(str(f))
