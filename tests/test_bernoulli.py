"""Exact-rational Bernoulli tables and the truncated generating series."""

import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, strategies as st
from scipy.special import zeta

import berngen
from berngen.bernoulli import (DEGREE_CAP, build_bernoulli_table,
                               eval_bernoulli, lanczos_polynomial,
                               shared_table)
from berngen.fourier import reference_q


class TestExactCoefficients:
    def test_matches_symbolic_polynomials(self):
        """Coefficient rows agree with sympy.bernoulli(k, x) exactly."""
        table = build_bernoulli_table(12)
        x = sympy.symbols("x")
        for k in range(13):
            sym = sympy.Poly(sympy.bernoulli(k, x), x).all_coeffs()[::-1]
            got = table.coeffs[k]
            assert len(got) == k + 1
            for j, c in enumerate(sym):
                r = sympy.Rational(c)
                assert got[j] == Fraction(int(r.p), int(r.q))

    def test_derivative_identity(self):
        """d/dtau B_k = k B_{k-1} holds exactly on the rationals."""
        table = build_bernoulli_table(20)
        for k in range(1, 21):
            derived = tuple(j * c for j, c in enumerate(table.coeffs[k]))[1:]
            scaled = tuple(Fraction(k) * c for c in table.coeffs[k - 1])
            assert derived == scaled

    def test_zero_mean(self):
        """Integral of B_k over [0, 1] vanishes exactly for k >= 1."""
        table = build_bernoulli_table(20)
        for k in range(1, 21):
            mean = sum(c / (j + 1) for j, c in enumerate(table.coeffs[k]))
            assert mean == 0

    def test_endpoint_jump(self):
        """B_k(1) - B_k(0) is 1 for k = 1 and 0 otherwise."""
        table = build_bernoulli_table(16)
        for k in range(17):
            jump = sum(table.coeffs[k]) - table.coeffs[k][0]
            assert jump == (1 if k == 1 else 0)

    def test_known_constants(self):
        table = build_bernoulli_table(4)
        assert eval_bernoulli(table, 0, 0.7) == 1.0
        assert eval_bernoulli(table, 1, 0.0) == -0.5
        assert abs(eval_bernoulli(table, 2, 0.0) - 1.0 / 6.0) < 1e-16
        assert eval_bernoulli(table, 3, 0.0) == 0.0
        assert abs(eval_bernoulli(table, 4, 0.0) + 1.0 / 30.0) < 1e-16

    @pytest.mark.parametrize("degree", [0, 1, 2, 3, DEGREE_CAP])
    def test_matches_integration_recurrence(self, degree):
        """Rows equal, as exact rationals, B_k built by integrating
        k B_{k-1} and pinning the zero mean on [0, 1]."""
        rows = [(Fraction(1),)]
        for k in range(1, degree + 1):
            d = [Fraction(0)] + [Fraction(k) * c / (j + 1)
                                 for j, c in enumerate(rows[-1])]
            d[0] = -sum(dj / (j + 1) for j, dj in enumerate(d))
            rows.append(tuple(d))
        table = build_bernoulli_table(degree)
        assert table.coeffs == tuple(rows)
        assert all(type(c) is Fraction for row in table.coeffs for c in row)
        assert table.coeffs_float == tuple(
            tuple(float(c) for c in row) for row in rows)

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            build_bernoulli_table(-1)
        with pytest.raises(ValueError):
            build_bernoulli_table(DEGREE_CAP + 1)

    @given(st.integers(min_value=0, max_value=12),
           st.floats(min_value=0.0, max_value=1.0))
    def test_reflection_symmetry(self, k, tau):
        """B_k(1 - tau) = (-1)^k B_k(tau)."""
        table = shared_table()
        left = eval_bernoulli(table, k, 1.0 - tau)
        right = (-1.0) ** k * eval_bernoulli(table, k, tau)
        assert abs(left - right) <= 1e-10 * (1.0 + abs(right))

    def test_lehmer_bound(self):
        """|B_k(tau)| <= 2 k! zeta(k) / (2 pi)^k on [0, 1] for k >= 2, with
        equality at tau = 0 for even k (checked on the table, up to
        rounding; Lehmer 1940)."""
        taus = np.linspace(0.0, 1.0, 101)
        table = shared_table()
        for k in range(2, DEGREE_CAP + 1):
            bound = 2.0 * math.factorial(k) * zeta(k) / (2.0 * math.pi) ** k
            assert all(abs(eval_bernoulli(table, k, t)) <= bound * (1 + 1e-14)
                       for t in taus)


class TestSharedTable:
    def test_one_table_of_cap_degree(self):
        table = shared_table()
        assert table.max_degree == DEGREE_CAP
        assert all(shared_table() is table for _ in range(3))
        assert table == build_bernoulli_table(DEGREE_CAP)

    def test_import_builds_no_table(self):
        # the child imports the same package as this process
        src = os.path.dirname(os.path.dirname(berngen.__file__))
        path = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", "import berngen; print(berngen.bernoulli"
             ".shared_table.cache_info().currsize)"],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0"

    def test_eval_range_checked(self):
        table = build_bernoulli_table(5)
        with pytest.raises(ValueError):
            eval_bernoulli(table, 6, 0.5)
        with pytest.raises(ValueError):
            eval_bernoulli(table, -1, 0.5)


class TestLanczosPolynomial:
    def test_order_one_is_constant(self):
        table = shared_table()
        for w in (0.0, 1.0, -7.5, 2 + 3j):
            assert lanczos_polynomial(table, 1, 0.3, w) == 1.0

    def test_midpoint_order_two(self):
        """B_1(1/2) = 0, so the order-2 polynomial is 1 for every w."""
        table = shared_table()
        assert lanczos_polynomial(table, 2, 0.5, -123.0) == 1.0

    def test_order_four_at_zero(self):
        """1 - 1/2 + 1/12 + 0 = 7/12."""
        table = shared_table()
        got = lanczos_polynomial(table, 4, 0.0, 1.0)
        assert abs(got - 7.0 / 12.0) < 1e-15

    def test_series_converges_to_q(self):
        """The full series reproduces q(tau, w) inside its disc."""
        table = shared_table()
        for tau in (0.0, 0.3, 1.0):
            got = lanczos_polynomial(table, 41, tau, 1.0)
            assert abs(got - reference_q(tau, 1.0)) < 1e-12

    def test_validation(self):
        table = build_bernoulli_table(3)
        with pytest.raises(ValueError):
            lanczos_polynomial(table, 0, 0.5, 1.0)
        with pytest.raises(ValueError):
            lanczos_polynomial(table, 5, 0.5, 1.0)



#: a 1 x 1 operator and vector for the matrix entry points
_A, _F = berngen.BandedOperator.diagonal([1.0]), np.ones(1)

#: every public entry point that takes an order p, as a function of p
ORDER_ENTRY_POINTS = {
    "ApproxParams": lambda p: berngen.ApproxParams(p=p, N=4, tau=0.5),
    "lanczos_coefficients": lambda p: berngen.lanczos_coefficients(p, 1, 1.0),
    "residual_l2": lambda p: berngen.residual_l2(p, 1.0, 1, 4),
    "lanczos_polynomial": lambda p: berngen.lanczos_polynomial(
        shared_table(), p, 0.5, 1.0),
    "h_action": lambda p: berngen.h_action(_A, p, 0.5, _F),
    "correction": lambda p: berngen.correction(p, 4, 1, 0.3, 1.0),
    "ActionPlan": lambda p: berngen.ActionPlan(_A, p, 4, 1, _F),
    "view": lambda p: berngen.ActionPlan(_A, 2, 4, 1, _F).view(p, 4, 1),
}


class TestOrderGate:
    """One gate, with one message, admits p = 1 .. DEGREE_CAP + 1: the
    polynomial part of order p needs Bernoulli degrees up to p - 1."""

    @pytest.mark.parametrize("p", [0, DEGREE_CAP + 2])
    @pytest.mark.parametrize("name", sorted(ORDER_ENTRY_POINTS))
    def test_out_of_range_refused(self, name, p):
        with pytest.raises(ValueError,
                           match=rf"^p must lie in 1\.\.{DEGREE_CAP + 1}$"):
            ORDER_ENTRY_POINTS[name](p)

    @pytest.mark.parametrize("p", [1, DEGREE_CAP + 1])
    @pytest.mark.parametrize("name", sorted(ORDER_ENTRY_POINTS))
    def test_range_ends_accepted(self, name, p):
        ORDER_ENTRY_POINTS[name](p)
