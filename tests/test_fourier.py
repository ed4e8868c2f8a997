"""Scalar q, its Fourier modes, and the truncated-sum error functional."""

import cmath
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import sympy
from scipy.integrate import quad

from berngen import fourier
from berngen.acceleration import G_approx, _pair_matrix, _weight_row
from berngen.bernoulli import DEGREE_CAP, lanczos_polynomial, shared_table
from berngen.fourier import (ApproxParams, PoleProximityError, _k_powers,
                             _modes, _w_powers, check_pole, delta_of_N,
                             fourier_partial, g_approx, hat_coefficients,
                             lanczos_coefficients, parity_signs, reference_q,
                             residual_l2)

TWO_PI = 2.0 * math.pi


def _mode_pair(p, k, w):
    """_modes of mode k at argument w, from factors formed for this call."""
    return _modes(p, _w_powers(p, w), _k_powers(p, k))


class TestReferenceQ:
    def test_closed_form_values(self):
        assert abs(reference_q(0.5, 1.0) - math.exp(0.5) / (math.e - 1)) < 1e-15
        assert abs(reference_q(0.0, 1.0) - 1.0 / (math.e - 1)) < 1e-15

    def test_removable_singularity(self):
        assert reference_q(0.3, 0.0) == 1.0
        assert abs(reference_q(0.7, 1e-14) - 1.0) < 1e-13

    def test_endpoint_jump_is_w(self):
        """q(1, w) - q(0, w) = w."""
        for w in (1.0, -4.0, 0.3 + 2.0j, 1e-6):
            assert abs(reference_q(1.0, w) - reference_q(0.0, w) - w) < 1e-12 * max(
                1.0, abs(w))

    def test_large_positive_w_no_overflow(self):
        got = reference_q(1.0, 700.0)
        assert cmath.isfinite(got)
        assert abs(got - 700.0) < 1e-9 * 700.0

    def test_unit_mean_in_tau(self):
        """Integral of q over tau in [0, 1] is exactly 1."""
        for w in (1.0, -5.0, 2 + 3j):
            re, _ = quad(lambda t: reference_q(t, w).real, 0.0, 1.0,
                         epsabs=1e-14)
            im, _ = quad(lambda t: reference_q(t, w).imag, 0.0, 1.0,
                         epsabs=1e-14)
            assert abs(re - 1.0) < 1e-10
            assert abs(im) < 1e-10

    def test_pole_guard(self):
        with pytest.raises(PoleProximityError):
            reference_q(0.5, 2j * math.pi)
        with pytest.raises(PoleProximityError):
            reference_q(0.5, 6j * math.pi + 1e-13)
        check_pole(2j * math.pi + 0.01)
        check_pole(1e-14)

    @pytest.mark.parametrize("w", [complex(0.0, math.inf), math.nan,
                                   -math.inf, complex(1.0, math.nan)])
    def test_non_finite_w_refused(self, w):
        with pytest.raises(ValueError, match="must be finite"):
            check_pole(w)
        with pytest.raises(ValueError, match="must be finite"):
            reference_q(0.5, w)

    @pytest.mark.parametrize("tau", [0.0, 0.5, 1.0,
                                     (3.0 - math.sqrt(3.0)) / 6.0])
    @pytest.mark.parametrize("w", [0.05, -0.09, 0.02j, 1e-5, 0.0999])
    def test_series_matches_sympy(self, tau, w):
        """The closed form keeps full relative accuracy at small w, also at
        the zeros of the low Bernoulli polynomials, where the first terms of
        q's Taylor series in w vanish: B_1(1/2) = B_3(0) = B_3(1) = 0, and
        B_2 vanishes at (3 - sqrt 3)/6."""
        t = sympy.Rational(tau)
        z = sympy.Rational(complex(w).real) + sympy.I * sympy.Rational(
            complex(w).imag)
        exact = complex(sympy.N(z * sympy.exp(z * t) / (sympy.exp(z) - 1), 40))
        assert abs(reference_q(tau, w) - exact) <= 1e-14 * abs(exact)

    def test_independent_of_bernoulli_code(self, monkeypatch):
        """The oracle calls nothing the approximations use, also near 0."""
        points = [(tau, w) for tau in (0.0, 0.3, 1.0)
                  for w in (0.0, 1e-5, -0.05, 0.02j, 0.06 - 0.07j)]
        before = [reference_q(tau, w) for tau, w in points]

        def refuse(*args):
            raise AssertionError("reference_q reached the Bernoulli code")

        monkeypatch.setattr("berngen.fourier._polynomial_weights", refuse)
        monkeypatch.setattr("berngen.fourier._polyval", refuse)
        monkeypatch.setattr("berngen.fourier.shared_table", refuse)
        monkeypatch.setattr("berngen.bernoulli.eval_bernoulli", refuse)
        assert [reference_q(tau, w) for tau, w in points] == before

    def test_near_zero_matches_sympy(self):
        """expm1 keeps the closed form's digits down to |w| = 1e-6 on a
        polar grid (worst 3.3e-16; bound 3x that)."""
        worst = 0.0
        for tau in (0.0, 0.3, 1.0):
            t = sympy.Rational(tau)
            for r in np.geomspace(1e-6, 0.3, 12):
                for angle in np.linspace(0.0, TWO_PI, 16, endpoint=False):
                    w = complex(cmath.rect(r, angle))
                    z = sympy.Rational(w.real) + sympy.I * sympy.Rational(
                        w.imag)
                    exact = complex(sympy.N(
                        z * sympy.exp(z * t) / (sympy.exp(z) - 1), 40))
                    worst = max(worst,
                                abs(reference_q(tau, w) - exact) / abs(exact))
        assert worst <= 1e-15

    def test_real_w_matches_complex_form(self):
        """A real w, which takes float arithmetic, gives bit for bit the
        real part of the complex closed form, as a complex number."""
        rng = np.random.default_rng(54)
        w = rng.choice([-1.0, 1.0], 20000) * np.geomspace(1e-12, 1.6e3, 20000)
        taus = np.concatenate(([0.0, 1.0], rng.uniform(0.0, 1.0, 19998)))
        for tau, x in zip(taus.tolist(), w.tolist()):
            z = complex(x)
            if x > 0.0:
                expect = z * cmath.exp(z * (tau - 1.0)) / -complex(
                    np.expm1(-z))
            else:
                expect = z * cmath.exp(z * tau) / complex(np.expm1(z))
            got = reference_q(tau, x)
            assert type(got) is complex
            assert got.real == expect.real and got.imag == 0.0
        assert reference_q(0.5, 0.0) == 1.0 and reference_q(0.5, -0.0) == 1.0


class TestHatCoefficients:
    def test_first_mode_of_two_pi(self):
        c, s = hat_coefficients(1, TWO_PI)
        assert abs(c - 0.5) < 1e-14
        assert abs(s + 0.5) < 1e-14

    def test_quadrature_oracle(self):
        """Modes equal the cosine/sine integrals of q - 1."""
        for k, w in ((3, 1.0), (1, -2.5)):
            c_ref, _ = quad(
                lambda t: (reference_q(t, w) - 1.0).real * math.cos(
                    TWO_PI * k * t),
                0.0, 1.0, epsabs=1e-14)
            s_ref, _ = quad(
                lambda t: (reference_q(t, w) - 1.0).real * math.sin(
                    TWO_PI * k * t),
                0.0, 1.0, epsabs=1e-14)
            c, s = hat_coefficients(k, w)
            assert abs(c - c_ref) < 1e-10
            assert abs(s - s_ref) < 1e-10

    def test_mode_index_validated(self):
        with pytest.raises(ValueError):
            hat_coefficients(0, 1.0)


class TestFourierPartial:
    def test_matches_explicit_mode_sum(self):
        tau, w, N = 0.3, -2.0, 3
        acc = 1.0
        for k in range(1, N + 1):
            c, s = hat_coefficients(k, w)
            acc += 2.0 * (c * math.cos(TWO_PI * k * tau)
                          + s * math.sin(TWO_PI * k * tau))
        assert abs(fourier_partial(tau, w, N) - acc) < 1e-14

    def test_interior_convergence(self):
        assert abs(fourier_partial(0.5, 1.0, 4096) - reference_q(0.5, 1.0)) < 1e-6

    def test_mean_error_decays(self):
        """Average interior error drops as the cutoff grows."""
        taus = np.linspace(0.06, 0.94, 17)
        means = []
        for N in (128, 1024):
            errs = [abs(fourier_partial(t, 1.0, N) - reference_q(t, 1.0))
                    for t in taus]
            means.append(sum(errs) / len(errs))
        assert means[0] / means[1] >= 2.5

    def test_cutoff_validated(self):
        with pytest.raises(ValueError):
            fourier_partial(0.5, 1.0, 0)

    @pytest.mark.parametrize("tau", [-0.5, 1.5])
    def test_tau_outside_unit_interval_refused(self, tau):
        """No periodic extension: q(1.5, 1) is 2.608, the sum's 0.9595."""
        with pytest.raises(ValueError, match="tau must lie in"):
            fourier_partial(tau, 1.0, 200)


#: (N, tau, w) cases for the exact order-1 relations
ORDER_ONE_CASES = [(7, 0.3, -2.0), (50, 0.125, -4.0), (33, 0.7, 1.5 - 2.0j),
                   (100, 0.0078125, -10.0), (12, 0.45, 0.25j),
                   (200, 0.9, 3.0 + 1.0j)]


class TestOrderOneRelations:
    """The classical Fourier quantities are the p = 1 case of the
    residual-mode code, bit for bit."""

    @pytest.mark.parametrize("N, tau, w", ORDER_ONE_CASES)
    def test_partial_sum_is_order_one_g_approx(self, N, tau, w):
        assert fourier_partial(tau, w, N) == g_approx(
            ApproxParams(p=1, N=N, tau=tau, w=w))

    @pytest.mark.parametrize("N, tau, w", ORDER_ONE_CASES)
    def test_hat_coefficients_are_order_one_modes(self, N, tau, w):
        for k in (1, 2, N):
            assert hat_coefficients(k, w) == lanczos_coefficients(1, k, w)


class TestLanczosCoefficients:
    def test_base_case(self):
        mode = lanczos_coefficients(2, 1, TWO_PI)
        assert isinstance(mode, tuple) and len(mode) == 2
        c, s = mode
        assert abs(c - 0.5) < 1e-14
        assert abs(s - 0.5) < 1e-14

    def test_non_integer_mode_index_refused(self):
        """k must be an integer: 1.5 and 2.0 are refused, numpy ints are
        the same mode as Python ints."""
        for k in (1.5, 2.0):
            with pytest.raises(TypeError):
                lanczos_coefficients(2, k, 1.0)
        assert lanczos_coefficients(2, np.int64(3), 1.0) == (
            lanczos_coefficients(2, 3, 1.0))

    @pytest.mark.parametrize("p", [2.0, 10.5, np.float64(4.0)])
    def test_non_integer_order_refused(self, p):
        """p must be an integer too: a float p used to give the modes of a
        fractional power of w."""
        with pytest.raises(TypeError, match="integer"):
            lanczos_coefficients(p, 1, 1.0)

    @pytest.mark.parametrize("p", range(1, 7))
    def test_signed_mode_pair(self, p):
        """(c, s) is the _modes pair times the exact +-1 parity signs."""
        sc, ss = parity_signs(p)
        for k, w in ((1, -4.0), (7, 2.5), (3, 1.5 - 2.0j), (12, 0.25j)):
            gamma, delta = _mode_pair(p, k, complex(w))
            assert lanczos_coefficients(p, k, w) == (sc * gamma, ss * delta)

    def test_order_four_values(self):
        c, s = lanczos_coefficients(4, 2, TWO_PI)
        assert abs(c + 0.05) < 1e-14
        assert abs(s + 0.025) < 1e-14

    def test_quadrature_oracle(self):
        """Coefficients equal the Fourier integrals of q minus the order-p
        polynomial part."""
        for p, k, w in ((2, 1, 1.0), (3, 2, 1.3), (4, 1, -2.0), (5, 1, 2.2)):
            table = shared_table()

            def residual(t):
                return (reference_q(t, w)
                        - lanczos_polynomial(table, p, t, w)).real

            c_ref, _ = quad(lambda t: residual(t) * math.cos(TWO_PI * k * t),
                            0.0, 1.0, epsabs=1e-14, limit=200)
            s_ref, _ = quad(lambda t: residual(t) * math.sin(TWO_PI * k * t),
                            0.0, 1.0, epsabs=1e-14, limit=200)
            c, s = lanczos_coefficients(p, k, w)
            assert abs(c - c_ref) < 1e-10
            assert abs(s - s_ref) < 1e-10

    def test_z_scaled_identity(self):
        """Writing w = 2 pi z turns the magnitudes into the z-form ratio."""
        rng = np.random.default_rng(20)
        for _ in range(20):
            p = int(rng.integers(1, 7))
            k = int(rng.integers(1, 40))
            z = float(rng.uniform(0.05, 4.0))
            c, s = lanczos_coefficients(p, k, TWO_PI * z)
            if p % 2 == 0:
                mag_c = z ** p / (k ** (p - 2) * (z * z + k * k))
                mag_s = z ** (p + 1) / (k ** (p - 1) * (z * z + k * k))
            else:
                mag_c = z ** (p + 1) / (k ** (p - 1) * (z * z + k * k))
                mag_s = z ** p / (k ** (p - 2) * (z * z + k * k))
            assert abs(abs(c) - abs(mag_c)) < 1e-14 * (1.0 + abs(mag_c))
            assert abs(abs(s) - abs(mag_s)) < 1e-14 * (1.0 + abs(mag_s))

    def test_vanish_at_zero_w(self):
        assert lanczos_coefficients(3, 5, 0.0) == (0.0, 0.0)

    def test_mode_decay_rate(self):
        """max(|c_k|, |s_k|) falls off like k^{-p}."""
        ks = 2 ** np.arange(6, 13)
        for p in (2, 3, 4, 5):
            mags = []
            for k in ks:
                c, s = lanczos_coefficients(p, int(k), 1.0)
                mags.append(max(abs(c), abs(s)))
            slope = np.polyfit(np.log(ks), np.log(mags), 1)[0]
            assert abs(slope + p) < 0.05 * p

    def test_parity_sign_table(self):
        assert [parity_signs(p) for p in range(1, 7)] == [
            (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0),
            (-1.0, -1.0), (1.0, -1.0), (1.0, 1.0)]


class TestGApprox:
    def test_second_order_in_cutoff(self):
        """Doubling N cuts the p = 2 error by about 2^2 = 4 at a dyadic
        tau, where the oscillating prefactor keeps a fixed phase."""
        errs = []
        for N in (64, 128, 256, 512):
            params = ApproxParams(p=2, N=N, tau=0.125, w=-4.0)
            errs.append(abs(g_approx(params) - reference_q(0.125, -4.0)))
        for a, b in zip(errs, errs[1:]):
            assert 3.5 <= a / b <= 4.5

    def test_mean_error_order(self):
        """Averaged over interior tau, p = 2 decays like N^{-2} and the
        p = 4 remainder decays much faster still."""
        taus = np.linspace(0.06, 0.94, 17)
        means = {}
        for p in (2, 4):
            ms = []
            for N in (64, 256):
                es = [abs(g_approx(ApproxParams(p=p, N=N, tau=float(t),
                                                w=-4.0))
                          - reference_q(float(t), -4.0)) for t in taus]
                ms.append(sum(es) / len(es))
            means[p] = ms
        assert 13.0 <= means[2][0] / means[2][1] <= 20.0
        assert means[4][0] / means[4][1] >= 100.0

    def test_absolute_accuracy(self):
        params = ApproxParams(p=2, N=100, tau=0.125, w=-4.0)
        assert abs(g_approx(params) - reference_q(0.125, -4.0)) < 1e-4

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("ell", [0, 3])
    @pytest.mark.parametrize("tau", [0.125, 0.0078125])
    def test_mode_sum_is_compensated(self, p, ell, tau):
        """The polynomial part plus the terms 2 (sc g a + ss d b) over the
        weight row lies within 3 u sum |terms| of their exact sum (fsum),
        real and imaginary parts apart, u = 2^-53.  A plain running sum
        reaches about 15 u on these cells; the CSV tables rely on the
        compensated one."""
        u, sc, ss = 2.0 ** -53, *parity_signs(p)
        row = _weight_row(100, _pair_matrix(ell), tau)
        for w in np.linspace(-10.0, 0.0, 100):
            w = complex(w)
            terms = [lanczos_polynomial(shared_table(), p, tau, w)]
            for k, (a, b) in enumerate(zip(*row.tolist()), 1):
                g, d = _mode_pair(p, k, w)
                terms.append(2.0 * (sc * g * a + ss * d * b))
            got = G_approx(ApproxParams(p=p, N=100, tau=tau, w=w, ell=ell))
            for part in (lambda z: z.real, lambda z: z.imag):
                parts = [part(z) for z in terms]
                assert (abs(part(got) - math.fsum(parts))
                        <= 3.0 * u * math.fsum(map(abs, parts)))


def _bits(z: complex) -> list:
    return [z.real.hex(), z.imag.hex()]


class TestModeSum:
    """Each sum forms its own k powers: no state outlives a call or is
    shared between threads."""

    W = -3.0 + 20.0j

    @pytest.mark.parametrize("p", [1, 2, 3, 6, 24, 65])
    def test_k_factors_are_the_int_powers(self, monkeypatch, p):
        """Every k factor a 4,104-mode sum passes to _modes is _k_powers of
        the int k, bit for bit.  The CSV tables and the frozen bits absorb
        a last-bit change in them: numpy's ** on a float64 arange (one ulp
        off at p = 6, k = 5) moved no cell."""
        seen = []

        def record(p, w_powers, k_powers):
            seen.append(k_powers)
            return _modes(p, w_powers, k_powers)

        monkeypatch.setattr(fourier, "_modes", record)
        G_approx(ApproxParams(p=p, N=4100, tau=0.3, w=self.W, ell=2))
        assert seen == [_k_powers(p, k) for k in range(1, 4105)]

    def test_threads_give_the_serial_bits(self):
        """G_approx from four threads at once, each in another order, gives
        the serial results bit for bit."""
        cases = [ApproxParams(p=p, N=N, tau=0.3, w=w, ell=2)
                 for p in (2, 6) for N in (50, 400, 20, 200, 800)
                 for w in (-3.0, self.W)]
        serial = [_bits(G_approx(params)) for params in cases]
        barrier = threading.Barrier(4)

        def run(shift):
            barrier.wait(timeout=60)
            order = list(range(shift, len(cases))) + list(range(shift))
            return {i: _bits(G_approx(cases[i])) for i in order}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(run, 5 * i) for i in range(4)]
                results = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for got in results:
            assert [got[i] for i in range(len(cases))] == serial

    def test_long_sum_keeps_little(self):
        """After a 20,000-mode sum less than 1 MB stays allocated; an
        uncapped process-wide k table kept about 2.9 MB."""
        g_approx(ApproxParams(p=2, N=10, tau=0.3, w=self.W))
        params = ApproxParams(p=2, N=20_000, tau=0.3, w=self.W)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            g_approx(params)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept < 2 ** 20


class TestResidualNorm:
    def test_empty_tail_is_zero(self):
        assert residual_l2(2, 1.0, 16, 16) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            residual_l2(2, 1.0, 16, 8)
        with pytest.raises(ValueError):
            residual_l2(0, 1.0, 16, 32)

    def test_w_validated_on_empty_tail(self):
        """K = N refuses a non-finite or near-pole w as K > N does."""
        with pytest.raises(ValueError, match="finite"):
            residual_l2(2, math.nan, 5, 5)
        with pytest.raises(PoleProximityError):
            residual_l2(2, TWO_PI * 1j, 5, 5)

    def test_negative_cutoff_rejected(self):
        """N < 0 would put the pole-free mode k = 0 into the tail."""
        with pytest.raises(ValueError, match="N must be >= 0"):
            residual_l2(4, TWO_PI, -5, 5)
        assert math.isfinite(residual_l2(4, TWO_PI, 0, 5))

    def test_quadrature_oracle(self):
        """Tail norm matches the L2 distance between q and the order-p sum."""
        p, w, N = 2, 1.0, 8
        ref2, _ = quad(
            lambda t: abs(reference_q(t, w) - g_approx(
                ApproxParams(p=p, N=N, tau=t, w=w))) ** 2,
            0.0, 1.0, epsabs=1e-15, limit=400)
        got = residual_l2(p, w, N, 1_000_000)
        assert abs(got - math.sqrt(ref2)) < 1e-10

    def test_tail_decay_order(self):
        """For p = 4 the norm shrinks like N^{-3.5}: ratio ~ 2^3.5 = 11.3."""
        a = residual_l2(4, TWO_PI, 256, 4096)
        b = residual_l2(4, TWO_PI, 512, 4096)
        assert 10.5 <= a / b <= 12.0

    @pytest.mark.parametrize("z", [1e54, 1e60, 1e61, 1e100, 1e153, 1e154,
                                   1e200])
    def test_overflow_refused(self, z):
        """A norm that overflows to inf or nan is refused, with no numpy
        RuntimeWarning on the way (the suite turns one into an error)."""
        with pytest.raises(FloatingPointError, match=r"w=\(6\.28"):
            residual_l2(4, TWO_PI * z, 512, 2560)
        with pytest.raises(FloatingPointError, match="residual norm"):
            delta_of_N(z, 512, 2560)


    @pytest.mark.parametrize("N, K", [(5.0, 10), (5.5, 10), (5, 10.0),
                                      (5, 10.5)])
    def test_non_integer_mode_counts_refused(self, N, K):
        """N and K count modes: a float, even 5.0, raises TypeError where
        it used to sum over modes such as 6.5, 7.5, ..."""
        with pytest.raises(TypeError, match="integer"):
            residual_l2(4, 1.0, N, K)


class TestDeltaOfN:
    def test_requires_long_tail(self):
        with pytest.raises(ValueError):
            delta_of_N(1.0, 512, 600)

    def test_requires_positive_cutoff(self):
        for N in (0, -5):
            with pytest.raises(ValueError, match="N must be >= 1"):
                delta_of_N(1.0, N, 10)

    @pytest.mark.parametrize("z", [0, 0.0, 0j])
    def test_zero_z_refused(self, z):
        with pytest.raises(ValueError, match="z must be nonzero"):
            delta_of_N(z, 512, 2048)

    @pytest.mark.parametrize("z", [math.inf, -math.inf, math.nan,
                                   complex(0.0, math.inf)])
    def test_non_finite_z_refused(self, z):
        with pytest.raises(ValueError, match="z=.* must be finite"):
            delta_of_N(z, 4, 8)

    @pytest.mark.parametrize("N, K", [(512.5, 2560), (512.0, 2560),
                                      (512, 2560.0), (512, 2560.5)])
    def test_non_integer_mode_counts_refused(self, N, K):
        """delta_of_N(1.0, 512.5, 2560) used to return 0.53269, as if 512.5
        were a mode count."""
        with pytest.raises(TypeError, match="integer"):
            delta_of_N(1.0, N, K)

    def test_z_independence(self):
        """The scaled functional approaches the same constant for every z."""
        vals = [delta_of_N(z, 2048, 8192) for z in (1.0, 0.1, 10.0)]
        for v in vals[1:]:
            assert abs(v - vals[0]) / abs(vals[0]) < 2e-4


class TestApproxParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ApproxParams(p=0, N=10, tau=0.5)
        with pytest.raises(ValueError):
            ApproxParams(p=2, N=0, tau=0.5)
        with pytest.raises(ValueError):
            ApproxParams(p=2, N=10, tau=-0.5)
        with pytest.raises(ValueError):
            ApproxParams(p=2, N=10, tau=1.5)
        with pytest.raises(ValueError):
            ApproxParams(p=2, N=10, tau=0.5, ell=-1)
        with pytest.raises(PoleProximityError):
            ApproxParams(p=2, N=10, tau=0.5, w=TWO_PI * 1j)

    def test_order_capped_by_bernoulli_table(self):
        """p - 1 is the largest Bernoulli degree the polynomial part
        needs, so the cap is checked before any mode is summed."""
        with pytest.raises(ValueError):
            ApproxParams(p=DEGREE_CAP + 2, N=10, tau=0.5)
        assert ApproxParams(p=DEGREE_CAP + 1, N=10, tau=0.5).p == DEGREE_CAP + 1

    @pytest.mark.parametrize("value", [2.0, 10.5])
    @pytest.mark.parametrize("slot", ["p", "N", "ell"])
    def test_non_integer_order_refused(self, slot, value):
        """p, N and ell must be integers; numpy integers are accepted."""
        orders = {"p": 2, "N": 10, "ell": 2, slot: value}
        with pytest.raises(TypeError, match="integer"):
            ApproxParams(tau=0.5, **orders)
        orders[slot] = np.int64(value)
        assert ApproxParams(tau=0.5, **orders)
