"""Second-difference correction triangles and the accelerated evaluator."""

import cmath
import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import least_squares

from berngen.acceleration import (G_approx, TauEndpointError, _pair_matrix,
                                  _q_sweep, build_triangle, correction,
                                  leading_error_term, load_exp_approximant,
                                  q0_shift)
from berngen.fourier import (ApproxParams, PoleProximityError, _k_powers,
                             _modes, _w_powers, g_approx,
                             lanczos_coefficients, parity_signs, reference_q)
from berngen.matfunc import ActionPlan, BandedOperator, h_action

TWO_PI = 2.0 * math.pi


def _mode_pair(p, k, w):
    """_modes of mode k at argument w, from factors formed for this call."""
    return _modes(p, _w_powers(p, w), _k_powers(p, k))


class TestBaseMagnitudes:
    def test_reference_values(self):
        gamma, delta = _mode_pair(2, 1, TWO_PI)
        assert abs(gamma - 0.5) < 1e-14
        assert abs(delta - 0.5) < 1e-14

    def test_parity_ladder(self):
        """Stepping p -> p + 1 at even p swaps which factor gains a power."""
        for k in (1, 3, 10):
            for w in (1.0, -3.0, 0.5):
                tk = TWO_PI * k
                g2, d2 = _mode_pair(2, k, w)
                g3, d3 = _mode_pair(3, k, w)
                assert abs(d3 - d2) < 1e-15
                lhs = g3 * tk * tk
                rhs = g2 * w * w
                assert abs(lhs - rhs) < 1e-15 * (1.0 + abs(rhs))

    def test_validation(self):
        """The validated entry points to the modes refuse p, k or N below 1
        and a near-pole w."""
        with pytest.raises(ValueError):
            lanczos_coefficients(0, 1, 1.0)
        with pytest.raises(ValueError):
            lanczos_coefficients(2, 0, 1.0)
        with pytest.raises(PoleProximityError):
            lanczos_coefficients(2, 1, TWO_PI * 1j)
        with pytest.raises(ValueError, match="N must be >= 1"):
            correction(2, 0, 1, 0.3, 1.0)
        with pytest.raises(PoleProximityError):
            correction(2, 50, 1, 0.3, TWO_PI * 1j)


class TestCoefficientTriangle:
    def test_annihilates_constants_and_linears(self):
        tri = build_triangle(np.full(5, 5.0), 2)
        assert np.all(np.asarray(tri.levels[1]) == 0.0)
        tri = build_triangle(np.arange(5.0), 2)
        assert np.all(np.asarray(tri.levels[1]) == 0.0)
        assert np.all(np.asarray(tri.levels[2]) == 0.0)

    def test_quadratic_second_difference(self):
        ks = np.arange(1.0, 4.0)
        tri = build_triangle(ks * ks, 1)
        assert np.all(np.asarray(tri.levels[1]) == -2.0)

    def test_matches_manual_stencil(self):
        rng = np.random.default_rng(7)
        base = rng.standard_normal(7)
        tri = build_triangle(base, 3)
        prev = base
        for j in range(1, 4):
            manual = -prev[:-2] + 2.0 * prev[1:-1] - prev[2:]
            assert np.array_equal(np.asarray(tri.levels[j]), manual)
            prev = manual

    def test_pair_selection(self):
        """pairs() is entries 1 and 2 of levels 0 .. ell - 1, in order."""
        for ell in range(5):
            base = tuple(float(k) ** 3 for k in range(1, 2 * ell + 2))
            tri = build_triangle(base, ell)
            expect = [x for j in range(ell) for x in tri.levels[j][1:3]]
            assert len(expect) == 2 * ell
            assert tri.pairs() == expect

    def test_length_validated(self):
        with pytest.raises(ValueError):
            build_triangle(np.arange(4.0), 2)
        with pytest.raises(ValueError):
            build_triangle(np.arange(5.0), -1)

    def test_pair_matrix_is_the_triangle_on_the_identity(self):
        """The signed binomial pair matrix is pairs() of build_triangle on
        the identity rows, entry for entry, through depth 30, whose largest
        entry C(58, 29) passes 2^53."""
        for ell in range(31):
            pairs = build_triangle(list(np.eye(2 * ell + 1)), ell).pairs()
            expect = np.reshape(pairs, (2 * ell, 2 * ell + 1))
            assert np.array_equal(_pair_matrix(ell), expect)

    def test_pair_matrix_peaks_near_its_size(self):
        """Building the depth-60 pair matrix peaks below twice its own
        bytes (0.12 MB measured); the triangle on the identity peaked at
        3.9 MB."""
        tracemalloc.start()
        try:
            pairs = _pair_matrix(60)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * pairs.nbytes

    def test_one_call_keeps_no_pair_matrix(self):
        """One G_approx at depth 120 leaves under 0.1 MB allocated (0.02 MB
        measured); a process-wide cache per ell kept its 0.46 MB pair
        matrix."""
        params = ApproxParams(p=2, N=10, tau=0.3, w=-1.0, ell=120)
        G_approx(replace(params, ell=1))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            G_approx(params)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept < 0.1 * 2 ** 20


class TestCorrection:
    def test_zero_depth_is_zero(self):
        """Depth 0 returns a zero pair without touching the denominator."""
        assert correction(2, 50, 0, 1e-12, 1.0) == (0j, 0j)

    def test_endpoint_guard(self):
        for tau in (1e-10, 1.0 - 1e-10):
            with pytest.raises(TauEndpointError, match="q0_shift"):
                correction(2, 50, 1, tau, 1.0)

    def test_first_level_hand_formula(self):
        """Depth 1 reproduces the explicit two-neighbour expression."""
        p, N, tau, w = 2, 20, 0.3, -1.5
        den = 2.0 - 2.0 * math.cos(TWO_PI * tau)
        c1 = math.cos(TWO_PI * (N + 1) * tau)
        c0 = math.cos(TWO_PI * N * tau)
        s1 = math.sin(TWO_PI * (N + 1) * tau)
        s0 = math.sin(TWO_PI * N * tau)
        (g1, d1), (g2, d2) = _mode_pair(p, N + 1, w), _mode_pair(p, N + 2, w)
        expect_g = (g1 * (2.0 * c1 - c0) - g2 * c1) / den
        expect_d = (d1 * (2.0 * s1 - s0) - d2 * s1) / den
        gamma, delta = correction(p, N, 1, tau, w)
        assert abs(gamma - expect_g) < 1e-15 * (1.0 + abs(expect_g))
        assert abs(delta - expect_d) < 1e-15 * (1.0 + abs(expect_d))

    def test_accelerates_truncation(self):
        """One level shrinks the truncation error by a large factor."""
        tau, w = 0.125, -4.0
        exact = reference_q(tau, w)
        plain = abs(g_approx(ApproxParams(p=2, N=100, tau=tau, w=w)) - exact)
        boosted = abs(
            G_approx(ApproxParams(p=2, N=100, tau=tau, w=w, ell=1)) - exact)
        assert plain / boosted >= 50.0

    def test_validation(self):
        with pytest.raises(ValueError):
            correction(0, 50, 1, 0.3, 1.0)
        with pytest.raises(ValueError):
            correction(2, 50, -1, 0.3, 1.0)


class TestAcceleratedApprox:
    def test_zero_depth_matches_plain(self):
        params = ApproxParams(p=2, N=64, tau=0.3, w=-2.0, ell=0)
        assert G_approx(params) == g_approx(params)

    def test_deep_acceleration_accuracy(self):
        params = ApproxParams(p=2, N=100, tau=0.125, w=-8.0, ell=3)
        assert abs(G_approx(params) - reference_q(0.125, -8.0)) < 1e-10

    def test_monotone_in_depth(self):
        tau, w = 1.0 / 6.0, -6.0
        exact = reference_q(tau, w)
        errs = [abs(G_approx(ApproxParams(p=2, N=100, tau=tau, w=w, ell=ell))
                    - exact) for ell in range(5)]
        for a, b in zip(errs, errs[1:]):
            assert b < a

    def test_complex_argument(self):
        w = 1.0 + 2.0j
        params = ApproxParams(p=2, N=80, tau=0.3, w=w, ell=2)
        assert abs(G_approx(params) - reference_q(0.3, w)) < 1e-9


    @pytest.mark.parametrize("p, ell, last", [
        (2, 0, 1.99), (2, 1, 3.96), (2, 2, 5.89), (3, 1, 4.94), (4, 0, 3.98),
        (4, 1, 5.92)])
    def test_convergence_order(self, p, ell, last):
        """The relative error of G_approx at tau = 0.3, w = -4 falls like
        N^-(p + 2 ell) over N = 25, 50, 100, 200.  Slopes count only where
        both errors exceed 1e-13: the last is within 0.2 of p + 2 ell (the
        measured last slope, 'last', from N = 100 to 200, or 50 to 100 at
        p = 4, ell = 1), the earlier ones approach it from within 0.5."""
        tau, w = 0.3, -4.0
        exact = reference_q(tau, w)
        errors = [abs(G_approx(ApproxParams(p=p, N=N, tau=tau, w=w, ell=ell))
                      - exact) / abs(exact) for N in (25, 50, 100, 200)]
        slopes = [math.log2(a / b) for a, b in zip(errors, errors[1:])
                  if min(a, b) > 1e-13]
        order = p + 2 * ell
        assert len(slopes) >= 2
        assert slopes[-1] >= order - 0.2
        assert abs(slopes[-1] - last) < 0.05
        assert all(s >= order - 0.5 for s in slopes)


def _envelope_order(error) -> tuple[float, int]:
    """The order q of error(N) and the number of windows it was fitted on.

    The envelope is the largest error(N) over each window N..N+9 at
    N = 10, 20, ..., 200, up to the first window at or below 1e3 eps.  It
    approaches C N^-q like C (N + a)^-q, so log envelope = c - q log(N + a)
    is fitted with the offset a.
    """
    starts, logs = [], []
    for start in range(10, 201, 10):
        worst = max(error(N) for N in range(start, start + 10))
        if worst <= 1e3 * 2.0 ** -52:
            break
        starts.append(start)
        logs.append(math.log(worst))
    x, y = np.array(starts, dtype=float), np.array(logs)
    # start from the two-point slope of the whole range, offset 0
    slope = (y[0] - y[-1]) / math.log(x[-1] / x[0])
    fit = least_squares(lambda v: v[0] - v[1] * np.log(x + v[2]) - y,
                        [y[0] + slope * math.log(x[0]), slope, 0.0],
                        bounds=([-np.inf, 0.0, 1.0 - x[0]],
                                [np.inf, np.inf, np.inf]))
    return fit.x[1], len(starts)


class TestEnvelopeOrder:
    """The error of G_approx falls like N^-(p + 2 ell), fitted to an
    envelope that the phase at tau = 0.3 cannot fake.

    2 pi N tau repeats every 10 N at tau = 0.3, so a doubling sequence of
    N samples one phase of an oscillating leading term and once read 6.08
    for p = 1, ell = 2.  The envelope here is _envelope_order's: the
    largest relative error over each window N..N+9, one full period, with
    only envelopes above 1e3 eps counted.  Its offset a reaches about 4.5:
    an order-10 envelope falls to 1e3 eps by N = 50, where the slope from
    N = 30 to 40 reads 8.85, so the fit carries a.  w = -8 keeps 4 windows
    at the highest order; the fitted orders ('measured') sit within 0.3 of
    p + 2 ell, none near p + 2 ell + 1."""

    TAU, W = 0.3, -8.0

    @pytest.mark.parametrize("p, ell, measured", [
        (1, 0, 1.00), (1, 1, 3.01), (1, 2, 5.02), (1, 3, 7.06), (2, 0, 1.95),
        (2, 1, 4.01), (2, 2, 6.01), (2, 3, 7.85), (3, 0, 3.00), (3, 1, 5.01),
        (3, 2, 7.01), (3, 3, 8.99), (4, 0, 3.90), (4, 1, 6.01), (4, 2, 8.00),
        (4, 3, 9.98)])
    def test_fitted_order(self, p, ell, measured):
        exact = reference_q(self.TAU, self.W)
        order, windows = _envelope_order(lambda N: abs(G_approx(ApproxParams(
            p=p, N=N, tau=self.TAU, w=self.W, ell=ell)) - exact) / abs(exact))
        assert windows >= 4
        assert abs(order - (p + 2 * ell)) <= 0.3
        assert abs(order - measured) < 0.05


class TestLeadingErrorTerm:
    def test_tracks_residual(self):
        """The closed-form estimate matches q - g across nearby cutoffs."""
        tau, w = 0.125, -4.0
        num = 0.0
        den = 0.0
        for N in range(200, 211):
            resid = reference_q(tau, w) - g_approx(
                ApproxParams(p=2, N=N, tau=tau, w=w))
            num += abs(resid - leading_error_term(2, N, tau, w))
            den += abs(resid)
        assert num / den < 0.05

    def test_second_order_decay(self):
        a = leading_error_term(2, 200, 0.125, -4.0)
        b = leading_error_term(2, 400, 0.125, -4.0)
        assert 3.3 <= abs(a / b) <= 4.7

    def test_vanishes_with_w(self):
        assert abs(leading_error_term(2, 100, 0.3, 1e-8)) < 1e-15

    def test_endpoint_guard(self):
        with pytest.raises(TauEndpointError):
            leading_error_term(2, 100, 1e-12, 1.0)

    @pytest.mark.parametrize("p, N, tau, w", [
        (1, 7, 0.3, -2.0), (2, 50, 0.125, -4.0), (3, 33, 0.7, 1.5 - 2.0j),
        (4, 100, 0.0078125, -10.0), (5, 12, 0.45, 0.25j),
        (6, 200, 0.9, 3.0 + 1.0j)])
    def test_is_depth_one_cosine_pair(self, p, N, tau, w):
        """Exactly the signed Gamma of the depth-1 correction."""
        sc, _ = parity_signs(p)
        assert leading_error_term(p, N, tau, w) == (
            2.0 * sc * correction(p, N, 1, tau, w)[0])

    def test_is_depth_one_cosine_pair_over_a_grid(self):
        """The same equality, bit for bit, over 1,764 (p, N, tau, w): the
        term forms only modes N + 1 and N + 2 of the cosine family, where
        correction forms modes N .. N + 2 of both families."""
        for p, N, tau, w in itertools.product(
                range(1, 7), (1, 7, 12, 33, 50, 100, 200),
                (0.0078125, 0.125, 0.3, 0.45, 0.7, 0.9),
                (-10.0, -4.0, -2.0, 1e-8, 0.25j, 1.5 - 2.0j, 3.0 + 1.0j)):
            assert leading_error_term(p, N, tau, w) == (
                2.0 * parity_signs(p)[0] * correction(p, N, 1, tau, w)[0]), (
                p, N, tau, w)


_A = BandedOperator.diagonal([-1.0, -2.0])
_TAU_ENTRIES = {
    "ApproxParams": lambda tau: ApproxParams(p=2, N=10, tau=tau, w=-1.0),
    "correction": lambda tau: correction(2, 10, 2, tau, -1.0),
    "leading_error_term": lambda tau: leading_error_term(2, 10, tau, -1.0),
    "ActionPlan.evaluate":
        lambda tau: ActionPlan(_A, 2, 10, 2, np.ones(2)).evaluate(tau),
    "h_action": lambda tau: h_action(_A, 3, tau, np.ones(2)),
}


@pytest.mark.parametrize("tau", [math.nan, -0.1, 1.5, math.inf])
@pytest.mark.parametrize("entry", sorted(_TAU_ENTRIES))
def test_tau_outside_unit_interval_refused(entry, tau):
    """Every entry point taking tau refuses one outside [0, 1], NaN
    included, through one gate."""
    with pytest.raises(ValueError, match=r"tau must lie in \[0, 1\]"):
        _TAU_ENTRIES[entry](tau)


@pytest.mark.parametrize("tau", [np.complex128(0.3 + 1j), np.complex128(0.3),
                                 np.complex64(0.5), 0.3 + 0j])
@pytest.mark.parametrize("entry", sorted(_TAU_ENTRIES))
def test_complex_tau_refused(entry, tau):
    """A complex tau raises TypeError at the same gate: numpy orders
    complex numbers, so np.complex128(0.3 + 1j) used to pass the range test
    (a 16-point heat plan then evaluated to about 1e27)."""
    with pytest.raises(TypeError, match="tau must be real"):
        _TAU_ENTRIES[entry](tau)


@pytest.mark.parametrize("tau", [np.array(0.3 + 1j), np.array(0.3 + 0j),
                                 np.array(0.5, dtype=np.complex64)])
@pytest.mark.parametrize("entry", sorted(_TAU_ENTRIES))
def test_complex_0d_array_tau_refused(entry, tau):
    """A 0-d complex array is a complex tau too: it used to pass the gate,
    and evaluate then dropped its imaginary part with ComplexWarnings."""
    with pytest.raises(TypeError, match="tau must be real"):
        _TAU_ENTRIES[entry](tau)


@pytest.mark.parametrize("tau", [np.array([0.3]), np.array([[0.3]]),
                                 np.array([0.3, 0.5])])
@pytest.mark.parametrize("entry", sorted(_TAU_ENTRIES))
def test_array_tau_refused(entry, tau):
    """tau is a scalar: a one-element array used to be stored as tau, and
    evaluate then failed inside the weight row at ell > 0."""
    with pytest.raises(TypeError, match="tau must be a scalar"):
        _TAU_ENTRIES[entry](tau)


@pytest.mark.parametrize("tau", [0.3, 0.7])
def test_real_0d_array_tau_keeps_its_bits(tau):
    """A real 0-d array is a real scalar: every entry point gives the bits
    of the float."""
    params = ApproxParams(p=2, N=10, tau=np.array(tau), w=-1.0, ell=2)
    assert params.tau == tau
    assert G_approx(params) == G_approx(
        ApproxParams(p=2, N=10, tau=tau, w=-1.0, ell=2))
    for entry in ("ActionPlan.evaluate", "h_action", "correction"):
        assert np.array_equal(_TAU_ENTRIES[entry](np.array(tau)),
                              _TAU_ENTRIES[entry](tau)), entry


def test_float32_tau_computes_in_double():
    """A np.float32 tau is widened at the gate, so the tau arithmetic runs
    in double precision: every entry point gives the bits of the float of
    its value (G_approx, evaluate and h_action used to differ by 4e-8 to
    8e-8 relative), and ApproxParams stores that float."""
    tau32 = np.float32(0.3)
    tau = float(tau32)
    params = ApproxParams(p=2, N=10, tau=tau32, w=-1.0, ell=2)
    assert type(params.tau) is float and params.tau == tau
    z, expect = G_approx(params), G_approx(replace(params, tau=tau))
    assert (z.real.hex(), z.imag.hex()) == (expect.real.hex(),
                                            expect.imag.hex())
    A = BandedOperator.diagonal(-np.arange(1.0, 17.0))
    plan = ActionPlan(A, 2, 10, 2, np.ones(16))
    f = np.linspace(-1.0, 1.0, 16)
    for got, want in ((plan.evaluate(tau32), plan.evaluate(tau)),
                      (h_action(A, 3, tau32, f), h_action(A, 3, tau, f)),
                      (correction(2, 10, 2, tau32, -1.0),
                       correction(2, 10, 2, tau, -1.0))):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestTailIdentity:
    def test_residual_equals_mode_tail(self):
        """q - g equals the summed discarded modes to well below roundoff
        accumulation."""
        p, N, tau, w = 2, 50, 0.3, 1.0
        ks = np.arange(N + 1, 100_001, dtype=float)
        sc, ss = parity_signs(p)
        gamma, delta = _mode_pair(p, ks, w)
        tail = 2.0 * np.sum(sc * gamma * np.cos(TWO_PI * ks * tau)
                            + ss * delta * np.sin(TWO_PI * ks * tau))
        resid = reference_q(tau, w) - g_approx(
            ApproxParams(p=p, N=N, tau=tau, w=w))
        assert abs(resid - tail) < 1e-10


class TestZeroTauShift:
    def test_identity_with_exact_exponential(self):
        """Shift route equals q(0, w) when the exponential is exact."""
        for w in (-1.0, -6.0, -0.25):
            got = q0_shift(w, 0.125, cmath.exp)
            ref = reference_q(0.0, w)
            assert abs(got - ref) < 1e-12 * max(1.0, abs(ref))

    def test_large_negative_argument(self):
        got = q0_shift(-50.0, 0.125, cmath.exp)
        assert abs(got - reference_q(0.0, -50.0)) < 1e-9

    def test_grid_accuracy(self):
        for w in np.linspace(-10.0, -0.05, 25):
            got = q0_shift(float(w), 0.125, cmath.exp)
            ref = reference_q(0.0, float(w))
            assert abs(got - ref) < 1e-6 * max(1.0, abs(ref))

    def test_zero_argument(self):
        assert abs(q0_shift(0.0, 0.125, cmath.exp) - 1.0) < 1e-12

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            q0_shift(-1.0, 0.0, cmath.exp)
        with pytest.raises(ValueError):
            q0_shift(-1.0, 1.0, cmath.exp)

    def test_params_override(self):
        """A caller-supplied parameter set keeps its p, N, ell; tau, w and
        alpha are forced to the shift configuration."""
        params = ApproxParams(p=2, N=120, tau=0.3, w=7.0, ell=2, alpha=0.5)
        got = q0_shift(-2.0, 0.125, cmath.exp, params=params)
        assert abs(got - reference_q(0.0, -2.0)) < 1e-10


class TestSweep:
    """_q_sweep sets a (p, ell, tau) sweep up once and keeps the bits of
    the per-w G_approx and q0_shift calls."""

    WS = [-10.0, -1e-3, 0.0, 1e-3, 2.0, -3.0 + 20.0j]

    @pytest.mark.parametrize("p", [1, 2, 3, 6, 24])
    @pytest.mark.parametrize("ell", [0, 2])
    @pytest.mark.parametrize("tau", [0.125, 0.3, 0.0])
    def test_values_match_per_call_bits(self, p, ell, tau):
        alpha = 0.25
        got = list(_q_sweep(p, 40, ell, tau, alpha, self.WS))
        expect = []
        for w in self.WS:
            params = ApproxParams(p=p, N=40, tau=tau, w=w, ell=ell,
                                  alpha=alpha)
            expect.append(q0_shift(w, alpha, params=params) if tau == 0.0
                          else G_approx(params))
        assert ([(z.real.hex(), z.imag.hex()) for z in got]
                == [(z.real.hex(), z.imag.hex()) for z in expect])

    def test_checks_wait_for_the_first_value(self):
        """Nothing is checked until a value is asked; then the parameters
        once, and each w as the sweep reaches it."""
        sweep = _q_sweep(0, 40, 0, 0.3, 0.125, [-1.0])
        with pytest.raises(ValueError, match="p must lie"):
            next(sweep)
        sweep = _q_sweep(2, 40, 0, 0.3, 0.125, [-1.0, math.nan])
        assert next(sweep) == G_approx(ApproxParams(p=2, N=40, tau=0.3,
                                                    w=-1.0))
        with pytest.raises(ValueError, match="must be finite"):
            next(sweep)


class TestExpApproximant:
    def _write(self, path, lines):
        path.write_text("\n".join(lines) + "\n")

    def test_load_and_evaluate(self, tmp_path):
        """A (3, 3) rational fit of exp(-t) reproduces exp near zero."""
        f = tmp_path / "pade33.txt"
        self._write(f, [
            "# rational exp(-t) model, degree 3",
            "3",
            "1", "-0.5", "0.1", "-0.008333333333333333",
            "1", "0.5", "0.1", "0.008333333333333333",
        ])
        evaluator = load_exp_approximant(str(f))
        assert abs(evaluator(-0.125) - math.exp(-0.125)) < 1e-10
        assert abs(evaluator(0.25) - math.exp(0.25)) < 1e-8

    def test_round_trip_through_shift(self, tmp_path):
        f = tmp_path / "pade33.txt"
        self._write(f, [
            "3",
            "1", "-0.5", "0.1", "-0.008333333333333333",
            "1", "0.5", "0.1", "0.008333333333333333",
        ])
        evaluator = load_exp_approximant(str(f))
        got = q0_shift(-1.0, 0.125, evaluator)
        assert abs(got - reference_q(0.0, -1.0)) < 1e-9

    def test_malformed_files_rejected(self, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("# nothing here\n")
        with pytest.raises(ValueError,
                           match=r"empty\.txt: the file holds no data"):
            load_exp_approximant(str(empty))
        short = tmp_path / "short.txt"
        self._write(short, ["2", "1", "0.5"])
        with pytest.raises(ValueError):
            load_exp_approximant(str(short))

    @pytest.mark.parametrize("degree", ["2.5", "inf", "nan", "-1"])
    def test_degree_must_be_a_non_negative_integer(self, tmp_path, degree):
        """A fractional degree used to load truncated to an integer, and
        inf raised OverflowError."""
        f = tmp_path / "degree.txt"
        self._write(f, [degree] + ["1"] * 6)
        with pytest.raises(ValueError, match="degree.txt"):
            load_exp_approximant(str(f))

    def test_unparsable_token_names_file_and_line(self, tmp_path):
        """A token that is not a number used to raise float()'s bare
        message, without the path."""
        f = tmp_path / "token.txt"
        self._write(f, ["1", "1 0.5", "1 half  # denominator"])
        with pytest.raises(ValueError, match=r"token\.txt: malformed line "
                                             r"'1 half  # denominator'"):
            load_exp_approximant(str(f))
