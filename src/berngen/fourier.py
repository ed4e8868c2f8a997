"""Scalar evaluation of q(tau, w) = w e^{w tau}/(e^w - 1) and its mode sums."""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass

import numpy as np

from .bernoulli import _check_p, lanczos_polynomial, shared_table

TWO_PI = 2.0 * math.pi

#: distance to a nonzero pole 2*pi*i*k below which evaluation is refused
POLE_TOL = 1e-12


class PoleProximityError(ValueError):
    """Raised when w lies within POLE_TOL of a nonzero pole 2*pi*i*k."""


def check_pole(w: complex) -> complex:
    """Return w as a complex number, refusing near-pole arguments."""
    w = complex(w)
    if not cmath.isfinite(w):
        raise ValueError(f"w={w} must be finite")
    k = round(w.imag / TWO_PI)
    if k != 0 and abs(w - complex(0.0, TWO_PI * k)) < POLE_TOL:
        raise PoleProximityError(
            f"w={w} is within {POLE_TOL} of the pole {TWO_PI * k}i")
    return w


def _check_order(p: int, N: int, ell: int) -> None:
    """Refuse an order p, mode count N or correction depth ell that is not
    an integer (TypeError) or lies out of range (ValueError)."""
    _check_p(p)
    if operator.index(N) < 1:
        raise ValueError("N must be >= 1")
    if operator.index(ell) < 0:
        raise ValueError("ell must be >= 0")


def _check_tau(tau: float) -> None:
    """Refuse a complex tau (TypeError: numpy orders complex numbers, so
    the range test alone would pass one) and a tau outside [0, 1], NaN
    included (ValueError)."""
    if isinstance(tau, (complex, np.complexfloating)):
        raise TypeError("tau must be real, not complex")
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must lie in [0, 1]")


@dataclass(frozen=True)
class ApproxParams:
    """The parameter tuple (p, N, ell, tau, w) shared by every approximation.

    p is the order of the polynomial part (p = 2n + 2 for the even family),
    N the number of retained modes, ell the correction depth, tau the
    evaluation point in [0, 1], and w the (complex) argument.  alpha is the
    offset used when evaluating at tau = 0 through the shift identity.
    """

    p: int
    N: int
    tau: float
    w: complex = 0.0
    ell: int = 0
    alpha: float = 0.125

    def __post_init__(self):
        _check_order(self.p, self.N, self.ell)
        _check_tau(self.tau)
        check_pole(self.w)


def reference_q(tau: float, w: complex) -> complex:
    """Closed-form q = w e^{w tau} / expm1(w), with the value 1 at w = 0.

    expm1 keeps e^w - 1 to full relative accuracy as w -> 0, so no series
    is needed near the removable singularity; for positive real part the
    closed form is rewritten as w e^{w (tau - 1)} / -expm1(-w) to avoid
    overflow.  It calls nothing in bernoulli, so it stays an oracle
    independent of the approximations it checks.
    """
    w = check_pole(w)
    if w == 0:
        return 1.0 + 0.0j
    if w.real > 0.0:
        return w * cmath.exp(w * (tau - 1.0)) / -complex(np.expm1(-w))
    return w * cmath.exp(w * tau) / complex(np.expm1(w))


def parity_signs(p: int) -> tuple[float, float]:
    """(cosine, sine) signs multiplying the order-p base magnitudes.

    The shared sign is (-1)^ceil((p+1)/2); for odd p the cosine family
    carries the opposite sign (verified against quadrature of the Fourier
    integrals of the _modes magnitudes).
    """
    sg = (-1.0) ** ((p + 2) // 2)
    if p % 2 == 0:
        return sg, sg
    return -sg, sg


def _modes(p, k, w):
    """Magnitudes (gamma, delta) of order-p mode k; k is an int or array.

    Even p: gamma = w^p / ((2 pi k)^{p-2} (w^2 + (2 pi k)^2)), and delta
    carries one more power of w / (2 pi k); odd p swaps the two.
    """
    tk = TWO_PI * k
    den = w * w + tk * tk
    lo = w ** p / (tk ** (p - 2) * den)
    hi = w ** (p + 1) / (tk ** (p - 1) * den)
    return (hi, lo) if p % 2 else (lo, hi)


def lanczos_coefficients(p: int, k: int,
                         w: complex) -> tuple[complex, complex]:
    """Order-p residual-mode coefficients (c_k, s_k) of integer mode k."""
    _check_p(p)
    if operator.index(k) < 1:
        raise ValueError("k must be >= 1")
    w = check_pole(w)
    sc, ss = parity_signs(p)
    g, d = _modes(p, k, w)
    return sc * g, ss * d


def hat_coefficients(k: int, w: complex) -> tuple[complex, complex]:
    """Fourier coefficients (c_hat_k, s_hat_k) of q: the order-1 modes."""
    return lanczos_coefficients(1, k, w)


def fourier_partial(tau: float, w: complex, N: int) -> complex:
    """Plain N-mode Fourier partial sum of q: g_approx at order p = 1."""
    return g_approx(ApproxParams(p=1, N=N, tau=tau, w=w))


def _trig_row(N: int, M: int, tau: float) -> np.ndarray:
    """The unsigned mode weights of modes 1..M at tau, shape (2, M): cos and
    sin of 2 pi k tau for k <= N, zero beyond N."""
    row = np.zeros((2, M))
    angle = TWO_PI * np.arange(1, N + 1) * tau
    row[:, :N] = np.cos(angle), np.sin(angle)
    return row


def _mode_sum(params: ApproxParams, row: np.ndarray) -> complex:
    """Polynomial part plus 2 (sc gamma_k a_k + ss delta_k b_k) over the
    modes k of the (2, M) weight row (a, b), parity signs (sc, ss)."""
    p, w = params.p, complex(params.w)
    acc = lanczos_polynomial(shared_table(), p, params.tau, w)
    comp = 0.0 + 0.0j
    sc, ss = parity_signs(p)
    # compensated (Kahan) sum in ascending k, so tables reproduce exactly
    for k, (a, b) in enumerate(zip(*row.tolist()), 1):
        g, d = _modes(p, k, w)
        term = 2.0 * (sc * g * a + ss * d * b)
        y = term - comp
        total = acc + y
        acc, comp = total, (total - acc) - y
    return acc


def g_approx(params: ApproxParams) -> complex:
    """Polynomial part plus the N-mode trigonometric remainder sum."""
    return _mode_sum(params, _trig_row(params.N, params.N, params.tau))


def residual_l2(p: int, w: complex, N: int, K: int) -> float:
    """L2 norm of the order-p residual restricted to modes N+1 .. K.

    Computed from the coefficients directly (Parseval), which is exact for
    the trigonometric remainder and avoids quadrature noise.
    """
    _check_p(p)
    if operator.index(N) < 0:
        raise ValueError("N must be >= 0")
    if operator.index(K) < N:
        raise ValueError("K must be >= N")
    w = check_pole(w)
    # at a huge |w| the squares or their sum overflow, or Python's complex
    # w ** p raises; each is refused below
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            g, d = _modes(p, np.arange(N + 1, K + 1, dtype=np.float64), w)
            mags = np.abs(g) ** 2 + np.abs(d) ** 2
            # summed in ascending magnitude, i.e. descending k
            norm = math.sqrt(2.0 * float(np.sum(mags[::-1])))
    except OverflowError:
        norm = math.inf
    if not math.isfinite(norm):
        raise FloatingPointError(f"the residual norm at w={w} is not finite")
    return norm


def delta_of_N(z: complex, N: int, K: int) -> float:
    """Scaled residual norm N^{7/2} |z|^{-4} ||R_{4,N}||_2 over modes <= K."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if K < 2 * N:
        raise ValueError("K must be >= 2N")
    z = complex(z)
    if z == 0:
        raise ValueError("z must be nonzero")
    if not cmath.isfinite(z):
        raise ValueError(f"z={z} must be finite")
    return N ** 3.5 * abs(z) ** -4.0 * residual_l2(4, TWO_PI * z, N, K)
