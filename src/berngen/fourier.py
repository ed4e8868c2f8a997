"""Scalar evaluation of q(tau, w) = w e^{w tau}/(e^w - 1) and its mode sums."""

from __future__ import annotations

import cmath
import itertools
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


def _check_order(p: int, N: int, ell: int) -> tuple[int, int, int]:
    """(p, N, ell) as Python ints, which callers compute with.

    Refuses, in that order, an order p, mode count N or correction depth ell
    that is not an integer (TypeError) or lies out of range (ValueError).
    """
    p = _check_p(p)
    if (N := operator.index(N)) < 1:
        raise ValueError("N must be >= 1")
    if (ell := operator.index(ell)) < 0:
        raise ValueError("ell must be >= 0")
    return p, N, ell


def _check_tau(tau: float) -> float:
    """tau as a Python float, which callers compute with.

    Refuses an array tau of one or more dimensions and a complex tau of
    any kind, a 0-d array included (TypeError: numpy orders complex
    numbers, so the range test alone would pass one), and a tau outside
    [0, 1], NaN included (ValueError).  A np.float32 tau comes back widened,
    so no tau arithmetic runs in single precision; a float or np.float64
    keeps its bits.
    """
    if isinstance(tau, np.ndarray):
        if tau.ndim:
            raise TypeError("tau must be a scalar, not an array")
        tau = tau[()]
    if isinstance(tau, (complex, np.complexfloating)):
        raise TypeError("tau must be real, not complex")
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must lie in [0, 1]")
    return float(tau)


@dataclass(frozen=True)
class ApproxParams:
    """The parameter tuple (p, N, ell, tau, w) shared by every approximation.

    p is the order of the polynomial part (p = 2n + 2 for the even family),
    N the number of retained modes, ell the correction depth, tau the
    evaluation point in [0, 1], and w the (complex) argument.  alpha is the
    offset used when evaluating at tau = 0 through the shift identity.
    p, N, ell, tau and w are stored as their gates return them: ints, a
    float and a complex, whatever number types the caller passed.
    """

    p: int
    N: int
    tau: float
    w: complex = 0.0
    ell: int = 0
    alpha: float = 0.125

    def __post_init__(self):
        p, N, ell = _check_order(self.p, self.N, self.ell)
        tau, w = _check_tau(self.tau), check_pole(self.w)
        # frozen: the checked values go into the instance dict directly
        vars(self).update(p=p, N=N, ell=ell, tau=tau, w=w)


def reference_q(tau: float, w: complex) -> complex:
    """Closed-form q = w e^{w tau} / expm1(w), with the value 1 at w = 0.

    expm1 keeps e^w - 1 to full relative accuracy as w -> 0, so no series
    is needed near the removable singularity; for positive real part the
    closed form is rewritten as w e^{w (tau - 1)} / -expm1(-w) to avoid
    overflow.  It takes any real tau, widened to a float.  It calls nothing
    in bernoulli, so it stays an oracle independent of the approximations
    it checks.
    """
    tau, w = float(tau), check_pole(w)
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


def _w_powers(p: int, w: complex) -> tuple:
    """The w factors (w^2, w^p, w^(p+1)) of every order-p mode."""
    return w * w, w ** p, w ** (p + 1)


def _k_powers(p: int, k) -> tuple:
    """The k factors ((2 pi k)^2, (2 pi k)^(p-2), (2 pi k)^(p-1)) of order-p
    mode k; k is an int or array."""
    tk = TWO_PI * k
    return tk * tk, tk ** (p - 2), tk ** (p - 1)


#: order p -> the tuple of _k_powers of modes 1, 2, ..., at most _K_CAP
_K_TABLES: dict = {}

#: modes kept per order, about 590 KB a table; longer sums form the rest
_K_CAP = 2 ** 12


def _k_table(p: int, M: int):
    """_k_powers(p, k) for k = 1..M, or more: the one table kept per order
    p, and beyond its _K_CAP modes the rest, formed per call, as an
    iterator.

    The table grows only to the largest M asked, up to _K_CAP, and its
    entries do not depend on the order of the calls that grew it.  It is a
    tuple, replaced whole when it grows, so threads share it without a
    lock: a reader sees an old or a new table, never a part of one, and two
    threads that grow it at once cost at most a second growth.  Its powers,
    the tail's too, are Python's float ** of the float 2 pi k to the int
    powers of a gated p; numpy's ** on a float64 array, or a numpy integer
    p, rounds some of them differently.
    """
    table, kept = _K_TABLES.get(p, ()), min(M, _K_CAP)
    if len(table) < kept:
        ks = range(len(table) + 1, kept + 1)
        table += tuple(_k_powers(p, k) for k in ks)
        _K_TABLES[p] = table
    tail = (_k_powers(p, k) for k in range(len(table) + 1, M + 1))
    return itertools.chain(table, tail) if len(table) < M else table


def _modes(p: int, w_powers: tuple, k_powers: tuple) -> tuple:
    """Magnitudes (gamma, delta) of order-p mode k, from _w_powers(p, w)
    and _k_powers(p, k).

    Even p: gamma = w^p / ((2 pi k)^{p-2} (w^2 + (2 pi k)^2)), and delta
    carries one more power of w / (2 pi k); odd p swaps the two.  The
    factors come in formed, so that a sum over modes forms the w powers
    once and reads the k powers from _k_table; every mode still takes the
    same IEEE operations in the same order.
    """
    w2, wp, wp1 = w_powers
    tk2, kp2, kp1 = k_powers
    den = w2 + tk2
    lo = wp / (kp2 * den)
    hi = wp1 / (kp1 * den)
    return (hi, lo) if p % 2 else (lo, hi)


def lanczos_coefficients(p: int, k: int,
                         w: complex) -> tuple[complex, complex]:
    """Order-p residual-mode coefficients (c_k, s_k) of integer mode k."""
    p = _check_p(p)
    if (k := operator.index(k)) < 1:
        raise ValueError("k must be >= 1")
    w = check_pole(w)
    sc, ss = parity_signs(p)
    g, d = _modes(p, _w_powers(p, w), _k_powers(p, k))
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
    modes k of the (2, M) weight row (a, b), parity signs (sc, ss).

    The w powers are formed once per sum and the k powers read from the
    order's _k_table, which holds Python's float ** of each 2 pi k (numpy's
    ** would round some differently); each term is the one _modes forms
    from freshly formed powers, bit for bit.
    """
    p, w = params.p, params.w
    acc = lanczos_polynomial(shared_table(), p, params.tau, w)
    comp = 0.0 + 0.0j
    sc, ss = parity_signs(p)
    wp = _w_powers(p, w)
    # compensated (Kahan) sum in ascending k, so tables reproduce exactly
    for a, b, kp in zip(*row.tolist(), _k_table(p, row.shape[1])):
        g, d = _modes(p, wp, kp)
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
    p = _check_p(p)
    if (N := operator.index(N)) < 0:
        raise ValueError("N must be >= 0")
    if (K := operator.index(K)) < N:
        raise ValueError("K must be >= N")
    w = check_pole(w)
    # at a huge |w| the squares or their sum overflow, or Python's complex
    # w ** p raises; each is refused below
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            ks = np.arange(N + 1, K + 1, dtype=np.float64)
            g, d = _modes(p, _w_powers(p, w), _k_powers(p, ks))
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
    # a non-integer N or K raises here what residual_l2 raised for it; an
    # int N makes N ** 3.5 Python's float power, not numpy's
    N, K = operator.index(N), operator.index(K)
    return N ** 3.5 * abs(z) ** -4.0 * residual_l2(4, TWO_PI * z, N, K)
