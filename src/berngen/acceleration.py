"""Rational acceleration of the mode sums: coefficient triangles, boundary
corrections, the accelerated approximation, and the tau = 0 shift identity."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from .bernoulli import _polyval
from .fourier import (TWO_PI, ApproxParams, _check_alpha, _k_powers,
                      _mode_sum, _modes, _trig_row, _w_powers, check_pole,
                      parity_signs)

#: |1 - cos(2 pi tau)| below this leaves the correction denominators
#: dominated by roundoff
ENDPOINT_TOL = 1e-8


class TauEndpointError(ValueError):
    """tau too close to 0 or 1 for the rational correction."""


@dataclass(frozen=True)
class CoefficientTriangle:
    """Second-difference pyramid over a contiguous run of mode coefficients.

    levels[j][i] holds the level-j entry for mode k = start + j + i, where
    start is the mode of the first base entry.  Entries may be scalars or
    vectors; the recurrence only uses addition and scaling.
    """

    levels: tuple[tuple, ...]

    def pairs(self) -> list:
        """a_1, b_1, ..., a_ell, b_ell: entries 1, 2 of levels 0 .. ell-1."""
        return [x for level in self.levels[:-1] for x in level[1:3]]


def build_triangle(base: Sequence, ell: int) -> CoefficientTriangle:
    """Fill the pyramid from 2*ell + 1 base entries by second differences.

    Level j entry at position i equals
    -prev[i] + 2 prev[i+1] - prev[i+2] of level j - 1.
    """
    if ell < 0:
        raise ValueError("ell must be >= 0")
    if len(base) != 2 * ell + 1:
        raise ValueError(
            f"base needs {2 * ell + 1} entries for depth {ell}, "
            f"got {len(base)}")
    levels = [tuple(base)]
    for _ in range(ell):
        prev = levels[-1]
        levels.append(tuple(-prev[i - 1] + 2 * prev[i] - prev[i + 1]
                            for i in range(1, len(prev) - 1)))
    return CoefficientTriangle(levels=tuple(levels))


def pair_weights(N: int, ell: int, tau: float) -> tuple[list, list]:
    """Weights (gw, dw) of CoefficientTriangle.pairs() in the correction.

    Pair j of the cosine family gets den^-j (2 c_1 - c_0) and -den^-j c_1,
    with c_i = cos(2 pi (N + j - 1 + i) tau) and den = 2 - 2 cos(2 pi tau);
    dw is the same with sines.  Depth 0 gives empty lists at any tau.
    """
    if ell == 0:
        return [], []
    den = 2.0 - 2.0 * math.cos(TWO_PI * tau)
    if abs(den) <= 2.0 * ENDPOINT_TOL:
        raise TauEndpointError(
            f"tau={tau} is too close to an endpoint for the rational "
            "correction; evaluate tau = 0 through q0_shift instead")
    c = [math.cos(TWO_PI * k * tau) for k in range(N, N + ell + 1)]
    s = [math.sin(TWO_PI * k * tau) for k in range(N, N + ell + 1)]
    gw, dw = [], []
    for j in range(1, ell + 1):
        scale = den ** -j
        gw += [(2.0 * c[j] - c[j - 1]) * scale, -c[j] * scale]
        dw += [(2.0 * s[j] - s[j - 1]) * scale, -s[j] * scale]
    return gw, dw


def _pair_matrix(ell: int) -> np.ndarray:
    """The (2 ell, 2 ell + 1) integer matrix of CoefficientTriangle.pairs()
    as combinations of its base entries, what build_triangle returns on the
    identity.  Level m of the triangle is the 2m-th difference of the base,
    so pair 2m + a (a = 0, 1), level m's entry a + 1, weighs base entry
    a + 1 + r by (-1)^(m + r) C(2m, r), r = 0..2m.  Each plan, sweep or
    one-w call forms its own; nothing keeps one across calls."""
    pairs = np.zeros((2 * ell, 2 * ell + 1))
    for m in range(ell):
        diff = [(-1.0) ** (m + r) * math.comb(2 * m, r)
                for r in range(2 * m + 1)]
        for a in (0, 1):
            pairs[2 * m + a, a + 1:a + 2 * m + 2] = diff
    return pairs


def _correction_weights(N: int, pairs: np.ndarray, tau: float) -> np.ndarray:
    """Weights of modes N..N+2 ell in (Gamma, Delta), shape (2, 2 ell + 1):
    pair_weights through the depth-ell pair matrix."""
    return np.dot(pair_weights(N, len(pairs) // 2, tau), pairs)


def _weight_row(N: int, pairs: np.ndarray, tau: float) -> np.ndarray:
    """The (2, N + 2 ell) weight row of modes 1..N+2 ell at tau, for the
    depth-ell pair matrix: the mode cosines and sines plus, for ell > 0,
    the correction's mode weights."""
    row = _trig_row(N, N + len(pairs), tau)
    if len(pairs):
        row[:, N - 1:] += _correction_weights(N, pairs, tau)
    return row


def correction(p: int, N: int, ell: int, tau: float,
               w: complex) -> tuple[complex, complex]:
    """Depth-ell boundary correction (Gamma, Delta) of the order-p sum; its
    arguments pass ApproxParams' checks, and it computes with the values
    ApproxParams stores."""
    params = ApproxParams(p=p, N=N, tau=tau, w=w, ell=ell)
    p, N, ell, tau, w = params.p, params.N, params.ell, params.tau, params.w
    ks = np.arange(N, N + 2 * ell + 1)
    g, d = _modes(p, _w_powers(p, w), _k_powers(p, ks))
    gw, dw = _correction_weights(N, _pair_matrix(ell), tau)
    return complex(gw @ g), complex(dw @ d)


def G_approx(params: ApproxParams) -> complex:
    """The mode sum of g_approx over the weight row of modes 1..N+2 ell,
    which carries the depth-ell rational correction with the parity-aware
    family signs: for even p the total is g + 2 sign (Gamma + Delta).
    ell = 0 returns g_approx unchanged."""
    row = _weight_row(params.N, _pair_matrix(params.ell), params.tau)
    return next(_mode_sum(params.p, params.tau, row, (params.w,)))


def leading_error_term(p: int, N: int, tau: float, w: complex) -> complex:
    """Principal term of the order-p truncation residual at interior tau:
    the cosine half of the depth-1 correction, signed by the cosine family's
    parity sign."""
    return 2.0 * parity_signs(p)[0] * correction(p, N, 1, tau, w)[0]


def _data_lines(path) -> list[str]:
    """The lines of a text file that hold data, '#' starting a comment; a
    file with none raises ValueError naming the path, before any parse."""
    with open(path) as fh:
        lines = [line for line in fh if line.split("#", 1)[0].strip()]
    if not lines:
        raise ValueError(f"{path}: the file holds no data")
    return lines


def load_exp_approximant(path) -> Callable[[complex], complex]:
    """Load a rational approximant of e^{-t} and return an e^{x} evaluator.

    File format (plain text, '#' starts a comment): the degree r, followed
    by r + 1 numerator and r + 1 denominator coefficients of the degree-r
    rational approximation to e^{-t}, ascending order.  The evaluator
    returns N(-x)/D(-x), i.e. approximates e^{x}.
    """
    tokens: list[float] = []
    for line in _data_lines(path):
        try:
            tokens.extend(float(t) for t in line.split("#", 1)[0].split())
        except ValueError as exc:
            raise ValueError(
                f"{path}: malformed line {line.strip()!r}") from exc
    if not tokens[0].is_integer() or tokens[0] < 0:
        raise ValueError(f"{path}: the degree must be an integer >= 0")
    r = int(tokens[0])
    if len(tokens) != 1 + 2 * (r + 1):
        raise ValueError(
            f"{path}: expected the degree followed by 2*(degree+1) "
            f"coefficients, got {len(tokens)} values")
    num = tokens[1:r + 2]
    den = tokens[r + 2:]

    def evaluate(x: complex) -> complex:
        t = -complex(x)
        return _polyval(num, t) / _polyval(den, t)

    return evaluate


def _shift(g: complex, w: complex, alpha: float,
           exp_eval: Callable[[complex], complex]) -> complex:
    """q(0, w) from g = q(1 - alpha, w), by the shift identity
    q(0, w) = q(1 - alpha, w) e^{alpha w} - w."""
    return g * exp_eval(alpha * w) - w


def q0_shift(w: complex, alpha: float | None = None,
             exp_eval: Callable[[complex], complex] | None = None,
             params: ApproxParams | None = None) -> complex:
    """Evaluate at tau = 0 through the interior point 1 - alpha.

    Uses q(0, w) = q(1 - alpha, w) e^{alpha w} - w with the value at
    1 - alpha supplied by G_approx.  alpha defaults to params.alpha, and to
    ApproxParams' 0.125 without params; an explicit alpha wins.  exp_eval
    defaults to cmath.exp; a rational approximant from load_exp_approximant
    may be plugged in instead.  alpha is widened to a float before its
    range check, and w is the complex that ApproxParams' check returns.
    """
    if params is None:
        params = ApproxParams(p=2, N=100, tau=0.5, ell=3)
    alpha = _check_alpha(params.alpha if alpha is None else alpha)
    params = replace(params, tau=1.0 - alpha, w=w, alpha=alpha)
    return _shift(G_approx(params), params.w, alpha, exp_eval or cmath.exp)


def _q_sweep(p: int, N: int, ell: int, tau: float, alpha: float,
             ws: Sequence) -> Iterator[complex]:
    """For each w of ws in turn, G_approx(params) or, at tau = 0,
    q0_shift(w, alpha, params=params), with params = ApproxParams(p=p, N=N,
    tau=tau, w=w, ell=ell): the same values, bit for bit, from one weight
    row, pair matrix and polynomial part per sweep.

    It checks nothing before its first value is asked.  Then it checks p,
    N, ell and tau, and alpha at tau = 0, once, and each w by check_pole as
    the sweep reaches it, so a caller that asks for one value per w meets
    the refusals of the per-w calls in their order.
    """
    params = ApproxParams(p=p, N=N, tau=tau, ell=ell)
    at_zero = params.tau == 0.0
    if at_zero:
        alpha = _check_alpha(alpha)
        params = replace(params, tau=1.0 - alpha)
    row = _weight_row(params.N, _pair_matrix(params.ell), params.tau)
    gs = _mode_sum(params.p, params.tau, row, map(check_pole, ws))
    for w, g in zip(ws, gs):
        yield _shift(g, complex(w), alpha, cmath.exp) if at_zero else g
