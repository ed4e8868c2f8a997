"""Rational acceleration of the mode sums: coefficient triangles, boundary
corrections, the accelerated approximation, and the tau = 0 shift identity."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from .fourier import (TWO_PI, ApproxParams, _check_order, _modes,
                      check_pole, g_approx, parity_signs)

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

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def pair(self, j: int):
        """The two level-(j-1) entries feeding the j-th correction term.

        These are the entries at modes start + j and start + j + 1.
        """
        if not 1 <= j <= self.depth:
            raise ValueError(f"level index {j} outside 1..{self.depth}")
        level = self.levels[j - 1]
        return level[1], level[2]

    def pairs(self) -> list:
        """The entries pair(1) .. pair(depth) in order: a_1, b_1, ..."""
        return [x for j in range(1, self.depth + 1) for x in self.pair(j)]


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


@dataclass(frozen=True)
class CorrectionTerm:
    """Boundary-correction pair (Gamma, Delta)."""

    gamma_part: complex
    delta_part: complex


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
    gw, dw = [], []
    for j in range(1, ell + 1):
        c1 = math.cos(TWO_PI * (N + j) * tau)
        c0 = math.cos(TWO_PI * (N + j - 1) * tau)
        s1 = math.sin(TWO_PI * (N + j) * tau)
        s0 = math.sin(TWO_PI * (N + j - 1) * tau)
        scale = den ** -j
        gw += [(2.0 * c1 - c0) * scale, -c1 * scale]
        dw += [(2.0 * s1 - s0) * scale, -s1 * scale]
    return gw, dw


def correction(p: int, N: int, ell: int, tau: float,
               w: complex) -> CorrectionTerm:
    """Depth-ell boundary correction of the order-p mode sum at tau."""
    _check_order(p, N, ell)
    w = check_pole(w)
    bases = zip(*[_modes(p, N + i, w) for i in range(2 * ell + 1)])
    gamma, delta = (build_triangle(base, ell).pairs() for base in bases)
    gw, dw = pair_weights(N, ell, tau)
    return CorrectionTerm(sum((a * x for a, x in zip(gw, gamma)), 0j),
                          sum((a * x for a, x in zip(dw, delta)), 0j))


def G_approx(params: ApproxParams) -> complex:
    """The mode sum of g_approx plus the depth-ell rational correction.

    ell = 0 returns g_approx unchanged.  The correction enters with the
    parity-aware family signs, so for even p the total is
    g + 2 sign (Gamma + Delta).
    """
    base = g_approx(params)
    if params.ell == 0:
        return base
    corr = correction(params.p, params.N, params.ell, params.tau, params.w)
    sc, ss = parity_signs(params.p)
    return base + 2.0 * (sc * corr.gamma_part + ss * corr.delta_part)


def leading_error_term(p: int, N: int, tau: float, w: complex) -> complex:
    """Principal term of the order-p truncation residual at interior tau:
    the cosine half of the depth-1 correction."""
    sc, _ = parity_signs(p)
    return 2.0 * sc * correction(p, N, 1, tau, w).gamma_part


def load_exp_approximant(path) -> Callable[[complex], complex]:
    """Load a rational approximant of e^{-t} and return an e^{x} evaluator.

    File format (plain text, '#' starts a comment): the degree r, followed
    by r + 1 numerator and r + 1 denominator coefficients of the degree-r
    rational approximation to e^{-t}, ascending order.  The evaluator
    returns N(-x)/D(-x), i.e. approximates e^{x}.
    """
    tokens: list[float] = []
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0]
            tokens.extend(float(t) for t in line.split())
    if not tokens:
        raise ValueError(f"{path}: empty coefficient file")
    r = int(tokens[0])
    if r < 0 or len(tokens) != 1 + 2 * (r + 1):
        raise ValueError(
            f"{path}: expected the degree followed by 2*(degree+1) "
            f"coefficients, got {len(tokens)} values")
    num = tokens[1:r + 2]
    den = tokens[r + 2:]

    def evaluate(x: complex) -> complex:
        t = -x
        nv = 0.0 + 0.0j
        dv = 0.0 + 0.0j
        for c in reversed(num):
            nv = nv * t + c
        for c in reversed(den):
            dv = dv * t + c
        return nv / dv

    return evaluate


def q0_shift(w: complex, alpha: float = 0.125,
             exp_eval: Callable[[complex], complex] | None = None,
             params: ApproxParams | None = None) -> complex:
    """Evaluate at tau = 0 through the interior point 1 - alpha.

    Uses q(0, w) = q(1 - alpha, w) e^{alpha w} - w with the value at
    1 - alpha supplied by G_approx.  exp_eval defaults to cmath.exp; a
    rational approximant from load_exp_approximant may be plugged in
    instead.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    w = check_pole(w)
    evaluator = cmath.exp if exp_eval is None else exp_eval
    if params is None:
        params = ApproxParams(p=2, N=100, tau=1.0 - alpha, w=w, ell=3,
                              alpha=alpha)
    else:
        params = replace(params, tau=1.0 - alpha, w=w, alpha=alpha)
    return G_approx(params) * evaluator(alpha * w) - w
