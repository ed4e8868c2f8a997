"""Bernoulli polynomials with exact rational coefficients."""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

#: beyond this degree the coefficient growth defeats double precision
DEGREE_CAP = 64


def _check_p(p: int) -> int:
    """p as a Python int, which callers compute with.

    Refuses an order p that is not an integer (TypeError, from
    operator.index) or lies outside 1..DEGREE_CAP + 1: the polynomial part
    of order p needs Bernoulli degrees up to p - 1.  A numpy integer comes
    back as an int, so no order arithmetic runs in numpy.
    """
    if not 1 <= (p := operator.index(p)) <= DEGREE_CAP + 1:
        raise ValueError(f"p must lie in 1..{DEGREE_CAP + 1}")
    return p


@dataclass(frozen=True)
class BernoulliTable:
    """Monomial coefficients of B_0 .. B_max_degree, ascending powers.

    ``coeffs`` keeps the exact rationals; ``coeffs_float`` is the one-time
    floating-point conversion used by all evaluation routines.  Immutable
    after construction, so concurrent reads are safe.
    """

    max_degree: int
    coeffs: tuple[tuple[Fraction, ...], ...]
    coeffs_float: tuple[tuple[float, ...], ...]


def build_bernoulli_table(max_degree: int) -> BernoulliTable:
    """Row k holds C(k, i) B_{k-i} at x^i, with B_0 = 1, B_1 = -1/2 and
    B_m = -1/(m+1) sum_{j<m} C(m+1, j) B_j (zero at odd m >= 3, skipped).

    The recurrence runs in exact rational arithmetic; its alternating sums
    cancel catastrophically in floating point.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    if max_degree > DEGREE_CAP:
        raise ValueError(
            f"max_degree {max_degree} exceeds the cap {DEGREE_CAP}; "
            "higher degrees are numerically meaningless at double precision")
    numbers = [Fraction(1), Fraction(-1, 2)] + [Fraction(0)] * max_degree
    for m in range(2, max_degree + 1, 2):
        numbers[m] = -sum(math.comb(m + 1, j) * numbers[j]
                          for j in [1, *range(0, m, 2)]) / (m + 1)
    rows = tuple(tuple(math.comb(k, i) * numbers[k - i] for i in range(k + 1))
                 for k in range(max_degree + 1))
    return BernoulliTable(
        max_degree=max_degree,
        coeffs=rows,
        coeffs_float=tuple(tuple(float(c) for c in row) for row in rows),
    )


def _polyval(coeffs, x):
    """sum_i coeffs[i] x^i by Horner's rule from the top coefficient;
    coeffs ascending and nonempty."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


@functools.cache
def shared_table() -> BernoulliTable:
    """The process-wide table of degree DEGREE_CAP, built on first use."""
    return build_bernoulli_table(DEGREE_CAP)


def eval_bernoulli(table: BernoulliTable, k: int, tau: float) -> float:
    """Horner evaluation of B_k(tau) at any real tau, widened to a float (a
    np.float32 tau would run the loop in single precision)."""
    if not 0 <= k <= table.max_degree:
        raise ValueError(f"degree {k} outside table range 0..{table.max_degree}")
    return _polyval(table.coeffs_float[k], float(tau))


def _polynomial_weights(table: BernoulliTable, p: int, tau: float) -> list:
    """B_j(tau) / j! for j < p: the weight of w^j, or of A^j f, in the
    polynomial part."""
    return [eval_bernoulli(table, j, tau) / math.factorial(j)
            for j in range(_check_p(p))]


def lanczos_polynomial(table: BernoulliTable, p: int, tau: float,
                       w: complex) -> complex:
    """Truncated generating series sum_{k=0}^{p-1} B_k(tau) w^k / k!, by
    Horner's rule over _polynomial_weights: the scalar case of the matrix
    polynomial part, bit for bit on a real w."""
    return complex(_polyval(_polynomial_weights(table, p, tau), complex(w)))
