"""Matrix-argument actions q(tau, A) f through banded shifted solves."""

from __future__ import annotations

import copy
import math
import os
import queue
import threading

import numpy as np

from .acceleration import _data_lines, _weight_row
# perfbench/tracing.py wraps berngen.matfunc.build_triangle by this name
from .acceleration import build_triangle  # noqa: F401
from .bernoulli import _polynomial_weights, shared_table
from .fourier import (POLE_TOL, TWO_PI, ApproxParams, PoleProximityError,
                      _check_order, _check_tau, check_pole, parity_signs)

#: 1-norm bound under which the degree-13 diagonal Pade approximant of the
#: exponential is accurate to machine precision
PADE_THETA = 5.371920351148152

#: the dense reference_solution refuses above this
DENSE_CAP = 1024

#: spectral_reference refuses above this: eigh costs O(s^3) (2.2 s at
#: s = 2048 on one core, so ~15 s at 4096) and the eigenvectors s^2 doubles
SPECTRAL_CAP = 4096

#: spectral_reference's largest max(D) / min(D); its error grows like eps x it
SCALING_CAP = 1e6


def _real(x, what: str) -> np.ndarray:
    """x as a float64 array, the one conversion of every real array input:
    a complex dtype raises TypeError, where numpy would drop the imaginary
    part with only a ComplexWarning, and a non-finite entry ValueError,
    each naming what."""
    x = np.asarray(x)
    if x.dtype.kind == "c":
        raise TypeError(f"{what} must be real, not complex")
    x = x.astype(float, copy=False)
    if not np.isfinite(x).all():
        raise ValueError(f"{what} must be finite")
    return x


class BandedOperator:
    """Real square operator stored as tridiagonal bands or a dense matrix.

    The tridiagonal form may carry the two corner entries
    corners = (A[0, s-1], A[s-1, 0]) of a periodic (cyclic) tridiagonal
    matrix; corners is None when both are zero.  Immutable after
    construction; matvec and the shifted solve never write back, so
    instances are safe to share.
    """

    __slots__ = ("dimension", "sub", "diag", "sup", "corners", "_dense")

    def __init__(self, *, dimension: int, sub=None, diag=None, sup=None,
                 corners=None, dense=None):
        self.dimension = dimension
        self.sub = sub
        self.diag = diag
        self.sup = sup
        self.corners = corners
        self._dense = dense

    @classmethod
    def tridiagonal(cls, sub, diag, sup,
                    corners=(0.0, 0.0)) -> "BandedOperator":
        """Operator from sub-, main and super-diagonals (lengths s-1, s, s-1)
        and the corners (A[0, s-1], A[s-1, 0]), which need s >= 3."""
        sub, diag, sup = (_real(v, "operator entries")
                          for v in (sub, diag, sup))
        s = diag.shape[0]
        if s < 1:
            raise ValueError("empty diagonal")
        if sub.shape != (s - 1,) or sup.shape != (s - 1,):
            raise ValueError("off-diagonals must have length s - 1")
        corners = tuple(_real(corners, "operator entries").tolist())
        if len(corners) != 2:
            raise ValueError("corners must hold exactly two values")
        if any(corners) and s < 3:
            raise ValueError("corner entries need dimension >= 3")
        return cls(dimension=s, sub=sub, diag=diag, sup=sup,
                   corners=corners if any(corners) else None)

    @classmethod
    def diagonal(cls, d) -> "BandedOperator":
        d = _real(d, "operator entries")
        zeros = np.zeros(max(d.shape[0] - 1, 0))
        return cls.tridiagonal(zeros, d, zeros.copy())

    @classmethod
    def dense(cls, matrix) -> "BandedOperator":
        matrix = _real(matrix, "operator entries")
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("dense operator must be a square matrix")
        if not matrix.size:
            raise ValueError("empty dense operator")
        return cls(dimension=matrix.shape[0], dense=matrix.copy())

    @property
    def is_tridiagonal(self) -> bool:
        """True for plain tridiagonal storage: no dense matrix, no corner."""
        return self._dense is None and self.corners is None

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """A v along the last axis: each row of a 2-D v is one vector, with
        the arithmetic of a lone vector (a dense A takes one GEMV per row:
        a GEMM may round a row differently as the batch changes)."""
        if self._dense is not None:
            rows = [row @ self._dense.T for row in v.reshape(-1, v.shape[-1])]
            return np.reshape(rows, v.shape)
        y = self.diag * v
        y[..., 1:] += self.sub * v[..., :-1]
        y[..., :-1] += self.sup * v[..., 1:]
        if self.corners is not None:
            y[..., 0] += self.corners[0] * v[..., -1]
            y[..., -1] += self.corners[1] * v[..., 0]
        return y

    def _entries(self):
        """(rows, cols, values) of the banded storage, in the order
        diagonal, sub-diagonal, super-diagonal, corners: the first s are
        the diagonal, and np.bincount adds each row's or column's entries
        in that order."""
        s, corners = self.dimension, self.corners or ()
        i, k = np.arange(s), np.array([0, s - 1][:len(corners)], dtype=int)
        return (np.concatenate((i, i[1:], i[:-1], k)),
                np.concatenate((i, i[:-1], i[1:], k[::-1])),
                np.concatenate((self.diag, self.sub, self.sup, corners)))

    def to_dense(self) -> np.ndarray:
        if self._dense is not None:
            return self._dense.copy()
        rows, cols, values = self._entries()
        M = np.zeros((self.dimension, self.dimension))
        M[rows, cols] = values
        return M

    def norm1(self) -> float:
        """Maximum absolute column sum."""
        if self._dense is not None:
            return float(np.abs(self._dense).sum(axis=0).max())
        _, cols, values = self._entries()
        return float(np.bincount(cols, np.abs(values)).max())


#: solves and Z fills work in blocks of max(1, _WORK_ROWS // s) rows: eight
#: shifts per cyclic-reduction batch at s = 4096, where numpy's per-call
#: cost no longer dominates the small last levels and the solve peaks
#: under 40 bytes per shift and row
_WORK_ROWS = 8 * 2 ** 12


def _vector(A: BandedOperator, f) -> np.ndarray:
    """f through _real, then of shape (s,): any other shape raises
    ValueError."""
    f = _real(f, "f")
    if f.shape != (A.dimension,):
        raise ValueError(f"f has shape {f.shape}, expected ({A.dimension},)")
    return f


def _pivoted_elimination(A: BandedOperator, z, b) -> np.ndarray:
    """Pivoted elimination of the right-hand sides b, shape (m, ..., n),
    against the m systems A - z_j I over the 1-D array z of complex shifts;
    returns the solutions.  System j swaps rows i and i+1 when
    |dl[i]| > |A[i, i] - z_j|, as LAPACK gtsv does, through a mask, so each
    system sees the arithmetic it would see alone.  Errors are ignored: a
    zero pivot or an overflow leaves a non-finite solution for
    shifted_solve to refuse.
    """
    n = A.dimension
    x = np.zeros(b.shape[:-1] + (n + 2,), dtype=complex)   # x[n:] stay 0
    x[..., :n] = b
    # row i of every system: d[i], x[i]; d is overwritten by the pivots
    d, x = (A.diag - z[:, None]).T, x.T
    dl, du, du2 = A.sub.tolist(), A.sup.tolist() + [0.0], [0.0] * n
    with np.errstate(all="ignore"):
        for i in range(n - 1):
            swap = np.abs(d[i]) < abs(dl[i])
            mult = np.where(swap, d[i] / dl[i], dl[i] / d[i])
            pivot = np.where(swap, du[i] - mult * d[i + 1],
                             d[i + 1] - mult * du[i])
            du[i] = np.where(swap, d[i + 1], du[i])
            d[i], d[i + 1] = np.where(swap, dl[i], d[i]), pivot
            du2[i] = np.where(swap, du[i + 1], 0.0)
            du[i + 1] = np.where(swap, -mult * du[i + 1], du[i + 1])
            x[i], x[i + 1] = (np.where(swap, x[i + 1], x[i]),
                              np.where(swap, x[i] - mult * x[i + 1],
                                       x[i + 1] - mult * x[i]))
        for i in range(n - 1, -1, -1):
            x[i] = (x[i] - du[i] * x[i + 1] - du2[i] * x[i + 2]) / d[i]
    return x[:n].T


def _reduce(lower, d, upper) -> list:
    """Odd-even reduction of the tridiagonal systems
    -lower[i-1] x[i-1] + d[i] x[i] - upper[i] x[i+1] = f[i], rows along
    the last axis.  Each level adds row 2j times alpha[j] and row 2j+2 times
    gamma[j] to row 2j+1, which leaves the odd rows as the next level; it
    keeps (lower[1::2], upper[0::2], 1 / d at the even rows, alpha, gamma),
    the halves of the bands that _substitute reads, as copies so that the
    full bands, d included, are freed.  The last level is one row,
    (None, None, 1 / d, None, None)."""
    levels = []
    while d.shape[-1] > 1:
        h = d.shape[-1] // 2
        inv = 1.0 / d[..., 0::2]
        alpha = lower[..., 0::2] * inv[..., :h]
        gamma = upper[..., 1::2] * inv[..., 1:]
        lower, upper = lower[..., 1::2].copy(), upper[..., 0::2].copy()
        levels.append((lower, upper, inv, alpha, gamma))
        d = d[..., 1::2] - alpha * upper
        d[..., :gamma.shape[-1]] -= gamma * lower
        lower, upper = (alpha[..., 1:] * lower[..., :h - 1],
                        gamma[..., :h - 1] * upper[..., 1:])
    levels.append((None, None, 1.0 / d, None, None))
    return levels


def _substitute(levels, f) -> np.ndarray:
    """Solve with the levels of _reduce for the right-hand sides f, rows
    along the last axis; overwrites f and returns the solution.  The back
    pass reads no alpha or gamma, so each level's are dropped from the
    list levels after its forward step: pass a copy to keep them."""
    rhs = []
    for i in range(len(levels) - 1):
        lower, upper, inv, alpha, gamma = levels[i]
        levels[i] = lower, upper, inv
        rhs.append(f)
        f = alpha * f[..., 0:2 * alpha.shape[-1]:2]
        f += rhs[-1][..., 1::2]   # a sum rounds the same either way round
        del alpha                 # freed here if levels held the last copy
        f[..., :gamma.shape[-1]] += gamma * rhs[-1][..., 2::2]
    x = f * levels[-1][2]
    for lower, upper, inv in levels[-2::-1]:
        f = rhs.pop()   # the levels below are freed as x replaces them
        f[..., 1::2] = x
        f[..., 2::2] += lower * x[..., :lower.shape[-1]]
        f[..., 0:2 * x.shape[-1]:2] += upper * x
        # not *=: numpy's in-place complex product of one element, a batch
        # of one system at the last levels, rounds differently
        f[..., 0::2] = f[..., 0::2] * inv
        x = f
    return x


def _cyclic_reduction(A: BandedOperator, z, b) -> np.ndarray:
    """Cyclic reduction (Buzbee, Golub & Nielson 1970) of the systems of
    _pivoted_elimination, with the same arguments (b of shape (m, n)), plus
    one step of iterative refinement through the stored multipliers.  It
    does not pivot, so every row of every system must be strictly
    diagonally dominant, a property each reduced system inherits (Heller
    1976).  Every operation is elementwise across systems, so each sees the
    arithmetic it would see alone.  The diagonals A.diag - z are formed
    where they are read, so none outlives the reduction or waits through
    the first substitution for the residual."""
    levels = _reduce(-A.sub, A.diag - z[:, None], -A.sup)
    y = _substitute(levels.copy(), b.astype(complex, order="C"))
    r = np.empty_like(y)   # the residual b - (A - z I) y
    half = len(z) // 2
    # in two halves of the batch, so that each temporary holds half a batch
    # and the residual peaks below the substitutions; the product goes to a
    # separate array, which rounds as a fresh one would
    for j in (slice(None, half), slice(half, None)):
        np.multiply(A.diag - z[j, None], y[j], out=r[j])
        np.subtract(b[j], r[j], out=r[j])
        r[j, 1:] -= A.sub * y[j, :-1]
        r[j, :-1] -= A.sup * y[j, 1:]
    y += _substitute(levels, r)
    return y


def _periodic_solve(A: BandedOperator, z, b) -> np.ndarray:
    """The systems of _pivoted_elimination, with the same arguments (b of
    shape (m, n)), for a periodic tridiagonal A; every row of every system
    must be strictly diagonally dominant (_dominant).

    A - z I is T + u v^T with u = (g, 0, ..., 0, A[s-1, 0]),
    v = (1, 0, ..., 0, A[0, s-1] / g) and g = -(A[0, 0] - z), so T is
    tridiagonal and differs only in T[0, 0] and T[s-1, s-1] (Temperton
    1975).  T inherits the dominance, so cyclic reduction without
    refinement gives c = T^-1 u and w = T^-1 b at once, and
    Sherman-Morrison y = w - (v.w) / (1 + v.c) c.  A vanishing 1 + v.c
    leaves a non-finite solution for shifted_solve to refuse.
    """
    top, bottom = A.corners
    d = A.diag - z[:, None]
    n, g = A.dimension, -d[:, 0]
    d[:, 0] -= g
    d[:, -1] -= top * bottom / g
    x = np.zeros((z.shape[0], 2, n), dtype=complex)
    x[:, 0, 0], x[:, 0, n - 1], x[:, 1] = g, bottom, b
    levels = _reduce(-A.sub, d[:, None], -A.sup)
    del d   # the substitution reads only the levels
    c, y = _substitute(levels, x).transpose(1, 0, 2)
    den = 1.0 + c[:, 0] + top / g * c[:, -1]
    with np.errstate(all="ignore"):
        return y - c * ((y[:, 0] + top / g * y[:, -1]) / den)[:, None]


def _dominant(A: BandedOperator, z) -> np.ndarray:
    """True for each complex shift z_j at which every row of A - z_j I is
    strictly diagonally dominant, |A[i, i] - z_j| > r_i with r_i the sum of
    the off-diagonal moduli of row i, corners included; that is
    Im(z_j)^2 > max_i (r_i^2 - (A[i, i] - Re z_j)^2), one O(s) pass per
    distinct real part.  For a periodic A it implies the same of the
    tridiagonal part T that _periodic_solve eliminates."""
    s, (rows, _, values) = A.dimension, A._entries()
    r = np.bincount(rows[s:], np.abs(values[s:]), minlength=s)
    real, inverse = np.unique(z.real, return_inverse=True)
    gap = np.array([np.max(r * r - np.square(A.diag - x)) for x in real])
    return z.imag * z.imag > gap[inverse]


def _complex_solves(A: BandedOperator, z, b: np.ndarray):
    """Yield (indices into z, (A - z_j I)^{-1} b with one row per index)
    for each kernel call, over a 1-D array z of complex shifts.  A dense A
    takes numpy's pivoted LU per shift.  On a banded A a dominant z_j
    (_dominant) takes cyclic reduction in chunks of max(1, _WORK_ROWS // s)
    shifts, refined once if A is tridiagonal, inside Sherman-Morrison if
    periodic.  Every other z_j takes the pivoted elimination, in one call,
    if A is tridiagonal, and numpy's LU of the dense A - z_j I if periodic:
    the cut is stable only on dominant shifts, so above DENSE_CAP such a
    z_j raises LinAlgError before any solve."""
    s = A.dimension
    dominant = (np.zeros(z.shape, dtype=bool) if A._dense is not None
                else _dominant(A, z))
    reduced, others = np.flatnonzero(dominant), np.flatnonzero(~dominant)
    if A.corners is not None and others.size and s > DENSE_CAP:
        raise np.linalg.LinAlgError(
            f"periodic shifted system at z = {z[others[0]]} is not "
            f"diagonally dominant, and s = {s} exceeds DENSE_CAP")

    def banded(kernel, j):
        return j, kernel(A, z[j], np.broadcast_to(b, (j.shape[0], s)))

    step = max(1, _WORK_ROWS // s)
    reduction = _cyclic_reduction if A.corners is None else _periodic_solve
    for lo in range(0, reduced.shape[0], step):
        yield banded(reduction, reduced[lo:lo + step])
    if A.is_tridiagonal and others.size:
        yield banded(_pivoted_elimination, others)
    elif others.size:
        M = A.to_dense()
        yield others, np.array([np.linalg.solve(M - zj * np.eye(s), b)
                                for zj in z[others]])


def shifted_solve(A: BandedOperator, k, b) -> np.ndarray:
    """Solve (A^2 + (2 pi k)^2 I) x = b by one complex solve per k.

    An integer k gives x, shape (s,); a 1-D integer array of m k gives
    (m, s), each row bit for bit its single-k x.  With t = 2 pi k,
    (A - i t I)^{-1} b = A x + i t x for real A and b, so x is the
    imaginary part of _complex_solves at the shifts z = i t, over t.
    Both heat operators and the CLI circulant take cyclic reduction at
    every k.  Only here, apart from numpy's LU and the DENSE_CAP refusal
    of _complex_solves, is a system refused: a non-finite solution
    raises LinAlgError, then ||(A - i t I)^{-1} b||_1 > ||b||_1 / POLE_TOL
    raises PoleProximityError: 2 pi k i lies within about POLE_TOL of
    spec(A), or of its pseudospectrum if A is non-normal.  A b that
    _vector refuses raises before any solve.
    """
    ks = np.atleast_1d(k)
    if ks.ndim != 1 or ks.dtype.kind not in "iu":
        raise TypeError("k must be an integer or a 1-D array of integers")
    if np.any(ks < 1):
        raise ValueError("k must be >= 1")
    t = TWO_PI * ks
    b = _vector(A, b)
    x = np.empty((t.shape[0], A.dimension))
    for j, y in _complex_solves(A, 1j * t, b):
        norm = np.abs(y).sum(axis=1)
        bad, near = ~np.isfinite(norm), norm > np.abs(b).sum() / POLE_TOL
        if bad.any():
            raise np.linalg.LinAlgError(
                f"shifted solution at k = {ks[j][bad][0]} is not finite")
        if near.any():
            raise PoleProximityError(
                f"2 pi i k is within about {POLE_TOL} of the spectrum (for a "
                f"non-normal A, the pseudospectrum) at k = {ks[j][near][0]}")
        x[j] = y.imag / t[j, None]
        del y   # freed before the next batch is reduced
    return x.reshape(np.shape(k) + (A.dimension,))


def _horner(A: BandedOperator, terms) -> np.ndarray:
    """sum_j A^j terms[j] by Horner's rule: len(terms) - 1 matvecs."""
    v = terms[-1]
    for term in terms[-2::-1]:
        v = A.matvec(v) + term
    return v


#: _rows_dot splits a row product over a matrix at least this large: a
#: threshold measured on a 2-core x86-64 box whose L2 holds 1 MiB per core,
#: not shared, so a matrix this size fits neither core's L2
_L2_BYTES = 2 * 2 ** 20

#: the job queue of _rows_dot's helper thread, started on first use
_jobs = None
_jobs_lock = threading.Lock()


def _reset_helper() -> None:
    """Forget the helper in a forked child, which has no helper thread."""
    global _jobs, _jobs_lock
    _jobs, _jobs_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_reset_helper)


def _helper(jobs) -> None:
    """Compute out = w @ R for each queued (w, R, out, done), then put None
    or the exception on done; it drops the job before replying, so no
    array outlives the call that queued it."""
    while True:
        w, R, out, done = jobs.get()
        try:
            np.matmul(w, R, out=out)
            error = None
        except Exception as exc:  # re-raised in the calling thread
            error = exc
        del w, R, out
        done.put(error)
        del done, error


def _rows_dot(w: np.ndarray, R: np.ndarray) -> np.ndarray:
    """w @ R, bit for bit, for a row w and a matrix R of s columns.

    A GEMV over a matrix larger than a core's L2 is bound by memory
    bandwidth, so from _L2_BYTES up the columns are cut in two at
    s // 128 * 64: a helper thread computes the right half while the
    caller computes the left, and numpy releases the GIL inside BLAS, so
    each core streams its own half.
    OpenBLAS sums the columns in blocks of four, and the last s mod 4 in
    another loop; a cut at a multiple of 64 columns leaves every column in
    the loop it takes unsplit, where a 3-way cut at 1365 moved the last bit.

    The split pays only at one BLAS thread, and nothing pins BLAS, the CLI
    included.  Uniform heat plan, s = 4096, N = 50, ell = 4, 2,000 taus,
    best of 5 on a 2-core x86-64 box: with OPENBLAS_NUM_THREADS=1 evaluate
    took 82-86 us split against 118-128 us unsplit; with OpenBLAS at its
    default thread count, which splits the GEMV itself, 86-104 us split
    against 57-60 us unsplit.  The CLI reaches the split on any plan whose
    Z or X holds 2 MiB or more, such as arnoldi-compare --test 4 --s 16384
    (Z 15.5 MB) or bvp-compare --s 1024 at its default N and ell (the base
    plan's Z 3.4 MB).
    """
    global _jobs
    cut = R.shape[-1] // 128 * 64
    if R.nbytes < _L2_BYTES or not cut:
        return w @ R
    with _jobs_lock:
        if _jobs is None:
            _jobs = queue.SimpleQueue()
            threading.Thread(target=_helper, args=(_jobs,), daemon=True,
                             name="berngen-rows-dot").start()
        jobs = _jobs
    out = np.empty(R.shape[-1])
    done = queue.SimpleQueue()
    jobs.put((w, R[:, cut:], out[cut:], done))
    np.matmul(w, R[:, :cut], out=out[:cut])
    error = done.get()
    if error is not None:
        raise error
    return out


def h_action(A: BandedOperator, p: int, tau: float, f) -> np.ndarray:
    """Horner evaluation of the polynomial part on a vector: the matvecs
    of sum_{k<p} B_k(tau) A^k / k! applied to f."""
    _check_tau(tau)
    f = _vector(A, f)
    weights = _polynomial_weights(shared_table(), p, tau)
    return _horner(A, [c * f for c in weights])


class ActionPlan:
    """tau-independent mode data for evaluating q(tau, A) f.

    A plan keeps the solves x_k of (A^2 + t_k^2 I) x_k = f, t_k = 2 pi k, as
    the rows of X and the O(1) rows Z = [f, A f, Y_1, D_1, Y_2, D_2, ...]
    with Y_k = f - t_k^2 x_k = A^2 x_k and D_k = A Y_k / t_k.  Building
    costs N + 2*ell shifted solves and a matvec per solved mode, plus one
    for A f; evaluate() then takes any tau without solves, and view()
    reads other (p, N, ell, scheme) on the same (A, f) from X and Z.
    scheme 'direct' mirrors the classical construction, A^p and A^{p+1}
    on the solves, whose ||A||^p noise growth the error tables document;
    the default 'stabilized' weights the rows of Z (and A x_k at p = 1).
    """

    def __init__(self, A: BandedOperator, p: int, N: int, ell: int, f,
                 scheme: str = "stabilized"):
        self.A, self.f = A, _vector(A, f)
        self._X = np.empty((0, A.dimension))
        self._build(p, N, ell, scheme)

    def view(self, p: int, N: int, ell: int,
             scheme: str = "stabilized") -> "ActionPlan":
        """A plan on the same (A, f), leaving this plan unchanged: within its
        N + 2 ell modes a view does no work and its arrays are prefixes of
        this plan's; beyond them it solves, and counts in solve_count, only
        the missing modes."""
        plan = copy.copy(self)
        plan._build(p, N, ell, scheme)
        return plan

    def _build(self, p: int, N: int, ell: int, scheme: str) -> None:
        """Set p, N, ell, scheme, evaluate's tau-independent factors, X, Z."""
        _check_order(p, N, ell)
        if scheme not in ("stabilized", "direct"):
            raise ValueError(f"unknown scheme {scheme!r}")
        A, f, s = self.A, self.f, self.A.dimension
        self.p, self.N, self.ell, self._scheme = p, N, ell, scheme
        M, have = N + 2 * ell, len(self._X)
        self._tk = tk = TWO_PI * np.arange(1, M + 1)
        # odd p swaps the families; each row's t_k power over 2 x its sign
        self._order = order = slice(None, None, -1 if p % 2 else 1)
        powers = ((tk ** (p - 2), tk ** (p - 1)) if scheme == "direct"
                  else (tk ** max(p - 2, 0),) * 2)
        self._divisors = np.array(powers) / (
            2.0 * np.array(parity_signs(p))[order, None])
        self.solve_count = max(M - have, 0)
        if M <= have:
            self._X, self._Z = self._X[:M], self._Z[:2 + 2 * M]
            return
        # Z (16 s bytes per mode) is allocated after the solves' work arrays
        # are freed, so the build peaks near X and Z
        X = shifted_solve(A, np.arange(have + 1, M + 1), f)
        if have:
            X = np.concatenate((self._X, X))
        Z = np.empty((2 + 2 * M, s))
        Z[:2 + 2 * have] = self._Z if have else (f, A.matvec(f))
        YD, step = Z[2:].reshape(M, 2, s), max(1, _WORK_ROWS // s)
        for lo in range(have, M, step):
            t = tk[lo:lo + step, None]
            YD[lo:lo + step, 0] = f - t ** 2 * X[lo:lo + step]
            YD[lo:lo + step, 1] = A.matvec(YD[lo:lo + step, 0]) / t
        self._X, self._Z = X, Z

    def evaluate(self, tau: float) -> np.ndarray:
        """q(tau, A) f from the stored rows (no solves).

        The weight row of acceleration's _weight_row, the plan's divisors
        (parity signs and t_k powers) and Bernoulli coefficients fold into
        one weight per row, so stabilized p = 2 is one GEMV over Z.  One
        Horner sweep then applies A^{p-2} to it, A to a GEMV over X (p = 1),
        or A^p and A^{p+1} to two ('direct').  The rest is O(N + ell) scalar
        work, which writes only arrays the call allocates.  Each GEMV is
        _rows_dot's, whose docstring says when it splits.
        """
        _check_tau(tau)
        p, X = self.p, self._X
        # weights of A^p x_k and A^(p+1) x_k, or of the rows Y_k and D_k
        trig = _weight_row(self.N, self.ell, tau)
        lo, hi = trig[self._order] / self._divisors
        c, f = _polynomial_weights(shared_table(), p, tau), self.f
        w = np.zeros(len(self._Z))
        if self._scheme == "direct":
            terms = [cj * f for cj in c] + [_rows_dot(lo, X), _rows_dot(hi, X)]
        elif p == 1:
            w[0], w[2::2] = c[0], hi
            terms = [_rows_dot(w, self._Z), _rows_dot(lo * self._tk, X)]
        else:
            w[:2], w[2::2], w[3::2] = c[p - 2:], lo, hi
            terms = [cj * f for cj in c[:p - 2]] + [_rows_dot(w, self._Z)]
        return _horner(self.A, terms)


def g_action(A: BandedOperator, params: ApproxParams, f) -> np.ndarray:
    """Classical truncated mode sum applied to f, on the 'direct' scheme:
    A^p and A^{p+1} act on weighted sums of the solves, so its noise grows
    like ||A||^p, the instability the error tables document."""
    plan = ActionPlan(A, params.p, params.N, 0, f, scheme="direct")
    return plan.evaluate(params.tau)


def G_action(A: BandedOperator, params: ApproxParams, f) -> np.ndarray:
    """Accelerated action; ell = 0 is g_action's 'direct' scheme, bit for
    bit."""
    plan = ActionPlan(A, params.p, params.N, params.ell, f,
                      scheme="direct" if params.ell == 0 else "stabilized")
    return plan.evaluate(params.tau)


_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)


def _expm_dense(M: np.ndarray, phi1: bool = False) -> np.ndarray:
    """e^M, or with phi1 phi_1(M) = sum_k M^k / (k+1)!, by the degree-13
    diagonal Pade approximant with scaling and squaring.

    phi_1(M) is the upper-right block of exp([[M, I], [0, 0]]), which
    avoids forming e^M - I as a difference of nearly equal matrices
    (Higham, Functions of Matrices, sec. 10.7).  That 2n x 2n matrix B is
    never formed.  Its 1-norm max(||M||_1, 1) sets the same squarings s as
    ||M||_1, since PADE_THETA > 1.  With X = M / 2^s and c = 2^-s every
    power of the scaled B is [[X^k, c X^(k-1)], [0, 0]], so the Pade
    numerator acts on the n x 2n top rows [X^k | c X^(k-1)].  The
    denominator is block triangular with one n x n block to factor, and a
    squaring maps the top row [E | G] to [E E | E G + G].
    """
    n = M.shape[0]
    norm = float(np.abs(M).sum(axis=0).max())
    squarings = math.ceil(math.log2(max(1.0, norm / PADE_THETA)))
    X = M / 2.0 ** squarings
    b = _PADE13
    eye = np.eye(n)
    X2 = X @ X
    X4 = X2 @ X2
    X6 = X2 @ X4
    V = (X6 @ (b[12] * X6 + b[10] * X4 + b[8] * X2)
         + b[6] * X6 + b[4] * X4 + b[2] * X2 + b[0] * eye)
    Y0, Y2, Y4, Y6 = eye, X2, X4, X6
    if phi1:
        c = 2.0 ** -squarings
        Y0 = np.eye(n, 2 * n)
        Y2 = np.hstack([X2, c * X])
        Y4 = np.hstack([X4, c * (X @ X2)])
        Y6 = np.hstack([X6, c * (X @ X4)])
    U = X @ (X6 @ (b[13] * Y6 + b[11] * Y4 + b[9] * Y2)
             + b[7] * Y6 + b[5] * Y4 + b[3] * Y2 + b[1] * Y0)
    if phi1:
        # the top row [X | c I] of the scaled B meets the bracket's b1 I
        U[:, n:] += c * b[1] * eye
    # V's upper-right block cancels from (V - U)^-1 (V + U), leaving 2 U's
    F = np.linalg.solve(V - U[:, :n],
                        np.hstack([V + U[:, :n], 2.0 * U[:, n:]]))
    E, G = F[:, :n], F[:, n:]
    for _ in range(squarings):
        E, G = E @ E, E @ G + G
    return G if phi1 else E


def _phi1_solve(M: np.ndarray, taus, v: np.ndarray) -> list:
    """phi_1(M)^{-1} e^{tau M} v for each tau, with phi_1(M) formed once.

    The same function of M as (e^M - I)^{-1} e^{tau M} M v, but accurate
    (and defined) when the spectrum clusters at the removable singularity,
    where e^M - I cancels catastrophically.
    """
    phi = _expm_dense(M, phi1=True)
    z = [np.linalg.solve(phi, _expm_dense(t * M) @ v) for t in taus]
    if not all(np.isfinite(x).all() for x in z):
        # e^M overflows once M has an eigenvalue of real part near 1000
        raise FloatingPointError(
            "dense phi_1 kernel returned a non-finite vector")
    return z


def reference_solution(A: BandedOperator, tau, f) -> np.ndarray:
    """q(tau, A) f = (e^A - I)^{-1} e^{tau A} A f by dense Pade exponentials.

    The general dense oracle, for any operator up to DENSE_CAP, and
    independent of spectral_reference; no CLI command calls it, the tests
    check both oracles against each other.  tau may be an array: phi_1(A)
    is formed once and the result has shape tau.shape + (s,).  An f that
    _vector refuses, or a tau that _real refuses, raises before any Pade
    step; a non-finite result, from overflow of e^A, raises
    FloatingPointError.
    """
    if A.dimension > DENSE_CAP:
        raise ValueError(
            f"dense reference capped at dimension {DENSE_CAP}")
    f = _vector(A, f)
    taus = _real(tau, "tau")
    z = _phi1_solve(A.to_dense(), taus.flat, f)
    return np.reshape(z, taus.shape + f.shape)


def _circulant_column(A: BandedOperator):
    """First column of A when A is a circulant, else None.

    A periodic tridiagonal A is circulant when its three bands are
    constant and its corners continue them: A[0, s-1] == sub and
    A[s-1, 0] == sup.
    """
    if A.corners is None:
        return None
    if (any(np.any(band != band[0]) for band in (A.sub, A.diag, A.sup))
            or A.corners != (A.sub[0], A.sup[0])):
        return None
    column = np.zeros(A.dimension)
    column[0], column[1], column[-1] = A.diag[0], A.sub[0], A.sup[0]
    return column


def _q(taus: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """fourier.reference_q(tau, lam), one row per tau, one column per
    eigenvalue: check_pole refuses each eigenvalue as reference_q does, then
    the same closed form, with the value 1 at w = 0, runs in numpy over the
    whole array, so entries round as numpy's exp and complex arithmetic
    do."""
    w = np.asarray(lam, dtype=complex)
    for v in w.tolist():
        check_pole(v)
    # w e^{w tau} / expm1(w), or w e^{w (tau - 1)} / -expm1(-w) if Re w > 0
    right, zero = w.real > 0.0, w == 0
    em = np.expm1(np.where(right, -w, w))
    em[zero] = 1.0   # no 0 / 0 where q takes its value 1
    q = (w * np.exp(w * (taus.reshape(-1, 1) - right))
         / np.where(right, -em, em))
    q[:, zero] = 1.0
    return q


def spectral_reference(A: BandedOperator, tau, f) -> np.ndarray:
    """q(tau, A) f in closed form from the eigenvalues of A.

    A circulant (see _circulant_column) with first column c is
    diagonalized by the DFT, so with lam = fft(c)
    q(tau, A) f = ifft(q(tau, lam) fft(f)), at any dimension.  A
    tridiagonal A with sub[i] * sup[i] > 0 for every i is diagonally
    similar to the symmetric S = D^-1 A D, so with S = Q Lambda Q^T
    q(tau, A) f = D Q q(tau, Lambda) Q^T D^-1 f, up to SPECTRAL_CAP.
    log D is a centred cumulative sum, so D stays finite on strongly
    stretched grids, but max(D) / min(D) > SCALING_CAP raises ValueError.
    q(tau, lam) is fourier.reference_q's closed form over the eigenvalue
    array (_q), so an eigenvalue at a pole raises PoleProximityError.  An
    array tau gives shape tau.shape + (s,), one row of an inverse FFT or
    GEMM per tau.
    Another A raises ValueError; an f that _vector refuses, or a tau that
    _real refuses, raises before any FFT or eigendecomposition.
    """
    s, f = A.dimension, _vector(A, f)
    taus = _real(tau, "tau")
    column = _circulant_column(A)
    if column is not None:
        weights = _q(taus, np.fft.fft(column)) * np.fft.fft(f)
        return np.reshape(np.fft.ifft(weights).real, taus.shape + (s,))
    if not A.is_tridiagonal:
        raise ValueError(
            "spectral reference needs a tridiagonal operator or a circulant")
    if s > SPECTRAL_CAP:
        raise ValueError(
            f"spectral reference capped at dimension {SPECTRAL_CAP}")
    if not np.all(A.sub * A.sup > 0):
        raise ValueError(
            "spectral reference needs sub[i] * sup[i] > 0 for every i")
    # D^-1 A D is symmetric when d[i+1] / d[i] = sqrt(sub[i] / sup[i])
    logd = np.concatenate(([0.0], np.cumsum(
        0.5 * (np.log(np.abs(A.sub)) - np.log(np.abs(A.sup))))))
    if logd.max() - logd.min() > math.log(SCALING_CAP):
        raise ValueError(f"spectral reference needs max(D) / min(D) <= "
                         f"{SCALING_CAP:g}, with D^-1 A D symmetric")
    d = np.exp(logd - 0.5 * (logd.max() + logd.min()))
    off = np.sign(A.sup) * np.sqrt(A.sub * A.sup)
    S = BandedOperator.tridiagonal(off, A.diag, off).to_dense()
    lam, Q = np.linalg.eigh(S)
    weights = _q(taus, lam).real * (Q.T @ (f / d))
    return np.reshape((weights @ Q.T) * d, taus.shape + (s,))


def load_matrix_market(path) -> BandedOperator:
    """Read a coordinate-format matrix (real/integer, general/symmetric).

    The result is banded when every nonzero lies on the three central
    diagonals or, for s >= 3, the corners A[0, s-1] and A[s-1, 0];
    otherwise it is dense.
    """
    with open(path) as fh:
        header = fh.readline()
        parts = header.lower().split()
        if (len(parts) < 5 or not parts[0].startswith("%%matrixmarket")
                or parts[1] != "matrix" or parts[2] != "coordinate"):
            raise ValueError(f"{path}: unsupported header {header.strip()!r}")
        field, symmetry = parts[3], parts[4]
        if field not in ("real", "integer"):
            raise ValueError(f"{path}: unsupported field type {field!r}")
        if symmetry not in ("general", "symmetric"):
            raise ValueError(f"{path}: unsupported symmetry {symmetry!r}")
        lines = [line for line in map(str.strip, fh)
                 if line and not line.startswith("%")]
    try:
        rows, cols, nnz = (int(t) for t in lines[0].split())
    except (IndexError, ValueError) as exc:
        raise ValueError(f"{path}: malformed size line") from exc
    if rows != cols:
        raise ValueError(f"{path}: only square matrices are supported")
    if rows < 1:
        raise ValueError(f"{path}: the size line gives an empty matrix")
    entries = {}   # (i, j) -> value; a repeated entry overwrites
    for line in lines[1:]:
        try:
            i_s, j_s, v_s = line.split()[:3]
            i, j, v = int(i_s) - 1, int(j_s) - 1, float(v_s)
        except ValueError as exc:
            raise ValueError(f"{path}: malformed entry {line!r}") from exc
        if not (0 <= i < rows and 0 <= j < rows):
            raise ValueError(f"{path}: entry {line!r} is out of range")
        entries[i, j] = v
        if symmetry == "symmetric":
            entries[j, i] = v
    if len(lines) - 1 != nnz:
        raise ValueError(
            f"{path}: expected {nnz} entries, found {len(lines) - 1}")
    s, get = rows, entries.get
    slots = ((0, s - 1), (s - 1, 0))   # on the bands when s < 3
    if any(v and abs(i - j) > 1 and (i, j) not in slots
           for (i, j), v in entries.items()):
        M = np.zeros((s, s))
        for (i, j), v in entries.items():
            M[i, j] = v
        return BandedOperator.dense(M)
    return BandedOperator.tridiagonal(
        [get((i + 1, i), 0.0) for i in range(s - 1)],
        [get((i, i), 0.0) for i in range(s)],
        [get((i, i + 1), 0.0) for i in range(s - 1)],
        corners=[get(ij, 0.0) if s >= 3 else 0.0 for ij in slots])


def load_tridiagonal(path) -> BandedOperator:
    """Read the compact three-column (sub, diag, super) text format.

    One row per matrix row; the unused first sub and last super entries
    are ignored.  A file with no data row raises ValueError.
    """
    data = np.loadtxt(_data_lines(path), ndmin=2)
    if data.shape[1] != 3:
        raise ValueError(f"{path}: expected exactly three columns")
    return BandedOperator.tridiagonal(data[1:, 0], data[:, 1], data[:-1, 2])
