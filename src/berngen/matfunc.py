"""Matrix-argument actions q(tau, A) f through banded shifted solves."""

from __future__ import annotations

import copy
import math

import numpy as np

from .acceleration import build_triangle, pair_weights
from .bernoulli import eval_bernoulli, shared_table
from .fourier import (POLE_TOL, TWO_PI, ApproxParams, PoleProximityError,
                      _check_order, parity_signs)

#: 1-norm bound under which the degree-13 diagonal Pade approximant of the
#: exponential is accurate to machine precision
PADE_THETA = 5.371920351148152

#: the dense reference_solution refuses above this
DENSE_CAP = 1024

#: spectral_reference refuses above this: eigh costs O(s^3) (2.2 s at
#: s = 2048 on one core, so ~15 s at 4096) and the eigenvectors s^2 doubles
SPECTRAL_CAP = 4096


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
        sub = np.asarray(sub, dtype=float)
        diag = np.asarray(diag, dtype=float)
        sup = np.asarray(sup, dtype=float)
        s = diag.shape[0]
        if s < 1:
            raise ValueError("empty diagonal")
        if sub.shape != (s - 1,) or sup.shape != (s - 1,):
            raise ValueError("off-diagonals must have length s - 1")
        corners = tuple(float(c) for c in corners)
        if any(corners) and s < 3:
            raise ValueError("corner entries need dimension >= 3")
        return cls(dimension=s, sub=sub, diag=diag, sup=sup,
                   corners=corners if any(corners) else None)

    @classmethod
    def diagonal(cls, d) -> "BandedOperator":
        d = np.asarray(d, dtype=float)
        zeros = np.zeros(max(d.shape[0] - 1, 0))
        return cls.tridiagonal(zeros, d, zeros.copy())

    @classmethod
    def dense(cls, matrix) -> "BandedOperator":
        matrix = np.array(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("dense operator must be a square matrix")
        return cls(dimension=matrix.shape[0], dense=matrix)

    @property
    def is_tridiagonal(self) -> bool:
        """True for plain tridiagonal storage: no dense matrix, no corner."""
        return self._dense is None and self.corners is None

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """A v along the last axis: each row of a 2-D v is one vector."""
        if self._dense is not None:
            return v @ self._dense.T
        y = self.diag * v
        if self.dimension > 1:
            y[..., 1:] += self.sub * v[..., :-1]
            y[..., :-1] += self.sup * v[..., 1:]
        if self.corners is not None:
            y[..., 0] += self.corners[0] * v[..., -1]
            y[..., -1] += self.corners[1] * v[..., 0]
        return y

    def to_dense(self) -> np.ndarray:
        if self._dense is not None:
            return self._dense.copy()
        s = self.dimension
        M = np.zeros((s, s))
        M[np.arange(s), np.arange(s)] = self.diag
        if s > 1:
            M[np.arange(1, s), np.arange(s - 1)] = self.sub
            M[np.arange(s - 1), np.arange(1, s)] = self.sup
        if self.corners is not None:
            M[0, s - 1], M[s - 1, 0] = self.corners
        return M

    def norm1(self) -> float:
        """Maximum absolute column sum."""
        if self._dense is not None:
            return float(np.abs(self._dense).sum(axis=0).max())
        s = self.dimension
        col = np.abs(self.diag).astype(float)
        if s > 1:
            col[:-1] += np.abs(self.sub)
            col[1:] += np.abs(self.sup)
        if self.corners is not None:
            col[s - 1] += abs(self.corners[0])
            col[0] += abs(self.corners[1])
        return float(col.max())


def _tridiagonal_solve(A: BandedOperator, d, x) -> np.ndarray:
    """Pivoted elimination, in place, of the right-hand sides x, shape
    (n + 2, ..., m) with two zero rows last, against m systems with the
    off-diagonals of A and the (n, m) complex main diagonals d; returns the
    solutions x[:n].  System j swaps rows i and i+1 when |dl[i]| > |d[i, j]|,
    as LAPACK gtsv does.  du stays one float per row until a swap makes it
    depend on the system, and a column where no system swaps skips the
    masks; each system sees the arithmetic it would see alone.  A pivot is
    final once its step ends, so a zero pivot raises LinAlgError after it.
    """
    n = d.shape[0]
    dl, du, du2 = A.sub.tolist(), A.sup.tolist() + [0.0], [0.0] * n
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(n - 1):
            swap = np.abs(d[i]) < abs(dl[i])
            if not swap.any():
                mult = dl[i] / d[i]
                d[i + 1] -= mult * du[i]
                x[i + 1] -= mult * x[i]
                continue
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
    if not d.all():
        raise np.linalg.LinAlgError("shifted system is singular at column "
                                    f"{np.argwhere(d == 0)[0, 0]}")
    for i in range(n - 1, -1, -1):
        x[i] = (x[i] - du[i] * x[i + 1] - du2[i] * x[i + 2]) / d[i]
    return x[:n]


def _periodic_solve(A: BandedOperator, t, b: np.ndarray) -> np.ndarray:
    """Solve (A - i t_j I) y_j = b for a periodic tridiagonal A, one row
    per shift t_j.

    A - i t I is T + u v^T with u = (g, 0, ..., 0, A[s-1, 0]),
    v = (1, 0, ..., 0, A[0, s-1] / g) and g = -(A[0, 0] - i t), so T is
    tridiagonal and differs only in T[0, 0] and T[s-1, s-1] (Temperton
    1975).  With z = T^-1 u and w = T^-1 b, from one elimination over u
    and b in place, Sherman-Morrison gives y = w - (v.w) / (1 + v.z) z.  A
    y whose normwise backward error exceeds machine epsilon (T can be far
    worse conditioned than A - i t I) takes one step of iterative
    refinement, which reuses z.  A vanishing 1 + v.z raises LinAlgError.
    """
    top, bottom = A.corners
    n, g = A.dimension, -(A.diag[0] - 1j * t)

    def diagonal(j):
        d = A.diag[:, None] - 1j * t[j]
        d[[0, -1]] -= g[j], top * bottom / g[j]
        return d

    x = np.zeros((n + 2, 2, t.shape[0]), dtype=complex)
    x[0, 0], x[n - 1, 0], x[:n, 1] = g, bottom, b[:, None]
    z, y = _tridiagonal_solve(A, diagonal(slice(None)), x).transpose(1, 2, 0)
    den = 1.0 + z[:, 0] + top / g * z[:, -1]
    if not den.all():
        raise np.linalg.LinAlgError(
            "shifted system is singular: the Sherman-Morrison denominator "
            "vanishes")

    def correct(w, j):
        w -= z[j] * ((w[:, 0] + top / g[j] * w[:, -1]) / den[j])[:, None]

    correct(y, slice(None))
    r = b - A.matvec(y) + 1j * t[:, None] * y
    refine = np.abs(r).sum(axis=1) > np.finfo(float).eps * (
        (A.norm1() + t) * np.abs(y).sum(axis=1) + np.abs(b).sum())
    if refine.any():
        step = _tridiagonal_solve(A, diagonal(refine),
                                  np.pad(r[refine].T, ((0, 2), (0, 0)))).T
        correct(step, refine)
        y[refine] += step
    return y


def shifted_solve(A: BandedOperator, k, b) -> np.ndarray:
    """Solve (A^2 + (2 pi k)^2 I) x = b by one complex solve per k.

    An integer k gives x, shape (s,); a 1-D integer array of m k gives
    (m, s), each row bit for bit its single-k x.  With t = 2 pi k,
    (A - i t I)^{-1} b = A x + i t x for real A and b.  Tridiagonal and
    periodic operators take one elimination for all k, whose row loop
    costs about as much for one k as for a hundred (10 ms against 12 ms
    at s = 512 on a 2-core x86-64 box); dense ones take numpy's LU per k.
    ||(A - i t I)^{-1} b||_1 > ||b||_1 / POLE_TOL raises
    PoleProximityError: 2 pi k i lies within about POLE_TOL of spec(A).
    """
    ks = np.atleast_1d(k)
    if ks.ndim != 1 or ks.dtype.kind not in "iu":
        raise TypeError("k must be an integer or a 1-D array of integers")
    if np.any(ks < 1):
        raise ValueError("k must be >= 1")
    t = TWO_PI * ks
    b = np.asarray(b, dtype=float)
    if b.shape != (A.dimension,):
        raise ValueError(
            f"right-hand side has shape {b.shape}, expected ({A.dimension},)")
    if A._dense is not None:
        y = np.array([np.linalg.solve(
            A._dense - 1j * tj * np.eye(A.dimension), b) for tj in t])
    elif A.corners is None:
        x = np.zeros((A.dimension + 2, t.shape[0]), dtype=complex)
        x[:A.dimension] = b[:, None]
        y = _tridiagonal_solve(A, A.diag[:, None] - 1j * t, x).T
    else:
        y = _periodic_solve(A, t, b)
    near = np.abs(y).sum(axis=1) > np.abs(b).sum() / POLE_TOL
    if near.any():
        raise PoleProximityError(f"2 pi i k is within about {POLE_TOL} of "
                                 f"the spectrum at k = {ks[near][0]}")
    return (y.imag / t[:, None]).reshape(np.shape(k) + (A.dimension,))


def _bernoulli_weights(p: int, tau: float) -> list:
    """B_j(tau) / j! for j < p: the weight of A^j f in the polynomial part."""
    table = shared_table(p - 1)
    return [eval_bernoulli(table, j, tau) / math.factorial(j)
            for j in range(p)]


def _horner(A: BandedOperator, terms) -> np.ndarray:
    """sum_j A^j terms[j] by Horner's rule: len(terms) - 1 matvecs."""
    v = terms[-1]
    for term in terms[-2::-1]:
        v = A.matvec(v) + term
    return v


def h_action(A: BandedOperator, p: int, tau: float, f) -> np.ndarray:
    """Horner evaluation of the polynomial part on a vector: the matvecs
    of sum_{k<p} B_k(tau) A^k / k! applied to f."""
    if p < 1:
        raise ValueError("p must be >= 1")
    f = np.asarray(f, dtype=float)
    return _horner(A, [c * f for c in _bernoulli_weights(p, tau)])


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
        self.A, self.f = A, np.asarray(f, dtype=float)
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
        _check_order(p, N, ell)
        if scheme not in ("stabilized", "direct"):
            raise ValueError(f"unknown scheme {scheme!r}")
        A, f, s = self.A, self.f, self.A.dimension
        self.p, self.N, self.ell, self._scheme = p, N, ell, scheme
        # the correction's pairs as integer combinations of modes N..N+2 ell
        self._pairs = np.reshape(build_triangle(
            list(np.eye(2 * ell + 1)), ell).pairs(), (2 * ell, 2 * ell + 1))
        M, have = N + 2 * ell, len(self._X)
        self.solve_count = max(M - have, 0)
        if M <= have:
            self._X, self._Z = self._X[:M], self._Z[:2 + 2 * M]
            return
        # ceil(M / 2) k per call: their work arrays, 35 s bytes per k (64 if
        # periodic), peak near X and Z (24 s per mode), filled after them
        block = -(-M // 2)
        X = np.empty((M, s))
        X[:have] = self._X
        for lo in range(have, M, block):
            X[lo:lo + block] = shifted_solve(
                A, np.arange(lo + 1, min(lo + block, M) + 1), f)
        Z = np.empty((2 + 2 * M, s))
        Z[:2 + 2 * have] = self._Z if have else (f, A.matvec(f))
        YD, step = Z[2:].reshape(M, 2, s), max(1, 2 ** 15 // s)
        for lo in range(have, M, step):
            tk = TWO_PI * np.arange(lo + 1, min(lo + step, M) + 1)[:, None]
            YD[lo:lo + step, 0] = f - tk ** 2 * X[lo:lo + step]
            YD[lo:lo + step, 1] = A.matvec(YD[lo:lo + step, 0]) / tk
        self._X, self._Z = X, Z

    def evaluate(self, tau: float) -> np.ndarray:
        """q(tau, A) f from the stored rows (no solves).

        Mode cosines and sines, pair_weights through the triangle, t_k
        powers and Bernoulli coefficients fold into one weight per row, so
        stabilized p = 2 is one GEMV over Z.  One Horner sweep then applies
        A^{p-2} to it, A to a GEMV over X (p = 1), or A^p and A^{p+1} to
        two ('direct').
        """
        if not 0.0 <= tau <= 1.0:
            raise ValueError("tau must lie in [0, 1]")
        p, N, X = self.p, self.N, self._X
        tk = TWO_PI * np.arange(1, len(X) + 1)
        trig = np.zeros((2, len(X)))
        trig[:, :N] = np.cos(tk[:N] * tau), np.sin(tk[:N] * tau)
        trig[:, N - 1:] += np.dot(pair_weights(N, self.ell, tau),
                                  self._pairs)
        trig *= 2.0 * np.array(parity_signs(p))[:, None]
        # weights of A^p x_k / t_k^(p-2) and of A^(p+1) x_k / t_k^(p-1)
        lo, hi = trig[::-1] if p % 2 else trig
        c, f, w = _bernoulli_weights(p, tau), self.f, np.zeros(len(self._Z))
        if self._scheme == "direct":
            terms = [cj * f for cj in c] + [(lo / tk ** (p - 2)) @ X,
                                            (hi / tk ** (p - 1)) @ X]
        elif p == 1:
            w[0], w[2::2] = c[0], hi
            terms = [w @ self._Z, (lo * tk) @ X]
        else:
            w[:2], w[2::2], w[3::2] = c[p - 2:], lo, hi
            w[2:] /= np.repeat(tk ** (p - 2), 2)
            terms = [cj * f for cj in c[:p - 2]] + [w @ self._Z]
        return _horner(self.A, terms)


def g_action(A: BandedOperator, params: ApproxParams, f) -> np.ndarray:
    """Classical truncated mode sum applied to f, on the 'direct' scheme:
    A^p and A^{p+1} act on weighted sums of the solves, so its noise grows
    like ||A||^p, the instability the error tables document."""
    plan = ActionPlan(A, params.p, params.N, 0, f, scheme="direct")
    return plan.evaluate(params.tau)


def G_action(A: BandedOperator, params: ApproxParams, f) -> np.ndarray:
    """Accelerated action; ell = 0 falls back to g_action bit-for-bit."""
    if params.ell == 0:
        return g_action(A, params, f)
    plan = ActionPlan(A, params.p, params.N, params.ell, f)
    return plan.evaluate(params.tau)


_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)


def _expm_dense(M: np.ndarray) -> np.ndarray:
    """Degree-13 diagonal Pade approximant with scaling and squaring."""
    n = M.shape[0]
    norm = float(np.abs(M).sum(axis=0).max()) if n else 0.0
    squarings = 0
    if norm > PADE_THETA:
        squarings = max(0, math.ceil(math.log2(norm / PADE_THETA)))
    Ms = M / 2.0 ** squarings
    b = _PADE13
    eye = np.eye(n)
    M2 = Ms @ Ms
    M4 = M2 @ M2
    M6 = M2 @ M4
    U = Ms @ (M6 @ (b[13] * M6 + b[11] * M4 + b[9] * M2)
              + b[7] * M6 + b[5] * M4 + b[3] * M2 + b[1] * eye)
    V = (M6 @ (b[12] * M6 + b[10] * M4 + b[8] * M2)
         + b[6] * M6 + b[4] * M4 + b[2] * M2 + b[0] * eye)
    F = np.linalg.solve(V - U, V + U)
    for _ in range(squarings):
        F = F @ F
    return F


def _phi1_dense(M: np.ndarray) -> np.ndarray:
    """phi_1(M) = sum_k M^k / (k+1)!, read off the augmented exponential.

    exp([[M, I], [0, 0]]) carries phi_1(M) in its upper-right block, which
    avoids forming e^M - I as a difference of nearly equal matrices.
    """
    n = M.shape[0]
    B = np.zeros((2 * n, 2 * n))
    B[:n, :n] = M
    B[:n, n:] = np.eye(n)
    return _expm_dense(B)[:n, n:]


def _phi1_solve(M: np.ndarray, taus, v: np.ndarray) -> list:
    """phi_1(M)^{-1} e^{tau M} v for each tau, with phi_1(M) formed once.

    The same function of M as (e^M - I)^{-1} e^{tau M} M v, but accurate
    (and defined) when the spectrum clusters at the removable singularity,
    where e^M - I cancels catastrophically.
    """
    phi = _phi1_dense(M)
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
    is formed once and the result has shape tau.shape + (s,).  A
    non-finite result raises FloatingPointError.
    """
    if A.dimension > DENSE_CAP:
        raise ValueError(
            f"dense reference capped at dimension {DENSE_CAP}")
    f = np.asarray(f, dtype=float)
    if f.shape != (A.dimension,):
        raise ValueError(f"f has shape {f.shape}, expected ({A.dimension},)")
    taus = np.asarray(tau, dtype=float)
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


def _q_weights(taus: np.ndarray, lam: np.ndarray, coeffs) -> np.ndarray:
    """q(tau, lam) * coeffs, one row per tau and one column per eigenvalue.

    Re lam <= 0 uses e^{tau lam} lam / expm1(lam), with the removable value
    1 at lam == 0; Re lam > 0 uses e^{(tau - 1) lam} lam / -expm1(-lam),
    the same q without the overflow of e^{tau lam}.
    """
    grow = lam.real > 0
    ratio = np.ones_like(lam)   # the removable value at lam == 0
    decay = (lam != 0) & ~grow
    ratio[decay] = lam[decay] / np.expm1(lam[decay])
    ratio[grow] = lam[grow] / -np.expm1(-lam[grow])
    exponent = np.multiply.outer(taus, lam)
    exponent[:, grow] = np.multiply.outer(taus - 1.0, lam[grow])
    return np.exp(exponent) * (ratio * coeffs)


def spectral_reference(A: BandedOperator, tau, f) -> np.ndarray:
    """q(tau, A) f in closed form from the eigenvalues of A.

    A circulant (see _circulant_column) with first column c is
    diagonalized by the DFT, so with lam = fft(c)
    q(tau, A) f = ifft(q(tau, lam) fft(f)), at any dimension.  A
    tridiagonal A with sub[i] * sup[i] > 0 for every i is diagonally
    similar to the symmetric S = D^-1 A D, so with S = Q Lambda Q^T
    q(tau, A) f = D Q q(tau, Lambda) Q^T D^-1 f, up to SPECTRAL_CAP.
    log D is a centred cumulative sum, so D stays finite on strongly
    stretched grids.  tau may be an array: the result has shape
    tau.shape + (s,), and every tau costs one row of a single inverse FFT
    or GEMM.  Any other A raises ValueError.
    """
    s = A.dimension
    f = np.asarray(f, dtype=float)
    if f.shape != (s,):
        raise ValueError(f"f has shape {f.shape}, expected ({s},)")
    taus = np.asarray(tau, dtype=float)
    column = _circulant_column(A)
    if column is not None:
        weights = _q_weights(taus.ravel(), np.fft.fft(column), np.fft.fft(f))
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
    d = np.exp(logd - 0.5 * (logd.max() + logd.min()))
    off = np.sign(A.sup) * np.sqrt(A.sub * A.sup)
    S = BandedOperator.tridiagonal(off, A.diag, off).to_dense()
    lam, Q = np.linalg.eigh(S)
    weights = _q_weights(taus.ravel(), lam, Q.T @ (f / d))
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
        line = fh.readline()
        while line and (line.startswith("%") or not line.strip()):
            line = fh.readline()
        try:
            rows, cols, nnz = (int(t) for t in line.split())
        except ValueError as exc:
            raise ValueError(f"{path}: malformed size line") from exc
        if rows != cols:
            raise ValueError(f"{path}: only square matrices are supported")
        entries = {}   # (i, j) -> value; a repeated entry overwrites
        seen = 0
        for line in fh:
            line = line.strip()
            if not line or line.startswith("%"):
                continue
            i_s, j_s, v_s = line.split()[:3]
            i, j, v = int(i_s) - 1, int(j_s) - 1, float(v_s)
            if not (0 <= i < rows and 0 <= j < rows):
                raise ValueError(f"{path}: entry {line!r} is out of range")
            entries[i, j] = v
            if symmetry == "symmetric":
                entries[j, i] = v
            seen += 1
        if seen != nnz:
            raise ValueError(f"{path}: expected {nnz} entries, found {seen}")
    entries = {ij: v for ij, v in entries.items() if v}
    s = rows
    slot = {(0, s - 1): 0, (s - 1, 0): 1} if s >= 3 else {}
    if s and all(abs(i - j) <= 1 or (i, j) in slot for i, j in entries):
        bands = (np.zeros(s - 1), np.zeros(s), np.zeros(s - 1))
        corners = [0.0, 0.0]
        for (i, j), v in entries.items():
            if (i, j) in slot:
                corners[slot[i, j]] = v
            else:
                bands[j - i + 1][min(i, j)] = v
        return BandedOperator.tridiagonal(*bands, corners=corners)
    M = np.zeros((s, s))
    for (i, j), v in entries.items():
        M[i, j] = v
    return BandedOperator.dense(M)


def load_tridiagonal(path) -> BandedOperator:
    """Read the compact three-column (sub, diag, super) text format.

    One row per matrix row; the unused first sub and last super entries
    are ignored.
    """
    data = np.loadtxt(path, ndmin=2)
    if data.ndim != 2 or data.shape[1] != 3:
        raise ValueError(f"{path}: expected exactly three columns")
    return BandedOperator.tridiagonal(data[1:, 0], data[:, 1], data[:-1, 2])
