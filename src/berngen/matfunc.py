"""Matrix-argument actions q(tau, A) f through banded shifted solves."""

from __future__ import annotations

import copy
import math
import operator

import numpy as np

from .acceleration import build_triangle, pair_weights
from .bernoulli import eval_bernoulli, shared_table
from .fourier import TWO_PI, ApproxParams, _check_order, parity_signs

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
        if self._dense is not None:
            return self._dense @ v
        y = self.diag * v
        if self.dimension > 1:
            y[1:] += self.sub * v[:-1]
            y[:-1] += self.sup * v[1:]
        if self.corners is not None:
            y[0] += self.corners[0] * v[-1]
            y[-1] += self.corners[1] * v[0]
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


def _tridiagonal_solve(dl: list, d: list, du: list, b: list) -> np.ndarray:
    """Gaussian elimination with partial pivoting on a tridiagonal system.

    dl, d, du are the sub-, main and super-diagonals (lengths n-1, n, n-1);
    d is overwritten.  Rows i and i+1 swap when |dl[i]| > |d[i]|, the
    row interchanges of LAPACK gtsv; a swap fills the second
    superdiagonal du2.  A zero pivot raises LinAlgError.
    """
    n = len(d)
    du = du + [0.0]
    du2 = [0.0] * n
    x = b + [0.0, 0.0]
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            if d[i] == 0:
                raise np.linalg.LinAlgError(
                    f"shifted system is singular at column {i}")
            m = dl[i] / d[i]
            d[i + 1] -= m * du[i]
            x[i + 1] -= m * x[i]
        else:
            m = d[i] / dl[i]
            d[i], d[i + 1], du[i] = dl[i], du[i] - m * d[i + 1], d[i + 1]
            du2[i] = du[i + 1]
            du[i + 1] = -m * du2[i]
            x[i], x[i + 1] = x[i + 1], x[i] - m * x[i + 1]
    if d[n - 1] == 0:
        raise np.linalg.LinAlgError(
            f"shifted system is singular at column {n - 1}")
    for i in range(n - 1, -1, -1):
        x[i] = (x[i] - du[i] * x[i + 1] - du2[i] * x[i + 2]) / d[i]
    return np.array(x[:n])


def _periodic_solve(A: BandedOperator, t: float, b: np.ndarray) -> np.ndarray:
    """Solve (A - i t I) y = b for a periodic tridiagonal A.

    A - i t I is T + u v^T with u = (g, 0, ..., 0, A[s-1, 0]),
    v = (1, 0, ..., 0, A[0, s-1] / g) and g = -(A[0, 0] - i t), so T is
    tridiagonal and differs only in T[0, 0] and T[s-1, s-1] (Temperton
    1975).  With z = T^-1 u, Sherman-Morrison gives
    y = w - (v.w) / (1 + v.z) z for w = T^-1 b.  T can be far worse
    conditioned than A - i t I, so a y whose normwise backward error
    exceeds machine epsilon takes one step of iterative refinement, which
    reuses z.  A vanishing 1 + v.z, or a zero pivot of T, raises
    LinAlgError.
    """
    top, bottom = A.corners
    dl, du = A.sub.tolist(), A.sup.tolist()
    d = [complex(v, -t) for v in A.diag.tolist()]
    g = -d[0]
    d[0] -= g
    d[-1] -= top * bottom / g
    z = _tridiagonal_solve(dl, list(d), du,
                           [g] + [0.0] * (len(d) - 2) + [bottom])
    den = 1.0 + z[0] + top / g * z[-1]
    if den == 0:
        raise np.linalg.LinAlgError(
            "shifted system is singular: the Sherman-Morrison denominator "
            "vanishes")

    def solve(rhs):
        w = _tridiagonal_solve(dl, list(d), du, rhs.tolist())
        return w - ((w[0] + top / g * w[-1]) / den) * z

    y = solve(b)
    r = b - A.matvec(y) + 1j * t * y
    if np.abs(r).sum() > np.finfo(float).eps * (
            (A.norm1() + t) * np.abs(y).sum() + np.abs(b).sum()):
        y += solve(r)
    return y


def shifted_solve(A: BandedOperator, k: int, b) -> np.ndarray:
    """Solve (A^2 + (2 pi k)^2 I) x = b, k an integer, by one complex solve.

    For real A and b and t = 2 pi k, (A - i t I)^{-1} b = A x + i t x, so
    x is the imaginary part over t and A^2 is never formed.  Tridiagonal
    operators use the pivoted elimination above, periodic ones its
    Sherman-Morrison correction, dense ones numpy's LU.
    """
    if operator.index(k) < 1:
        raise ValueError("k must be >= 1")
    t = TWO_PI * k
    b = np.asarray(b, dtype=float)
    if b.shape != (A.dimension,):
        raise ValueError(
            f"right-hand side has shape {b.shape}, expected ({A.dimension},)")
    if A._dense is not None:
        y = np.linalg.solve(A.to_dense() - 1j * t * np.eye(A.dimension), b)
    elif A.corners is None:
        y = _tridiagonal_solve(A.sub.tolist(),
                               [complex(v, -t) for v in A.diag.tolist()],
                               A.sup.tolist(), b.tolist())
    else:
        y = _periodic_solve(A, t, b)
    return y.imag / t


def h_action(A: BandedOperator, p: int, tau: float, f) -> np.ndarray:
    """Horner evaluation of the polynomial part on a vector.

    Uses only matrix-vector products: sum_{k<p} B_k(tau) A^k / k! applied
    to f.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    table = shared_table(p - 1)
    f = np.asarray(f, dtype=float)
    v = (eval_bernoulli(table, p - 1, tau) / math.factorial(p - 1)) * f
    for k in range(p - 2, -1, -1):
        v = A.matvec(v) + (eval_bernoulli(table, k, tau)
                           / math.factorial(k)) * f
    return v


class ActionPlan:
    """tau-independent mode data for evaluating q(tau, A) f.

    One construction performs exactly N + 2*ell shifted solves and keeps
    them; evaluate() may then be called for any number of tau values
    without further solves, and view() derives plans of other orders and
    depths on the same (A, f), solving only the modes this plan lacks.

    scheme 'direct' mirrors the classical construction (solve, then apply
    the full w-power); its noise grows like ||A||^p and it is kept as the
    baseline whose blow-up the error tables document.  scheme 'stabilized'
    rebuilds A^2 x_k as f - (2 pi k)^2 x_k so every mode vector stays
    O(1); it is the default and the one the accelerated evaluation uses.
    """

    def __init__(self, A: BandedOperator, p: int, N: int, ell: int, f,
                 scheme: str = "stabilized"):
        self.A = A
        self.f = np.asarray(f, dtype=float)
        self._solves = []
        self._build(p, N, ell, scheme)

    def view(self, p: int, N: int, ell: int,
             scheme: str = "stabilized") -> "ActionPlan":
        """A plan on the same (A, f) that reuses this plan's solves.

        Only modes beyond this plan's are solved, and only those count in
        the view's solve_count; this plan is left unchanged.
        """
        plan = copy.copy(self)
        plan._solves = list(self._solves)
        plan._build(p, N, ell, scheme)
        return plan

    def _build(self, p: int, N: int, ell: int, scheme: str) -> None:
        _check_order(p, N, ell)
        if scheme not in ("stabilized", "direct"):
            raise ValueError(f"unknown scheme {scheme!r}")
        A, f = self.A, self.f
        self.p, self.N, self.ell = p, N, ell
        have = len(self._solves)
        for k in range(have + 1, N + 2 * ell + 1):
            self._solves.append(shifted_solve(A, k, f))
        self.solve_count = len(self._solves) - have
        # rows 0..N-1 hold the mode vectors of modes 1..N, rows N.. the
        # triangle pairs a_1, b_1, ..., a_ell, b_ell of modes N..N+2 ell
        G = np.empty((N + 2 * ell, A.dimension))
        D = np.empty_like(G)
        for k, x in enumerate(self._solves[:N + 2 * ell], 1):
            tk = TWO_PI * k
            # (u, v) = (A^j x, A^{j+1} x), advanced to j = p; the
            # stabilized start rebuilds A^2 x_k as f - tk^2 x_k, kept O(1),
            # and forms A x only for p = 1: any later advance discards it
            if scheme == "direct":
                j, u, v = 0, x, A.matvec(x)
            else:
                j, u, v = 1, A.matvec(x) if p == 1 else None, f - tk ** 2 * x
            for _ in range(j, p):
                u, v = v, A.matvec(v)
            gv, dv = u / tk ** (p - 2), v / tk ** (p - 1)
            if p % 2:
                gv, dv = dv, gv
            G[k - 1], D[k - 1] = gv, dv
        if ell:
            for rows in (G, D):
                rows[N:] = build_triangle(rows[N - 1:], ell).pairs()
        self._G, self._D = G, D

    def evaluate(self, tau: float) -> np.ndarray:
        """q(tau, A) f from the stored rows (no solves).

        One weight row per family times its (N + 2 ell, s) array, after
        the p - 1 matvecs of the polynomial part.
        """
        if not 0.0 <= tau <= 1.0:
            raise ValueError("tau must lie in [0, 1]")
        sc, ss = parity_signs(self.p)
        gw, dw = pair_weights(self.N, self.ell, tau)
        angles = [TWO_PI * k * tau for k in range(1, self.N + 1)]
        cw = np.array([math.cos(a) for a in angles] + gw)
        sw = np.array([math.sin(a) for a in angles] + dw)
        return h_action(self.A, self.p, tau, self.f) + 2.0 * (
            sc * (cw @ self._G) + ss * (sw @ self._D))


def g_action(A: BandedOperator, params: ApproxParams, f) -> np.ndarray:
    """Classical truncated mode sum applied to f.

    Kept on the 'direct' scheme deliberately: its ||A||^p noise growth is
    the instability the error tables document.
    """
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
