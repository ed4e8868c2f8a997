"""Krylov-subspace baseline for q(tau, A) f."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matfunc import BandedOperator, _phi1_solve

#: happy-breakdown threshold, relative to ||A||_1
BREAKDOWN_RTOL = 1e-14


@dataclass(frozen=True)
class KrylovDecomposition:
    """Arnoldi factorization A V_j = V_{j+1} H_{j+1,j} (modified Gram-Schmidt).

    V has j (or j+1) orthonormal columns, H is the (j+1) x j upper
    Hessenberg matrix of recurrence coefficients, beta = ||f||_2.  When
    breakdown is set the subspace became invariant at step j and V has
    only j columns.
    """

    V: np.ndarray
    H: np.ndarray
    beta: float
    j: int
    breakdown: bool


def arnoldi_extend(A: BandedOperator, f, j: int) -> KrylovDecomposition:
    """Run j Arnoldi steps from starting vector f, one modified
    Gram-Schmidt sweep per step."""
    if j < 1:
        raise ValueError("j must be >= 1")
    if j > A.dimension:
        raise ValueError("j cannot exceed the operator dimension")
    f = np.asarray(f, dtype=float)
    beta = float(np.linalg.norm(f))
    if beta == 0.0:
        raise ValueError("starting vector must be nonzero")
    tol = BREAKDOWN_RTOL * A.norm1()
    V = np.zeros((A.dimension, j + 1))
    H = np.zeros((j + 1, j))
    V[:, 0] = f / beta
    for m in range(j):
        w = A.matvec(V[:, m])
        for i in range(m + 1):
            h = float(V[:, i] @ w)
            w -= h * V[:, i]
            H[i, m] = h
        hnext = float(np.linalg.norm(w))
        if hnext <= tol:
            return KrylovDecomposition(V=V[:, :m + 1].copy(),
                                       H=H[:m + 1, :m + 1].copy(),
                                       beta=beta, j=m + 1, breakdown=True)
        H[m + 1, m] = hnext
        V[:, m + 1] = w / hnext
    return KrylovDecomposition(V=V, H=H, beta=beta, j=j, breakdown=False)


def arnoldi_q_approx(dec: KrylovDecomposition, tau: float) -> np.ndarray:
    """Project q(tau, A) f onto the Krylov basis.

    Evaluates V_j phi_1(H_j)^{-1} e^{tau H_j} (beta e_1) on the small j x j
    Hessenberg matrix, with the dense kernel of reference_solution; both
    Pade exponentials work on j x j blocks, phi_1 without forming the
    2j x 2j augmented matrix.
    """
    j = dec.j
    e1 = np.zeros(j)
    e1[0] = dec.beta
    y, = _phi1_solve(dec.H[:j, :j], [tau], e1)
    return dec.V[:, :j] @ y


def orthogonality_loss(dec: KrylovDecomposition) -> float:
    """Frobenius distance of V^T V from the identity."""
    V = dec.V
    G = V.T @ V
    return float(np.linalg.norm(G - np.eye(G.shape[0])))
