"""Closed-form oracle for q(tau, A) f on the uniform-grid heat operator.

The three-point Dirichlet Laplacian with spacing h on s interior nodes has
eigenvalues lambda_j = -(4 / h^2) sin^2(j pi / (2 (s + 1))) and orthonormal
sine eigenvectors v_j(i) = sqrt(2 / (s + 1)) sin(i j pi / (s + 1)), so

    q(tau, A) f = V q(tau, Lambda) V^T f,  q(tau, w) = w e^{w tau} / expm1(w),

with V applied as a DST-I.  It shares no code with berngen and works at
any s, including above the dense oracles' DENSE_CAP.
"""

from __future__ import annotations

import numpy as np


def dst1(x: np.ndarray) -> np.ndarray:
    """DST-I along the last axis: y_k = sum_i x_i sin(pi i k / (n + 1)).

    Computed from the FFT of the odd extension of length 2 (n + 1).
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    ext = np.zeros(x.shape[:-1] + (2 * (n + 1),))
    ext[..., 1:n + 1] = x
    ext[..., n + 2:] = -x[..., ::-1]
    return -np.fft.rfft(ext, axis=-1)[..., 1:n + 1].imag / 2.0


class HeatOracle:
    """q(tau, A) f for A the Dirichlet Laplacian with spacing h, size s."""

    def __init__(self, h: float, s: int, f: np.ndarray):
        j = np.arange(1, s + 1)
        theta = j * np.pi / (2 * (s + 1))
        self.eigenvalues = -(4.0 / h ** 2) * np.sin(theta) ** 2
        self._scale = np.sqrt(2.0 / (s + 1))
        self._coeffs = self._scale * dst1(f)  # V^T f
        self._denominators = np.expm1(self.eigenvalues)

    def solution(self, tau: float) -> np.ndarray:
        lam = self.eigenvalues
        q = lam * np.exp(tau * lam) / self._denominators
        return self._scale * dst1(q * self._coeffs)
