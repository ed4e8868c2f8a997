"""Fourier-accelerated evaluation of the Bernoulli generating function
q(tau, w) = w e^{w tau} / (e^w - 1), as a scalar and as a matrix action."""

from .bernoulli import (BernoulliTable, build_bernoulli_table,
                        eval_bernoulli, lanczos_polynomial, shared_table)
from .fourier import (ApproxParams, ModeCoefficients, PoleProximityError,
                      check_pole, delta_of_N, fourier_partial, g_approx,
                      hat_coefficients, lanczos_coefficients, parity_signs,
                      reference_q, residual_l2)
from .acceleration import (CoefficientTriangle, CorrectionTerm, G_approx,
                           TauEndpointError, build_triangle, correction,
                           leading_error_term, load_exp_approximant,
                           q0_shift)
from .matfunc import (ActionPlan, BandedOperator, G_action, g_action,
                      h_action, load_matrix_market, load_tridiagonal,
                      reference_solution, shifted_solve, spectral_reference)
from .arnoldi import (KrylovDecomposition, arnoldi_extend, arnoldi_q_approx,
                      orthogonality_loss)
from .bvp import (Grid, circulant_shift, discretize_laplacian,
                  geometric_grid, load_grid, save_grid, uniform_grid)

__version__ = "0.1.0"

__all__ = [
    "ActionPlan", "ApproxParams", "BandedOperator", "BernoulliTable",
    "CoefficientTriangle", "CorrectionTerm", "G_action", "G_approx", "Grid",
    "KrylovDecomposition", "ModeCoefficients", "PoleProximityError",
    "TauEndpointError", "arnoldi_extend", "arnoldi_q_approx",
    "build_bernoulli_table", "build_triangle", "check_pole", "circulant_shift",
    "correction", "delta_of_N", "discretize_laplacian", "eval_bernoulli",
    "fourier_partial", "g_action", "g_approx", "geometric_grid", "h_action",
    "hat_coefficients", "lanczos_coefficients", "lanczos_polynomial",
    "leading_error_term", "load_exp_approximant", "load_grid",
    "load_matrix_market", "load_tridiagonal", "orthogonality_loss",
    "parity_signs", "q0_shift", "reference_q", "reference_solution",
    "residual_l2", "save_grid", "shared_table", "shifted_solve",
    "spectral_reference", "uniform_grid",
]
