"""Grids and operators for the non-local boundary-value test problems."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .acceleration import _data_lines
from .matfunc import BandedOperator, _real


@dataclass(frozen=True)
class Grid:
    """Interior nodes of (0, a) plus the endpoints 0 and a.

    nodes holds all s + 2 points in increasing order; the discretized
    operator acts on the s interior values only.
    """

    nodes: np.ndarray

    def __post_init__(self):
        nodes = _real(self.nodes, "grid nodes")
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.shape[0] < 3:
            raise ValueError("grid needs at least one interior node")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("grid nodes must be strictly increasing")

    @property
    def interior_size(self) -> int:
        return self.nodes.shape[0] - 2


def uniform_grid(a: float, s: int) -> Grid:
    """s interior nodes equally spaced in (0, a)."""
    if a <= 0:
        raise ValueError("interval length must be positive")
    if s < 1:
        raise ValueError("need at least one interior node")
    return Grid(nodes=np.linspace(0.0, a, s + 2))


def geometric_grid(x1: float, sigma: float, s: int) -> Grid:
    """Geometrically stretched interior nodes x_{i+1} = x_i (1 + sigma h_i).

    Starts from x_1 = x1 with h_1 = x1; each spacing is the previous one
    scaled by sigma, so sigma > 1 concentrates nodes near the left
    endpoint relative to the right.  The spacings are a running product
    and the nodes a running sum, both accumulated left to right.
    """
    if x1 <= 0:
        raise ValueError("first node must be positive")
    if sigma <= 0:
        raise ValueError("stretch factor must be positive")
    if s < 1:
        raise ValueError("need at least one interior node")
    spacings = np.cumprod(np.r_[x1, np.full(s, sigma, dtype=float)])
    return Grid(nodes=np.r_[0.0, np.cumsum(spacings)])


def discretize_laplacian(grid: Grid) -> BandedOperator:
    """Second difference on the interior nodes with zero boundary values.

    On a non-uniform grid row i uses the three-point formula
    u''(x_i) ~ 2 [ u_{i-1}/(h_i (h_i + h_{i+1}))
                 - u_i/(h_i h_{i+1})
                 + u_{i+1}/(h_{i+1} (h_i + h_{i+1})) ]
    with h_i = x_i - x_{i-1}.
    """
    if grid.interior_size < 2:
        raise ValueError("discretization needs at least two interior nodes")
    x = grid.nodes
    hl = x[1:-1] - x[:-2]   # h_i, spacing to the left of node i
    hr = x[2:] - x[1:-1]    # h_{i+1}
    diag = -2.0 / (hr * hl)
    sub = 2.0 / (hl[1:] * (hl[1:] + hr[1:]))
    sup = 2.0 / (hr[:-1] * (hl[:-1] + hr[:-1]))
    return BandedOperator.tridiagonal(sub, diag, sup)


def circulant_shift(s: int, scale: float) -> BandedOperator:
    """scale times the cyclic down-shift permutation of size s.

    Column i maps to row (i + 1) mod s; all eigenvalues lie on the
    circle of radius |scale|, making it a stiff test away from symmetric
    spectra.  Stored as a periodic tridiagonal: the subdiagonal plus the
    corner A[0, s-1], which for s = 2 is the superdiagonal.
    """
    if s < 2:
        raise ValueError("shift needs dimension >= 2")
    shift = np.full(s - 1, float(scale))
    if s == 2:
        return BandedOperator.tridiagonal(shift, np.zeros(2), shift)
    return BandedOperator.tridiagonal(shift, np.zeros(s), np.zeros(s - 1),
                                      corners=(scale, 0.0))


def save_grid(grid: Grid, path) -> None:
    """One node per line, full double precision."""
    np.savetxt(path, grid.nodes, fmt="%.17g")


def load_grid(path) -> Grid:
    """Read nodes written by save_grid; a file with no data row raises
    ValueError."""
    return Grid(nodes=np.loadtxt(_data_lines(path), ndmin=1))
