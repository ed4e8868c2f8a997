"""Grids, the nonuniform Laplacian stencil, and the circulant test matrix."""

import math
import warnings

import numpy as np
import pytest

from berngen.bvp import (Grid, circulant_shift, discretize_laplacian,
                         geometric_grid, load_grid, save_grid, uniform_grid)


class TestGrids:
    def test_uniform_construction(self):
        grid = uniform_grid(24.0, 512)
        assert grid.interior_size == 512
        assert grid.nodes[-1] == 24.0
        assert grid.nodes[0] == 0.0
        h = 24.0 / 513.0
        assert abs(grid.nodes[1] - h) < 1e-15

    def test_geometric_construction(self):
        grid = geometric_grid(0.01, 1.005, 512)
        assert grid.interior_size == 512
        assert grid.nodes[0] == 0.0
        assert abs(grid.nodes[1] - 0.01) < 1e-17
        assert abs(grid.nodes[2] - 0.02005) < 1e-15
        assert 23.0 < grid.nodes[-1] < 24.5

    @pytest.mark.parametrize("x1, sigma, s", [
        (0.01, 1.005, 1), (0.01, 1.005, 2), (0.01, 1.005, 512),
        (0.01, 1.005, 2048), (0.01, 1.0 + 8.0 / 2 ** 16, 2 ** 16),
        (0.3, 0.9, 40), (0.5, 0.25, 7)])
    def test_geometric_nodes_match_the_running_loop(self, x1, sigma, s):
        """Every node is the left-to-right loop's, bit for bit: spacings
        h_i = h_(i-1) sigma and nodes x_i = x_(i-1) + h_i."""
        nodes = [0.0, x1]
        h = x1
        for _ in range(s):
            h *= sigma
            nodes.append(nodes[-1] + h)
        assert np.array_equal(geometric_grid(x1, sigma, s).nodes, nodes)

    def test_validation(self):
        with pytest.raises(ValueError):
            uniform_grid(-1.0, 8)
        with pytest.raises(ValueError):
            uniform_grid(1.0, 0)
        with pytest.raises(ValueError):
            geometric_grid(0.0, 1.005, 8)
        with pytest.raises(ValueError):
            geometric_grid(0.01, 0.0, 8)
        with pytest.raises(ValueError):
            geometric_grid(0.01, 1.005, 0)
        with pytest.raises(ValueError):
            Grid(nodes=np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            Grid(nodes=np.array([0.0, 0.5, 0.4, 1.0]))


    @pytest.mark.parametrize("nodes", [[0.0, 0.5 + 0j, 1.0],
                                       [0.0, 0.5, 1.0 + 1j]])
    def test_complex_nodes_refused(self, nodes):
        """numpy would drop the imaginary part with only a ComplexWarning."""
        with pytest.raises(TypeError, match="grid nodes must be real"):
            Grid(nodes=np.array(nodes))

    @pytest.mark.parametrize("nodes", [[0.0, 0.5, np.inf],
                                       [-np.inf, 0.5, 1.0],
                                       [0.0, np.nan, 1.0]])
    def test_non_finite_nodes_refused(self, nodes):
        """An infinite end node used to pass as strictly increasing, and a
        NaN was refused as out of order."""
        with pytest.raises(ValueError, match="grid nodes must be finite"):
            Grid(nodes=np.array(nodes))


class TestLaplacian:
    def test_two_point_stencil_exact(self):
        grid = Grid(nodes=np.array([0.0, 1.0, 2.0, 3.0]) / 3.0)
        M = discretize_laplacian(grid).to_dense()
        expect = np.array([[-18.0, 9.0], [9.0, -18.0]])
        assert np.abs(M - expect).max() < 1e-12

    def test_uniform_matches_classic_formula(self):
        grid = uniform_grid(1.0, 3)
        A = discretize_laplacian(grid)
        assert np.allclose(A.diag, -32.0, atol=1e-11)
        assert np.allclose(A.sub, 16.0, atol=1e-11)
        assert np.allclose(A.sup, 16.0, atol=1e-11)

    def test_symmetry_flags(self):
        """Exactly representable spacings give an exactly symmetric
        operator; a geometric grid does not."""
        exact = discretize_laplacian(
            Grid(nodes=0.25 * np.arange(34.0))).to_dense()
        assert np.array_equal(exact, exact.T)
        geo = discretize_laplacian(geometric_grid(0.01, 1.005, 32)).to_dense()
        assert not np.array_equal(geo, geo.T)

    def test_second_order_consistency(self):
        """Applying the stencil to sin(pi x / a) approaches its second
        derivative at second order in h."""
        a = 1.0
        errs = []
        for s in (32, 64):
            grid = uniform_grid(a, s)
            A = discretize_laplacian(grid)
            x = grid.nodes[1:-1]
            u = np.sin(math.pi * x / a)
            exact = -(math.pi / a) ** 2 * u
            errs.append(np.abs(A.matvec(u) - exact).max())
        assert errs[0] <= 0.01
        assert 3.7 <= errs[0] / errs[1] <= 4.3

    def test_negative_definite_on_uniform_grid(self):
        A = discretize_laplacian(uniform_grid(2.0, 16))
        eigs = np.linalg.eigvalsh(A.to_dense())
        assert eigs.max() < 0.0

    def test_stiff_grid_spectrum(self):
        """Frozen spectral extremes of the stretched-grid operator."""
        A = discretize_laplacian(geometric_grid(0.01, 1.005, 512))
        eigs = np.linalg.eigvals(A.to_dense())
        assert np.abs(eigs.imag).max() < 1e-8
        lo, hi = eigs.real.min(), eigs.real.max()
        assert abs(lo - (-37541.797)) < 1e-4 * 37541.797
        assert abs(hi - (-0.0173716)) < 1e-4 * 0.0173716

    def test_needs_two_interior_nodes(self):
        grid = uniform_grid(1.0, 1)
        with pytest.raises(ValueError):
            discretize_laplacian(grid)


class TestCirculantShift:
    def test_structure(self):
        C = circulant_shift(4, 2.0)
        expect = np.array([[0.0, 0.0, 0.0, 2.0],
                           [2.0, 0.0, 0.0, 0.0],
                           [0.0, 2.0, 0.0, 0.0],
                           [0.0, 0.0, 2.0, 0.0]])
        assert np.array_equal(C.to_dense(), expect)
        assert not C.is_tridiagonal

    def test_eigenvalues_on_circle(self):
        C = circulant_shift(12, 1e-8)
        eigs = np.linalg.eigvals(C.to_dense())
        assert np.allclose(np.abs(eigs), 1e-8, rtol=1e-10)

    def test_power_returns_scaled_identity(self):
        """s = 2 stores the shift as both off-diagonals, with no corner."""
        scale = 0.5
        for s in (6, 2):
            C = circulant_shift(s, scale).to_dense()
            P = np.linalg.matrix_power(C, s)
            assert np.allclose(P, scale ** s * np.eye(s), atol=1e-18)

    def test_dimension_validated(self):
        with pytest.raises(ValueError):
            circulant_shift(1, 1.0)


class TestGridFiles:
    def test_uniform_round_trip(self, tmp_path):
        grid = uniform_grid(24.0, 100)
        path = tmp_path / "grid.txt"
        save_grid(grid, str(path))
        back = load_grid(str(path))
        assert np.array_equal(back.nodes, grid.nodes)

    @pytest.mark.parametrize("nodes", ["0.5\n", "0\n1\n"])
    def test_too_few_nodes(self, tmp_path, nodes):
        path = tmp_path / "grid.txt"
        path.write_text(nodes)
        with pytest.raises(ValueError, match="at least one interior node"):
            load_grid(str(path))

    @pytest.mark.parametrize("text", ["", "# no nodes\n\n"],
                             ids=["empty", "comments-only"])
    def test_file_without_data_refused(self, tmp_path, text):
        """An empty or comment-only file is refused as one, by a message
        that names it, and numpy warns of nothing."""
        path = tmp_path / "grid.txt"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match=r"grid\.txt: the file holds no data"):
                load_grid(str(path))

    @pytest.mark.parametrize("text", ["0\n0.5\ninf\n", "0\nnan\n1\n",
                                      "-inf\n0\n1\n"])
    def test_non_finite_node_refused(self, tmp_path, text):
        path = tmp_path / "grid.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match="grid nodes must be finite"):
            load_grid(str(path))

    def test_geometric_round_trip(self, tmp_path):
        grid = geometric_grid(0.01, 1.005, 100)
        path = tmp_path / "grid.txt"
        save_grid(grid, str(path))
        back = load_grid(str(path))
        assert np.array_equal(back.nodes, grid.nodes)
