"""Each input gate returns the value it checked as a Python number, and the
code below it computes only with that value: a numpy integer order, a
np.float32 tau or alpha takes the arithmetic of the Python number it
stands for, bit for bit, and a complex where a real belongs is refused."""

import csv
import io
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import berngen
from berngen.acceleration import G_approx, correction, q0_shift
from berngen.arnoldi import arnoldi_extend, arnoldi_q_approx
from berngen.bernoulli import eval_bernoulli, lanczos_polynomial, shared_table
from berngen.bvp import Grid, discretize_laplacian, uniform_grid
from berngen.fourier import (ApproxParams, check_pole, delta_of_N, g_approx,
                             lanczos_coefficients, reference_q, residual_l2)
from berngen.matfunc import (BandedOperator, _real, shifted_solve,
                             spectral_reference)

W = -3.0 + 20.0j
TAU32 = np.float32(0.3)


def _hex(value) -> list:
    """float.hex of the real and imaginary part of every number in a
    possibly nested result."""
    if isinstance(value, (tuple, list)):
        return [_hex(v) for v in value]
    z = complex(value)
    return [z.real.hex(), z.imag.hex()]


def _scalar_results(p) -> list:
    """The six scalar functions of order p at w = W; each call forms every
    power it uses itself."""
    calls = [
        lambda: G_approx(ApproxParams(p=p, N=40, tau=0.3, w=W, ell=2)),
        lambda: g_approx(ApproxParams(p=p, N=40, tau=0.3, w=W)),
        lambda: q0_shift(W, params=ApproxParams(p=p, N=40, tau=0.5, ell=2)),
        lambda: correction(p, 40, 2, 0.3, W),
        lambda: [lanczos_coefficients(p, k, W) for k in range(1, 60)],
        lambda: residual_l2(p, W, 40, 400),
    ]
    return [_hex(call()) for call in calls]


class TestNumpyOrders:
    """A numpy integer p, N or K is the Python int it equals."""

    @pytest.mark.parametrize("int_type", [np.int64, np.int32])
    @pytest.mark.parametrize("p", [6, 24, 65])
    def test_scalar_functions_take_the_int_arithmetic(self, p, int_type):
        """A numpy order used to run numpy's complex and float powers: at
        p = 65, G_approx moved by 3.4 %."""
        assert _scalar_results(int_type(p)) == _scalar_results(p)

    @pytest.mark.parametrize("int_type", [np.int64, np.int32])
    @pytest.mark.parametrize("N", [15, 55, 65])
    def test_delta_of_N_takes_the_int_power(self, N, int_type):
        """np.int64(N) ** 3.5 != N ** 3.5 at these N."""
        got = delta_of_N(1.0, int_type(N), int_type(4 * N))
        assert got.hex() == delta_of_N(1.0, N, 4 * N).hex()

    def test_params_store_python_numbers(self):
        params = ApproxParams(p=np.int64(6), N=np.int32(40),
                              tau=np.float32(0.25), w=np.complex64(W),
                              ell=np.int64(2))
        assert [type(getattr(params, name))
                for name in ("p", "N", "ell", "tau", "w")] == [
                    int, int, int, float, complex]
        params = ApproxParams(p=6, N=40, tau=np.float64(0.25),
                              w=np.float64(-1.0))
        assert type(params.tau) is float and type(params.w) is complex

    def test_shared_table_survives_a_numpy_order(self):
        """A library call with a numpy order in the same process leaves the
        scalar-error CSV of a fresh process unchanged (elapsed_s aside):
        the shared k table used to keep that call's numpy powers, which
        moved 12 of these 80 value cells."""
        command = ("'scalar-error', '--p', '10', '--ell', '0,2', '--tau', "
                   "'0.3', '--points', '40', '--N', '400'")
        library_call = (
            "import numpy as np\n"
            "from berngen.acceleration import G_approx\n"
            "from berngen.fourier import ApproxParams\n"
            "G_approx(ApproxParams(p=np.int64(10), N=400, tau=0.3, w=-1.0,"
            " ell=2))\n")
        run = ("from berngen.cli import main\n"
               f"raise SystemExit(main([{command}]))\n")
        fresh, after = (_csv_cells(_child(prelude + run))
                        for prelude in ("", library_call))
        assert len(fresh) == 80
        assert after == fresh


def _child(source: str) -> str:
    """The stdout of a fresh interpreter that runs source on this berngen."""
    src = os.path.dirname(os.path.dirname(berngen.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", source], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _csv_cells(text: str) -> list:
    """The rows of a CSV report without their elapsed_s cells."""
    return [{key: cell for key, cell in row.items() if key != "elapsed_s"}
            for row in csv.DictReader(io.StringIO(text))]


class TestRealScalars:
    """The scalar entry points without a range gate widen a real number to
    a float and refuse a complex one."""

    def test_reference_q_widens_tau(self):
        """The oracle of every scalar-error cell ran a np.float32 tau in
        single precision: 3e-8 relative."""
        for w in (-2.5, 0.0, 3.0, W):
            assert _hex(reference_q(TAU32, w)) == _hex(
                reference_q(float(TAU32), w))
        with pytest.raises(TypeError):
            reference_q(0.3 + 0.0j, -2.5)

    def test_eval_bernoulli_widens_tau(self):
        table = shared_table()
        for k in range(8):
            got = eval_bernoulli(table, k, TAU32)
            assert type(got) is float
            assert got.hex() == eval_bernoulli(table, k, float(TAU32)).hex()
        assert _hex(lanczos_polynomial(table, 6, TAU32, -2.5)) == _hex(
            lanczos_polynomial(table, 6, float(TAU32), -2.5))
        with pytest.raises(TypeError):
            eval_bernoulli(table, 2, 0.3 + 0.0j)

    def test_q0_shift_widens_alpha(self):
        """1.0 - alpha ran in float32 and alpha * w in complex64."""
        alpha = np.float32(0.1)
        assert _hex(q0_shift(-2.7 + 1.3j, alpha=alpha)) == _hex(
            q0_shift(-2.7 + 1.3j, alpha=float(alpha)))
        with pytest.raises(TypeError):
            q0_shift(-2.7 + 1.3j, alpha=0.1 + 0.0j)


class TestTextRefused:
    """float() and complex() parse a string, so every scalar gate and
    matfunc._real refuse text before converting."""

    @pytest.mark.parametrize("call", [
        lambda: ApproxParams(p=2, N=10, tau=0.3, w="-1"),
        lambda: check_pole("-1"),
        lambda: reference_q(0.3, "-1"),
        lambda: reference_q("0.3", -1.0),
        lambda: lanczos_coefficients(2, 1, "-1"),
        lambda: residual_l2(2, "-1", 10, 20),
        lambda: delta_of_N("1", 512, 2048),
        lambda: ApproxParams(p=2, N=10, tau=0.3, w=-1.0, alpha="0.25"),
        lambda: q0_shift(-1.0, alpha="0.25"),
        lambda: q0_shift(-1.0, alpha=b"0.25"),
        lambda: eval_bernoulli(shared_table(), 2, "0.3"),
        lambda: eval_bernoulli(shared_table(), 2, np.str_("0.3")),
        lambda: eval_bernoulli(shared_table(), 2, np.array("0.3")),
        lambda: lanczos_polynomial(shared_table(), 2, 0.3, "-1"),
        lambda: _real(["1.0", "2.0"], "f"),
        lambda: _real(np.array([b"1.0"]), "f"),
    ], ids=["params-w", "check_pole", "reference_q-w", "reference_q-tau",
            "lanczos_coefficients-w", "residual_l2-w", "delta_of_N-z",
            "params-alpha", "q0_shift-alpha", "q0_shift-alpha-bytes",
            "eval_bernoulli-tau", "eval_bernoulli-np-str",
            "eval_bernoulli-0d-array",
            "lanczos_polynomial-w", "real-str-array", "real-bytes-array"])
    def test_text_is_refused(self, call):
        """Each of these returned a number from the parsed text."""
        with pytest.raises(TypeError, match="not text"):
            call()

    @pytest.mark.parametrize("call", [
        lambda text: shifted_solve(discretize_laplacian(uniform_grid(
            1.0, 4)), 1, np.array([text, 1.0, 1.0, 1.0], dtype=object)),
        lambda text: BandedOperator.tridiagonal(
            np.ones(2), np.array([text, -2.0, -2.0], dtype=object),
            np.ones(2)),
        lambda text: Grid(nodes=np.array([0.0, text, 1.0], dtype=object)),
        lambda text: spectral_reference(
            discretize_laplacian(uniform_grid(1.0, 4)),
            np.array([0.3, text], dtype=object), np.ones(4)),
    ], ids=["f", "operator-bands", "grid-nodes", "oracle-tau"])
    @pytest.mark.parametrize("text", ["0.5", b"0.5"], ids=["str", "bytes"])
    def test_text_in_an_object_array_is_refused(self, call, text):
        """astype(float) parses an object array's strings: each of these
        returned a result or built an object from them."""
        with pytest.raises(TypeError, match="not text"):
            call(text)

    def test_numeric_object_array_converts(self):
        got = _real(np.array([1.5, 2, np.float32(0.5)], dtype=object), "f")
        assert got.dtype == np.float64 and got.tolist() == [1.5, 2.0, 0.5]


class TestAlphaGate:
    """ApproxParams gates and stores alpha, and q0_shift reads it."""

    def test_out_of_range_alpha_refused(self):
        """alpha = 7.0 used to be stored as it came."""
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
            ApproxParams(p=2, N=10, tau=0.3, w=-1.0, alpha=7.0)

    def test_alpha_stored_as_a_float(self):
        params = ApproxParams(p=2, N=10, tau=0.3, alpha=np.float32(0.25))
        assert type(params.alpha) is float and params.alpha == 0.25

    def test_q0_shift_reads_params_alpha(self):
        """q0_shift shifted by its own default 0.125 whatever params.alpha
        said, and returned 1.5819767101962787 here."""
        params = ApproxParams(p=2, N=40, tau=0.5, ell=2, alpha=0.3)
        got = q0_shift(-1.0, params=params)
        assert _hex(got) == _hex(q0_shift(-1.0, 0.3, params=replace(
            params, alpha=0.125)))
        assert abs(got - 1.58197670680061) < 1e-15
        # an explicit alpha wins, and without params alpha is 0.125
        assert _hex(q0_shift(-1.0, 0.125, params=params)) == _hex(
            q0_shift(-1.0, params=replace(params, alpha=0.125)))
        assert _hex(q0_shift(-1.0)) == _hex(q0_shift(-1.0, 0.125))


class TestDeltaOfNIndex:
    """delta_of_N indexes N and K before any range check."""

    @pytest.mark.parametrize("N, K", [(0.5, 8), (2, 3.5), (2.5, 8),
                                      (2, 4.5)])
    def test_float_N_or_K_refused(self, N, K):
        """The first two raised ValueError from the range checks."""
        with pytest.raises(TypeError):
            delta_of_N(1.0, N, K)


class TestArnoldiTau:
    """arnoldi_q_approx takes tau through the gate of every other tau."""

    @pytest.fixture(scope="class")
    def dec(self):
        A = discretize_laplacian(uniform_grid(1.0, 16))
        return arnoldi_extend(A, np.ones(A.dimension), 6)

    def test_float32_tau_is_widened(self, dec):
        got = arnoldi_q_approx(dec, TAU32)
        assert got.dtype == np.float64
        assert np.array_equal(got, arnoldi_q_approx(dec, float(TAU32)))

    def test_complex_tau_refused(self, dec):
        """A complex tau used to return a complex128 array."""
        for tau in (0.3 + 1.0j, np.complex128(0.3)):
            with pytest.raises(TypeError, match="tau must be real"):
                arnoldi_q_approx(dec, tau)

    @pytest.mark.parametrize("tau", [math.nan, -0.1, 1.5])
    def test_out_of_range_tau_refused(self, dec, tau):
        """NaN used to raise FloatingPointError, the numerical-failure
        class, where it is an input error."""
        with pytest.raises(ValueError, match=r"tau must lie in \[0, 1\]"):
            arnoldi_q_approx(dec, tau)
