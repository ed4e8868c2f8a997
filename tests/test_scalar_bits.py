"""The scalar path's exact bits, frozen.

Every value below is compared by float.hex with scalar_bits.json, which
was recorded at commit 1055584, where every mode term formed its own
powers of w and of 2 pi k.  A faster mode loop must keep each (k, w) term's
IEEE operations and their order, so these values may not move by one ulp.
To record the file again from a source tree (the values must not change):

    PYTHONPATH=SRC python tests/test_scalar_bits.py > tests/scalar_bits.json
"""

import itertools
import json
import sys
from pathlib import Path

import pytest

from berngen.acceleration import G_approx, correction, q0_shift
from berngen.fourier import (ApproxParams, fourier_partial, g_approx,
                             lanczos_coefficients, residual_l2)

DATA = Path(__file__).with_name("scalar_bits.json")

PS = (1, 2, 3, 6, 24)
ELLS = (0, 2)
TAUS = (0.125, 0.3)
WS = (-3.0, 0.5, -3.0 + 20.0j)
N = 40


def _cases() -> dict:
    """Function name -> {case id: thunk} over the frozen grid."""
    grid = list(itertools.product(PS, ELLS, TAUS, WS))
    return {
        "G_approx": {
            f"p={p} ell={ell} tau={tau} w={w}":
                lambda p=p, ell=ell, tau=tau, w=w: G_approx(
                    ApproxParams(p=p, N=N, tau=tau, w=w, ell=ell))
            for p, ell, tau, w in grid},
        "g_approx": {
            f"p={p} tau={tau} w={w}":
                lambda p=p, tau=tau, w=w: g_approx(
                    ApproxParams(p=p, N=N, tau=tau, w=w))
            for p, tau, w in itertools.product(PS, TAUS, WS)},
        "fourier_partial": {
            f"tau={tau} w={w}": lambda tau=tau, w=w: fourier_partial(tau, w, N)
            for tau, w in itertools.product(TAUS, WS)},
        "q0_shift": {
            f"p={p} ell={ell} w={w}":
                lambda p=p, ell=ell, w=w: q0_shift(
                    w, params=ApproxParams(p=p, N=N, tau=0.5, ell=ell))
            for p, ell, w in itertools.product(PS, ELLS, WS)},
        "correction": {
            f"p={p} ell={ell} tau={tau} w={w}":
                lambda p=p, ell=ell, tau=tau, w=w: correction(p, N, ell, tau,
                                                              w)
            for p, ell, tau, w in grid},
        "lanczos_coefficients": {
            f"p={p} k={k} w={w}":
                lambda p=p, k=k, w=w: lanczos_coefficients(p, k, w)
            for p, k, w in itertools.product(PS, (1, 2, N + 1), WS)},
        "residual_l2": {
            f"p={p} w={w}": lambda p=p, w=w: residual_l2(p, w, N, 10 * N)
            for p, w in itertools.product(PS, WS)},
    }


def _hex(value) -> str:
    """float.hex of the real and imaginary parts of a number, or of each
    number of a tuple, space-separated; a signed zero keeps its sign."""
    values = value if isinstance(value, tuple) else (value,)
    return " ".join(part.hex() for v in map(complex, values)
                    for part in (v.real, v.imag))


def record() -> dict:
    return {name: {case: _hex(thunk()) for case, thunk in cases.items()}
            for name, cases in _cases().items()}


@pytest.mark.parametrize("name", sorted(_cases()))
def test_bits_match_the_recorded_values(name):
    frozen = json.loads(DATA.read_text())[name]
    cases = _cases()[name]
    assert sorted(frozen) == sorted(cases)
    moved = [case for case, thunk in cases.items()
             if _hex(thunk()) != frozen[case]]
    assert not moved, moved


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1, sort_keys=True)
    print()
