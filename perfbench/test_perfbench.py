"""Checks of the benchmark's own parts: oracle, seeding, gates, metric list.

    python3 -m pytest -q perfbench
"""

import json
import signal
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import berngen  # noqa: E402
import pace  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from oracle import HeatOracle, dst1  # noqa: E402


def test_dst1_matches_sine_sum():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(7)
    i = np.arange(1, 8)
    direct = np.sin(np.pi * np.outer(i, i) / 8) @ x
    assert np.allclose(dst1(x), direct, rtol=0, atol=1e-13)


@pytest.mark.parametrize("tau", [1.0 / 12.0, 1.0 / 6.0, 0.9])
def test_oracle_matches_dense_reference(tau):
    """The closed form agrees with berngen's dense reference_solution at
    s = 512, the largest bvp-table operator."""
    s = 512
    length = 24.0 * (s + 1) / 513.0
    A = workloads.heat_operator(length, s)
    f = np.random.default_rng(1).standard_normal(s)
    ref = berngen.reference_solution(A, tau, f)
    got = HeatOracle(length / (s + 1), s, f).solution(tau)
    assert np.max(np.abs(got - ref)) <= 1e-11 * np.max(np.abs(ref))


def test_trajectory_inputs_follow_the_seed():
    f1, t1 = workloads.trajectory_inputs(7)
    f2, t2 = workloads.trajectory_inputs(7)
    f3, t3 = workloads.trajectory_inputs(8)
    assert np.array_equal(f1, f2) and np.array_equal(t1, t2)
    assert not np.array_equal(f1, f3) and not np.array_equal(t1, t3)
    assert f1.shape == (workloads.TRAJECTORY_S,)
    assert t1.shape == (workloads.TRAJECTORY_TAUS,)
    assert t1.min() >= 1.0 / 12.0 and t1.max() <= 11.0 / 12.0


def _csv(command, value_of):
    lines = [",".join(workloads.SCHEMA)]
    for key in command.expected:
        params = ["" if v is None else format(v, ".12g") for v in key[2:]]
        lines.append(",".join([key[0], key[1], *params,
                               format(value_of(key), ".16e"), "1e-3"]))
    return "\n".join(lines) + "\n"


def test_bvp_gates_are_enforced():
    (command,) = workloads.WORKLOADS["bvp-table"].commands

    def passing(key):
        return 1e12 if key[1] == "lanc" else 1e-13

    assert command.check(_csv(command, passing))[:2] == (36, 0)
    worse = workloads._key("bvp-uniform", "fastlanc", p=2, N=200, ell=4,
                           tau=1.0 / 6.0)
    text = _csv(command, lambda k: 1e-9 if k == worse else passing(k))
    assert command.check(text)[:2] == (36, 1)
    stable = _csv(command, lambda k: 1.0 if k[1] == "lanc" else 1e-13)
    assert command.check(stable)[:2] == (36, 1)
    missing = "\n".join(_csv(command, passing).splitlines()[:-1]) + "\n"
    assert command.check(missing)[:2] == (36, 36)
    assert command.check(None)[:2] == (36, 36)


def test_scalar_gates_are_enforced():
    scalar, delta = workloads.WORKLOADS["scalar-table"].commands
    assert len(scalar.expected) + len(delta.expected) == 4809
    text = _csv(scalar, lambda k: 1e-3 if k[5] == 3 and k[6] == 0 else 1e-9)
    assert scalar.check(text)[:2] == (4800, 400)
    text = _csv(delta, lambda k: 0.5327 if k[4] != 2048 else 0.6)
    assert delta.check(text)[:2] == (9, 3)


def test_metric_lists_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(tracing.PER_LAYER)
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(run.WORKLOADS) == sorted(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_s", "first_result_s", "taus_per_s",
        "accuracy_digits", "peak_rss_mb"}



def test_pace_samples_during_a_pass_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with pace.Pace() as clock:
        a = clock.mark()
        deadline = a[0] + 0.3
        while clock.mark()[0] < deadline:
            sum(range(1000))
        b = clock.mark()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.samples) >= 3
    assert 0.0 < b[1] - a[1] < clock.net(a, b)
    factor = clock.factor(a[0], b[0])
    kernel = [d for t, d in clock.samples if a[0] <= t <= b[0]]
    expected = pace.REFERENCE_KERNEL_S * sum(1 / d for d in kernel) / len(
        kernel)
    assert factor == pytest.approx(expected)
    assert clock.seconds(a, b) == pytest.approx(clock.net(a, b) * factor)

