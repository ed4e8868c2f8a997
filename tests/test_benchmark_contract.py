"""The names the benchmark's tracer wraps must exist in the program."""

import io
import math
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from berngen import ActionPlan, cli, discretize_laplacian, uniform_grid


def _tracer(monkeypatch):
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parent.parent / "perfbench"))
    import tracing

    return tracing.Tracer()


def test_tracer_finds_every_wrapped_name(monkeypatch):
    """perfbench/tracing.py reports a per-layer metric as null when a name
    it wraps is missing, and the benchmark run then prints a malformed
    result line."""
    tracer = _tracer(monkeypatch)
    tracer.install()
    try:
        assert tracer.absent == set()
    finally:
        tracer.uninstall()


def test_traced_run_gives_finite_metrics(monkeypatch):
    """A traced CLI request plus a plan, a view and an evaluation through
    the library give a finite number for every per-layer metric, as the
    benchmark's traced result line needs: the tracer reads the plan
    attributes A, f, solve_count, N and ell, and probes shifted_solve."""
    tracer = _tracer(monkeypatch)
    tracer.install()
    try:
        with tracer.request("cli.main", "cli"), redirect_stdout(io.StringIO()):
            assert cli.main(["bvp-compare", "--s", "24", "--N", "8",
                             "--n", "2", "--ell", "2"]) == 0
        A = discretize_laplacian(uniform_grid(1.0, 16))
        plan = ActionPlan(A, 2, 8, 2, np.ones(A.dimension))
        plan.view(2, 10, 2).evaluate(0.3)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(tracer.probe_shifted_solve(), 0.0)
    assert metrics and all(
        isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
        for m in metrics.values()), metrics
