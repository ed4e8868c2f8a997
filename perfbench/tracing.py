"""Outside-in tracing of berngen for the per-layer metrics.

Wrappers are installed from here only, by replacing the public names that
``berngen.cli`` imports (plus ``build_triangle`` as ``matfunc`` imports it,
and the grid builders in the package namespace that the trajectory
workload calls), and are removed again afterwards.  Spans stay in memory
and are written out when the run ends.  A name that the program no longer
has makes the metrics fed by it absent (null), never zero; a name that
exists but is not called on a workload gives a count or total of 0.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
from time import perf_counter

import numpy as np

import berngen
import berngen.cli
import berngen.matfunc

#: (name, unit, better) of every per-layer metric, in BENCHMARK.json order
PER_LAYER = (
    ("matfunc.plan_build_s", "s", "lower"),
    ("matfunc.plan_builds", "count", "lower"),
    ("matfunc.solves", "count", "lower"),
    ("matfunc.distinct_shifts", "count", "lower"),
    ("matfunc.shift_reuse", "ratio", "higher"),
    ("matfunc.shifted_solve_us", "us", "lower"),
    ("matfunc.evaluate_s", "s", "lower"),
    ("matfunc.evaluate_us", "us", "lower"),
    ("matfunc.evaluations", "count", "higher"),
    ("matfunc.reference_s", "s", "lower"),
    ("matfunc.reference_calls", "count", "lower"),
    ("acceleration.triangle_s", "s", "lower"),
    ("acceleration.G_approx_us", "us", "lower"),
    ("acceleration.q0_shift_us", "us", "lower"),
    ("fourier.reference_q_us", "us", "lower"),
    ("fourier.delta_of_N_us", "us", "lower"),
    ("arnoldi.extend_s", "s", "lower"),
    ("arnoldi.steps", "count", "lower"),
    ("arnoldi.q_approx_us", "us", "lower"),
    ("arnoldi.orthogonality_loss_us", "us", "lower"),
    ("bvp.operator_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.rows", "count", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
)

#: shifted_solve probe: solves timed per operator, spread over its k set
PROBE_KS = 8

_BUILDERS = ("uniform_grid", "geometric_grid", "discretize_laplacian",
             "circulant_shift")

# (owner, attribute, span name, layer, metrics the span feeds)
_FUNCTIONS = (
    [(berngen.cli, "reference_solution", "matfunc.reference_solution",
      "matfunc", ("matfunc.reference_s", "matfunc.reference_calls")),
     (berngen.cli, "G_approx", "acceleration.G_approx", "acceleration",
      ("acceleration.G_approx_us",)),
     (berngen.cli, "q0_shift", "acceleration.q0_shift", "acceleration",
      ("acceleration.q0_shift_us",)),
     (berngen.cli, "reference_q", "fourier.reference_q", "fourier",
      ("fourier.reference_q_us",)),
     (berngen.cli, "delta_of_N", "fourier.delta_of_N", "fourier",
      ("fourier.delta_of_N_us",)),
     (berngen.cli, "arnoldi_extend", "arnoldi.extend", "arnoldi",
      ("arnoldi.extend_s", "arnoldi.steps")),
     (berngen.cli, "arnoldi_q_approx", "arnoldi.q_approx", "arnoldi",
      ("arnoldi.q_approx_us",)),
     (berngen.cli, "orthogonality_loss", "arnoldi.orthogonality_loss",
      "arnoldi", ("arnoldi.orthogonality_loss_us",)),
     (berngen.matfunc, "build_triangle", "acceleration.build_triangle",
      "acceleration", ("acceleration.triangle_s",))]
    + [(owner, name, "bvp.operator", "bvp", ("bvp.operator_s",))
       for owner in (berngen.cli, berngen) for name in _BUILDERS]
)


class Tracer:
    """Spans as [name, layer, start, end, parent index, request id]."""

    def __init__(self):
        self.spans = []
        self.plans = []        # (operator, f, solve_count, N, ell)
        self.rows = 0
        self.steps = 0
        self.absent = set()
        self._stack = []
        self._request = 0
        self._restore = []

    def _open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, layer, perf_counter(), None, parent,
                           self._request])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][3] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def request(self, name: str, layer: str):
        """A top-level span that starts a new request id."""
        self._request += 1
        index = self._open(name, layer)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, fn, name: str, layer: str, record=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if record is not None:
                record(args, result)
            return result
        return traced

    def _patch(self, owner, attr: str, name: str, layer: str, feeds,
               record=None) -> None:
        original = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if original is None:
            self.absent.update(feeds)
            return
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, layer, record))

    def install(self) -> None:
        for owner, attr, name, layer, feeds in _FUNCTIONS:
            self._patch(owner, attr, name, layer, feeds,
                        self._record_steps if attr == "arnoldi_extend"
                        else None)
        plan_cls = getattr(berngen.cli, "ActionPlan", None)
        plan_feeds = ("matfunc.plan_build_s", "matfunc.plan_builds",
                      "matfunc.solves", "matfunc.distinct_shifts",
                      "matfunc.shift_reuse", "matfunc.shifted_solve_us")
        eval_feeds = ("matfunc.evaluate_s", "matfunc.evaluate_us",
                      "matfunc.evaluations")
        if plan_cls is None:
            self.absent.update(plan_feeds + eval_feeds)
        else:
            self._patch(plan_cls, "__init__", "matfunc.ActionPlan",
                        "matfunc", plan_feeds, self._record_plan)
            self._patch(plan_cls, "evaluate", "matfunc.evaluate", "matfunc",
                        eval_feeds)
        report_cls = getattr(berngen.cli, "ExperimentReport", None)
        if report_cls is None:
            self.absent.add("cli.rows")
        else:
            self._patch(report_cls, "write", "cli.write", "cli",
                        ("cli.rows",), self._record_rows)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _record_plan(self, args, _result) -> None:
        plan = args[0]
        try:
            self.plans.append((plan.A, plan.f, plan.solve_count, plan.N,
                               plan.ell))
        except AttributeError:
            self.absent.update(("matfunc.solves", "matfunc.distinct_shifts",
                                "matfunc.shift_reuse",
                                "matfunc.shifted_solve_us"))

    def _record_steps(self, _args, result) -> None:
        self.steps += result.j

    def _record_rows(self, args, _result) -> None:
        self.rows += len(args[0].rows)

    # --- metrics ---------------------------------------------------------

    def _durations(self, name: str) -> list:
        return [end - start for n, _, start, end, _, _ in self.spans
                if n == name]

    def _shift_sets(self) -> dict:
        """k values each operator was solved at, keyed by id(operator).

        An ActionPlan solves k = 1 .. N + 2 ell (the solve-count invariant
        tests/test_acceptance.py pins).
        """
        shifts = {}
        for A, f, _, N, ell in self.plans:
            entry = shifts.setdefault(id(A), (A, f, set()))
            entry[2].update(range(1, N + 2 * ell + 1))
        return shifts

    def probe_shifted_solve(self) -> float | None:
        """Median microseconds of public shifted_solve over the operators
        and k values of the traced pass (PROBE_KS k values per operator)."""
        solve = getattr(berngen.matfunc, "shifted_solve", None)
        if solve is None or "matfunc.shifted_solve_us" in self.absent:
            return None
        times = []
        for A, f, ks in self._shift_sets().values():
            ks = sorted(ks)
            picks = np.unique(np.linspace(0, len(ks) - 1, PROBE_KS).round())
            for i in picks.astype(int):
                t0 = perf_counter()
                solve(A, ks[i], f)
                times.append(perf_counter() - t0)
        return 1e6 * statistics.median(times) if times else 0.0

    def metrics(self, probe_us, overhead_frac: float) -> dict:
        def total(name):
            return float(sum(self._durations(name)))

        def median_us(name):
            d = self._durations(name)
            return 1e6 * statistics.median(d) if d else 0.0

        solves = sum(p[2] for p in self.plans)
        distinct = sum(len(ks) for _, _, ks in self._shift_sets().values())
        self_s = 0.0
        for index, span in enumerate(self.spans):
            if span[0] == "cli.main":
                covered = sum(s[3] - s[2] for s in self.spans
                              if s[4] == index and s[1] != "cli")
                self_s += span[3] - span[2] - covered
        values = {
            "matfunc.plan_build_s": total("matfunc.ActionPlan"),
            "matfunc.plan_builds": len(self._durations("matfunc.ActionPlan")),
            "matfunc.solves": solves,
            "matfunc.distinct_shifts": distinct,
            "matfunc.shift_reuse": distinct / solves if solves else 0.0,
            "matfunc.shifted_solve_us": probe_us,
            "matfunc.evaluate_s": total("matfunc.evaluate"),
            "matfunc.evaluate_us": median_us("matfunc.evaluate"),
            "matfunc.evaluations": len(self._durations("matfunc.evaluate")),
            "matfunc.reference_s": total("matfunc.reference_solution"),
            "matfunc.reference_calls":
                len(self._durations("matfunc.reference_solution")),
            "acceleration.triangle_s": total("acceleration.build_triangle"),
            "acceleration.G_approx_us": median_us("acceleration.G_approx"),
            "acceleration.q0_shift_us": median_us("acceleration.q0_shift"),
            "fourier.reference_q_us": median_us("fourier.reference_q"),
            "fourier.delta_of_N_us": median_us("fourier.delta_of_N"),
            "arnoldi.extend_s": total("arnoldi.extend"),
            "arnoldi.steps": self.steps,
            "arnoldi.q_approx_us": median_us("arnoldi.q_approx"),
            "arnoldi.orthogonality_loss_us":
                median_us("arnoldi.orthogonality_loss"),
            "bvp.operator_s": total("bvp.operator"),
            "cli.self_s": self_s,
            "cli.rows": self.rows,
            "trace.overhead_frac": overhead_frac,
        }
        return {name: {"value": None if name in self.absent
                       else values[name], "unit": unit}
                for name, unit, _ in PER_LAYER}
