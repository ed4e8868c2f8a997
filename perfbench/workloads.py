"""The four benchmark workloads: their inputs, one timed pass, and checks.

bvp-table, krylov-table and scalar-table drive ``berngen.cli.main(argv)``
with fixed arguments, so their inputs do not depend on the seed.
trajectory drives the library API (``ActionPlan``, ``evaluate``) on an
``f`` and a tau list drawn from the seed.  Every output is checked: CSV
tables against their fixed header, parameter columns and the frozen bounds
of tests/test_acceptance.py; trajectory vectors against the closed-form
oracle in oracle.py.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

import berngen
import berngen.cli
from oracle import HeatOracle

SCHEMA = ("experiment", "method", "p", "n", "N", "ell", "tau", "z",
          "value", "elapsed_s")

#: errors below this count as 16 digits in accuracy_digits
ERROR_FLOOR = 1e-16

#: worst relative error of trajectory over a 2001-point tau grid on
#: [1/12, 11/12] at seed was 1.33e-5 (at tau = 11/12); frozen with margin
TRAJECTORY_REL_BOUND = 1e-4

TRAJECTORY_S = 4096
TRAJECTORY_TAUS = 2000
#: bvp-table's spacing 24 / 513, so ||A||_1 stays near 1828 at any s
TRAJECTORY_LENGTH = 24.0 * (TRAJECTORY_S + 1) / 513.0
TRAJECTORY_PLAN = dict(p=2, N=50, ell=4)
TRAJECTORY_SOLVES = 58


@dataclass
class PassResult:
    """Timings and verdicts of one pass over a workload.

    wall_s, first_result_s and taus_per_s are paced (see pace.py);
    raw_wall_s is the wall time, the pace handler's time taken out.
    """

    wall_s: float
    first_result_s: float
    taus_per_s: float
    raw_wall_s: float
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)  # accelerated results only


# --- CSV tables -----------------------------------------------------------

def _fmt(x: float) -> float:
    """A float as it reads back from the CLI's '.12g' parameter columns."""
    return float(format(x, ".12g"))


def _key(experiment, method, p=None, n=None, N=None, ell=None, tau=None,
         z=None) -> tuple:
    return (experiment, method, p, n, N, ell,
            None if tau is None else _fmt(tau),
            None if z is None else _fmt(z))


def _parse_key(fields: list) -> tuple:
    def opt(raw, kind):
        return None if raw == "" else kind(raw)

    return (fields[0], fields[1], opt(fields[2], int), opt(fields[3], int),
            opt(fields[4], int), opt(fields[5], int), opt(fields[6], float),
            opt(fields[7], float))


def parse_table(text: str) -> dict:
    """Rows of a CLI CSV keyed by their parameter columns.

    Raises ValueError on a wrong header, a malformed or duplicated row, or
    an unparsable number.
    """
    lines = list(csv.reader(io.StringIO(text)))
    if not lines or tuple(lines[0]) != SCHEMA:
        raise ValueError("CSV header differs from the fixed schema")
    table = {}
    for fields in lines[1:]:
        if len(fields) != len(SCHEMA):
            raise ValueError(f"malformed row {fields!r}")
        key = _parse_key(fields)
        if key in table:
            raise ValueError(f"duplicate row {key!r}")
        float(fields[9])
        table[key] = float(fields[8])
    return table


@dataclass(frozen=True)
class Command:
    """One CLI invocation, the rows it must produce and their gates.

    gates maps a row key to a predicate on the whole table (so a gate may
    compare two rows); every row must also hold a finite, non-negative
    value.
    """

    argv: tuple
    expected: tuple
    gates: dict

    def check(self, text: str | None) -> tuple[int, int, list]:
        """(attempted, failed, accelerated errors) for this command."""
        attempted = len(self.expected)
        if text is None:
            return attempted, attempted, []
        try:
            table = parse_table(text)
        except ValueError:
            return attempted, attempted, []
        if table.keys() != set(self.expected):
            return attempted, attempted, []
        failed = 0
        errors = []
        for key in self.expected:
            value = table[key]
            ok = math.isfinite(value) and value >= 0.0
            gate = self.gates.get(key)
            if ok and gate is not None:
                ok = gate(table)
            failed += not ok
            if key[1] in ("fastlanc", "accelerated"):
                errors.append(value)
        return attempted, failed, errors


def _at_most(key, bound):
    return lambda table: table[key] <= bound


def _bvp_table() -> tuple:
    taus = (1.0 / 12.0, 1.0 / 6.0)
    Ns = (50, 100, 200)
    exp = "bvp-uniform"
    expected = [_key(exp, "lanc", p=2 * n + 2, n=n, N=N, tau=t)
                for n in (2, 3, 4) for N in Ns for t in taus]
    expected += [_key(exp, "fastlanc", p=2, N=N, ell=ell, tau=t)
                 for ell in (2, 3, 4) for N in Ns for t in taus]
    gates = {_key(exp, "fastlanc", p=2, N=N, ell=ell, tau=1.0 / 6.0):
             _at_most(_key(exp, "fastlanc", p=2, N=N, ell=ell,
                           tau=1.0 / 6.0), 100 * ref)
             for (N, ell), ref in (((100, 3), 4.8e-11), ((200, 3), 6.0e-12),
                                   ((200, 4), 3.8e-12))}
    unstable = _key(exp, "lanc", p=10, n=4, N=50, tau=1.0 / 12.0)
    gates[unstable] = lambda table: table[unstable] > 1e10
    return (Command(("bvp-compare",), tuple(expected), gates),)


def _krylov_table() -> tuple:
    tau = 1.0 / 6.0
    commands = []
    for test, ell, steps, bound in ((3, 5, 100, 1e-8), (4, 4, 1, 1e-12)):
        exp = f"arnoldi-test{test}"
        fast = _key(exp, "fastlanc", p=2, N=50, ell=ell, tau=tau)
        expected = [fast]
        for j in range(1, steps + 1):
            expected += [_key(exp, "arnoldi", N=j, tau=tau),
                         _key(exp, "arnoldi-loss", N=j, tau=tau)]
        gates = {fast: _at_most(fast, bound)}
        if test == 3:
            last = _key(exp, "arnoldi", N=steps, tau=tau)
            gates[last] = lambda table, last=last, fast=fast: (
                table[last] > table[fast])
        commands.append(Command(("arnoldi-compare", "--test", str(test)),
                                tuple(expected), gates))
    return tuple(commands)


def _scalar_table() -> tuple:
    taus = (0.125, 0.0078125, 0.0)
    ws = np.linspace(-10.0, 0.0, 400)
    expected = [_key("scalar-error", "truncated" if ell == 0 else
                     "accelerated", p=2, N=100, ell=ell, tau=t,
                     z=float(w) / (2.0 * math.pi))
                for ell in (0, 1, 2, 3) for t in taus for w in ws]
    gates = {key: _at_most(key, 1e-6) for key in expected
             if key[5] == 3 and key[6] == 0.0}
    scalar = Command(("scalar-error", "--tau", "0.125,0.0078125,0"),
                     tuple(expected), gates)
    reference = {512: 0.5327, 1024: 0.5328, 2048: 0.5319}
    delta_expected = [_key("delta-table", "parseval", p=4, n=1, N=N, z=z)
                      for z in (1.0, 0.1, 10.0) for N in reference]
    delta_gates = {key: (lambda table, key=key:
                         abs(table[key] - reference[key[4]]) <= 5e-3)
                   for key in delta_expected}
    delta = Command(("delta-table",), tuple(delta_expected), delta_gates)
    return (scalar, delta)


class CliWorkload:
    """Runs its commands in order through berngen.cli.main in-process."""

    def __init__(self, commands: tuple, warmup: tuple):
        self.commands = commands
        self.warmup_argv = warmup

    def inputs(self, seed: int):
        """The argument lists are fixed; the seed selects nothing here."""
        return tuple(c.argv for c in self.commands)

    def warmup(self, inputs) -> None:
        for argv in self.warmup_argv:
            _call_main(argv)

    def run_pass(self, inputs, clock, tracer=None) -> PassResult:
        outputs = []
        first = None
        start = clock.mark()
        for argv in inputs:
            outputs.append(_call_main(argv, tracer))
            if first is None:
                first = clock.mark()
        end = clock.mark()
        wall = clock.seconds(start, end)
        result = PassResult(wall_s=wall,
                            first_result_s=clock.seconds(start, first),
                            taus_per_s=0.0, raw_wall_s=clock.net(start, end))
        for command, text in zip(self.commands, outputs):
            attempted, failed, errors = command.check(text)
            result.attempted += attempted
            result.failed += failed
            result.errors += errors
        result.taus_per_s = result.attempted / wall
        return result


def _call_main(argv, tracer=None) -> str | None:
    """CSV text of one CLI run, or None if it raised or exited nonzero."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                code = berngen.cli.main(list(argv))
            else:
                with tracer.request("cli.main", "cli"):
                    code = berngen.cli.main(list(argv))
    except Exception:  # a raising cell is a failed cell, not a crash
        return None
    return buf.getvalue() if code == 0 else None


# --- trajectory -----------------------------------------------------------

def trajectory_inputs(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """f ~ N(0, 1) of length s and taus ~ U[1/12, 11/12], from the seed."""
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(TRAJECTORY_S)
    taus = rng.uniform(1.0 / 12.0, 11.0 / 12.0, TRAJECTORY_TAUS)
    return f, taus


def heat_operator(length: float, s: int):
    return berngen.discretize_laplacian(berngen.uniform_grid(length, s))


class TrajectoryWorkload:
    """Solve once, then every tau at matrix-vector cost."""

    def inputs(self, seed: int):
        f, taus = trajectory_inputs(seed)
        return heat_operator(TRAJECTORY_LENGTH, TRAJECTORY_S), f, taus

    def warmup(self, inputs) -> None:
        s = 64
        A = heat_operator(24.0 * (s + 1) / 513.0, s)
        plan = berngen.ActionPlan(A, f=np.ones(s), **TRAJECTORY_PLAN)
        for tau in (0.25, 0.5, 0.75):
            plan.evaluate(tau)

    def run_pass(self, inputs, clock, tracer=None) -> PassResult:
        A, f, taus = inputs
        oracle = HeatOracle(TRAJECTORY_LENGTH / (TRAJECTORY_S + 1),
                            TRAJECTORY_S, f)
        context = (tracer.request("trajectory", "bench") if tracer
                   else contextlib.nullcontext())
        times = np.empty(len(taus))
        errors = []
        start = clock.mark()
        try:
            with context:
                plan = berngen.ActionPlan(A, f=f, **TRAJECTORY_PLAN)
                built = clock.mark()
                for i, tau in enumerate(taus):
                    a = clock.mark()
                    u = plan.evaluate(float(tau))
                    b = clock.mark()
                    times[i] = clock.net(a, b)
                    if i == 0:
                        first = b
                    ref = oracle.solution(float(tau))
                    errors.append(float(np.max(np.abs(u - ref))
                                        / np.max(np.abs(ref))))
        except Exception:  # a raising pass fails all of its cells
            elapsed = clock.net(start, clock.mark())
            return PassResult(wall_s=elapsed, first_result_s=elapsed,
                              taus_per_s=0.0, raw_wall_s=elapsed,
                              attempted=len(taus), failed=len(taus))
        end = clock.mark()
        # the oracle runs between evaluate calls, outside the timed region;
        # the pace over the whole evaluate phase scales the calls' own time
        evals = clock.factor(built[0], end[0])
        later = clock.factor(first[0], end[0])
        build = clock.seconds(start, built)
        result = PassResult(
            wall_s=build + evals * float(times.sum()),
            first_result_s=clock.seconds(start, first),
            taus_per_s=(len(taus) - 1) / (later * float(times[1:].sum())),
            raw_wall_s=clock.net(start, built) + float(times.sum()),
            attempted=len(taus), errors=errors)
        if plan.solve_count != TRAJECTORY_SOLVES:
            result.failed = len(taus)
        else:
            result.failed = sum(not (e <= TRAJECTORY_REL_BOUND)
                                for e in errors)
        return result


WORKLOADS = {
    "bvp-table": CliWorkload(
        _bvp_table(),
        warmup=(("bvp-compare", "--s", "16", "--N", "5", "--n", "2",
                 "--ell", "2"),)),
    "krylov-table": CliWorkload(
        _krylov_table(),
        warmup=(("arnoldi-compare", "--test", "3", "--s", "32", "--steps",
                 "5"),
                ("arnoldi-compare", "--test", "4", "--s", "32", "--steps",
                 "5"))),
    "scalar-table": CliWorkload(
        _scalar_table(),
        warmup=(("scalar-error", "--tau", "0.125,0", "--N", "5", "--ell",
                 "1"),
                ("delta-table", "--N", "16", "--K", "16"))),
    "trajectory": TrajectoryWorkload(),
}
