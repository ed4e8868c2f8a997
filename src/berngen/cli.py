"""Experiment harness: error tables and convergence sweeps as CSV."""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import dataclass
from itertools import product
from time import perf_counter
from typing import NamedTuple

import numpy as np

from .acceleration import TauEndpointError, _q_sweep
from .arnoldi import arnoldi_extend, arnoldi_q_approx, orthogonality_loss
from .bvp import (circulant_shift, discretize_laplacian, geometric_grid,
                  uniform_grid)
from .fourier import TWO_PI, PoleProximityError, delta_of_N, reference_q
from .matfunc import ActionPlan, spectral_reference
# perfbench/tracing.py wraps berngen.cli.G_approx, q0_shift and
# reference_solution by these names
from .acceleration import G_approx, q0_shift  # noqa: F401
from .matfunc import reference_solution  # noqa: F401

#: the format spec of each Row column; format(v, "") is str(v) for the
#: str and int parameters
_SPECS = ("",) * 6 + (".12g", ".12g", ".16e", ".6e")


class Row(NamedTuple):
    """One report line; inapplicable parameters stay None (empty in CSV).

    The fields are the CSV columns, in order.
    """

    experiment: str
    method: str
    p: int | None = None
    n: int | None = None
    N: int | None = None
    ell: int | None = None
    tau: float | None = None
    z: float | None = None
    value: float = 0.0
    elapsed_s: float = 0.0

    def key(self):
        """Total order on the parameter columns (None sorts first)."""
        return tuple(-math.inf if v is None else v for v in self[:8])

    def formatted(self) -> list[str]:
        return ["" if v is None else format(v, spec)
                for v, spec in zip(self, _SPECS)]


SCHEMA = Row._fields


@dataclass
class ExperimentReport:
    """Rows of one experiment run, written sorted under a single header."""

    rows: list

    def write(self, stream) -> None:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(SCHEMA)
        for row in sorted(self.rows, key=Row.key):
            writer.writerow(row.formatted())


def _ints(raw: str) -> list[int]:
    return [int(t) for t in raw.split(",") if t.strip()]


def _floats(raw: str) -> list[float]:
    return [float(t) for t in raw.split(",") if t.strip()]


def _config_argv(path: str, keys) -> list[str]:
    """A key = value file ('#' starts a comment) as --key=value flags.

    The '=' form keeps a value such as '-1, 2' from reading as an option.
    Only the command's own keys are accepted, never abbreviations.
    """
    argv = []
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                key, sep, raw = line.partition("=")
                if not sep:
                    raise ValueError(f"{path}:{lineno}: expected key=value")
                key = key.strip()
                if key not in keys:
                    raise ValueError(f"unknown config key {key!r}")
                argv.append(f"--{key}={raw.strip()}")
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}")
    return argv


#: the paper's test operators by name, each built at dimension s; the
#: lambdas look the builders up when called, so a wrapper installed on a
#: module name (perfbench's tracer) sees every build
_OPERATORS = dict(
    uniform=lambda s: discretize_laplacian(uniform_grid(24.0, s)),
    geometric=lambda s: discretize_laplacian(geometric_grid(0.01, 1.005, s)),
    circulant=lambda s: circulant_shift(s, 1e-8),
)


def _timed(rows) -> ExperimentReport:
    """The report of the rows a command yields, each stamped with the
    seconds since the previous row was yielded, the first with the seconds
    since the command began: work done before a row (an operator, an
    oracle, a plan build) counts in that row, so the elapsed_s column
    sums to the command's time."""
    stamped = []
    t0 = perf_counter()
    for row in rows:
        t1 = perf_counter()
        stamped.append(row._make((*row[:-1], t1 - t0)))
        t0 = t1
    return ExperimentReport(stamped)


def _max_error(x: np.ndarray, ref: np.ndarray) -> float:
    """The max-norm distance of x from ref, as a Python float."""
    return float(np.max(np.abs(x - ref)))


def cmd_delta_table(config: dict) -> ExperimentReport:
    """Scaled residual norms Delta(N) per (z, N).

    The configured K is the tail length beyond N, so every cell resolves
    the same number of discarded modes.
    """
    z_list, n_list, K = config["z"], config["N"], config["K"]
    if n_list and K < max(n_list):
        raise ValueError(
            f"K={K} must be at least max(N)={max(n_list)} so the tail "
            "meets the K >= 2N requirement for every cell")
    return _timed(Row("delta-table", "parseval", p=4, n=1, N=N, z=z,
                      value=delta_of_N(z, N, N + K))
                  for z in z_list for N in n_list)


def cmd_scalar_error(config: dict) -> ExperimentReport:
    """Relative error of the accelerated scalar evaluation over a w grid.

    tau = 0 rows evaluate through the shift identity (q0_shift) with the
    configured alpha; interior tau uses G_approx directly.  Each
    (p, ell, tau) is one sweep over the grid, which checks its parameters
    and sets up once; a row is formed when it is asked for, so its
    elapsed_s times its own w.
    """
    ws = np.linspace(config["wmin"], config["wmax"], config["points"])
    ws = ws.tolist()
    N, alpha = config["N"], config["alpha"]

    def rows():
        for p, ell, tau in product(config["p"], config["ell"], config["tau"]):
            method = "truncated" if ell == 0 else "accelerated"
            approx = _q_sweep(p, N, ell, tau, alpha, ws)
            for w in ws:
                # reference_q checks w before the sweep's first value runs
                # its checks, the order of the per-w calls
                exact = reference_q(tau, w)
                yield Row("scalar-error", method, p=p, N=N, ell=ell, tau=tau,
                          z=w / TWO_PI,
                          value=abs(next(approx) - exact) / abs(exact))

    return _timed(rows())


def cmd_bvp_compare(config: dict) -> ExperimentReport:
    """Max-norm errors of both matrix methods on the heat test problems.

    The classical rows rebuild the full w-power mode vectors ('lanc',
    p = 2n + 2); the accelerated rows use the stabilized order-2 plan
    ('fastlanc') with the configured correction depths.  Every cell is a
    view of one plan, so each shifted solve is done once per operator.
    Errors are measured against spectral_reference, which needs no dense
    matrix, so s may exceed DENSE_CAP.
    """
    kind, s = config["grid"], config["s"]
    if kind not in ("uniform", "geometric"):
        raise ValueError(f"--grid must be uniform or geometric, got {kind!r}")
    taus, Ns, experiment = config["tau"], config["N"], f"bvp-{kind}"
    # (method, n, ell, N, view arguments), in the order the views are built
    cells = [("lanc", n, None, N, (2 * n + 2, N, 0, "direct"))
             for n in config["n"] for N in Ns]
    cells += [("fastlanc", None, ell, N, (2, N, ell))
              for ell in config["ell"] for N in Ns]

    def rows():
        A = _OPERATORS[kind](s)
        f = np.ones(A.dimension)
        refs = spectral_reference(A, taus, f)
        base = ActionPlan(A, 2, max(Ns, default=1),
                          max(config["ell"], default=0), f)
        for method, n, ell, N, view in cells:
            plan = base.view(*view)
            for tau, ref in zip(taus, refs):
                yield Row(experiment, method, p=plan.p, n=n, N=N, ell=ell,
                          tau=tau, value=_max_error(plan.evaluate(tau), ref))

    return _timed(rows())


def cmd_arnoldi_compare(config: dict) -> ExperimentReport:
    """Krylov iteration history against one accelerated summary row.

    Per step j the report carries the projection error ('arnoldi') and
    the basis orthogonality loss ('arnoldi-loss'), both keyed by j in the
    N column; iteration stops at happy breakdown.  Errors are measured
    against spectral_reference: eigh for the heat operator of test 3, the
    FFT for the circulant of test 4, which therefore runs at any s.
    """
    test = config["test"]
    if test not in (3, 4):
        raise ValueError(f"--test must be 3 or 4, got {test}")
    s, steps, tau, N = config["s"], config["steps"], config["tau"], config["N"]
    if steps < 1:
        raise ValueError("steps must be >= 1")
    ell = config["ell"]
    if ell is None:
        ell = 5 if test == 3 else 4
    experiment = f"arnoldi-test{test}"

    def rows():
        A = _OPERATORS["geometric" if test == 3 else "circulant"](s)
        f = np.ones(A.dimension)
        z = spectral_reference(A, tau, f)
        plan = ActionPlan(A, 2, N, ell, f)
        yield Row(experiment, "fastlanc", p=2, N=N, ell=ell, tau=tau,
                  value=_max_error(plan.evaluate(tau), z))
        dec = arnoldi_extend(A, f, min(steps, A.dimension))
        for j in range(1, dec.j + 1):
            pre = dec.prefix(j)
            yield Row(experiment, "arnoldi", N=j, tau=tau,
                      value=_max_error(arnoldi_q_approx(pre, tau), z))
            yield Row(experiment, "arnoldi-loss", N=j, tau=tau,
                      value=orthogonality_loss(pre))

    return _timed(rows())


#: command -> (function, {key: (parser, help)}, {key: default}, help)
_COMMANDS = {
    "delta-table": (
        cmd_delta_table,
        {"z": (_floats, "comma-separated z values"),
         "N": (_ints, "comma-separated mode counts"),
         "K": (int, "tail length beyond each N")},
        {"z": [1.0, 0.1, 10.0], "N": [512, 1024, 2048], "K": 2048},
        "scaled residual norms Delta(N)",
    ),
    "scalar-error": (
        cmd_scalar_error,
        {"p": (_ints, "comma-separated orders"),
         "ell": (_ints, "comma-separated correction depths"),
         "tau": (_floats,
                 "comma-separated evaluation points (0 uses the shift)"),
         "N": (int, "retained modes"),
         "points": (int, "number of w grid points"),
         "wmin": (float, "left end of the w grid"),
         "wmax": (float, "right end of the w grid"),
         "alpha": (float, "offset for the tau = 0 shift identity")},
        {"p": [2], "ell": [0, 1, 2, 3], "tau": [0.125, 0.0078125], "N": 100,
         "points": 400, "wmin": -10.0, "wmax": 0.0, "alpha": 0.125},
        "relative error sweep over a w grid",
    ),
    "bvp-compare": (
        cmd_bvp_compare,
        {"grid": (str, "grid family: uniform or geometric"),
         "s": (int, "interior grid size"),
         "tau": (_floats, "comma-separated evaluation times"),
         "N": (_ints, "comma-separated mode counts"),
         "n": (_ints, "comma-separated classical half-orders (p = 2n + 2)"),
         "ell": (_ints, "comma-separated accelerated correction depths")},
        {"grid": "uniform", "s": 512, "tau": [1.0 / 12.0, 1.0 / 6.0],
         "N": [50, 100, 200], "n": [2, 3, 4], "ell": [2, 3, 4]},
        "matrix-action error tables on the heat problems",
    ),
    "arnoldi-compare": (
        cmd_arnoldi_compare,
        {"test": (int, "test problem id (3 or 4)"),
         "steps": (int, "maximum Krylov steps"),
         "s": (int, "operator dimension"),
         "N": (int, "accelerated mode count"),
         "ell": (int, "accelerated correction depth"),
         "tau": (float, "evaluation time")},
        {"test": 3, "steps": 100, "s": 512, "N": 50, "ell": None,
         "tau": 1.0 / 6.0},
        "Krylov iteration history vs the accelerated run",
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="berngen",
        description="Error tables and convergence sweeps for the "
                    "Bernoulli generating function, written as CSV.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, keys, defaults, help_text) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(**defaults)
        sp.add_argument("--out", help="write CSV here instead of stdout")
        sp.add_argument("--config",
                        help="key = value file; flags override it")
        for key, (parse, help_line) in keys.items():
            sp.add_argument(f"--{key}", type=parse, help=help_line)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        run, _, defaults, _ = _COMMANDS[args.command]
        if args.config:
            # file flags go first, so flags on the command line win
            flags = _config_argv(args.config, {"out", *defaults})
            args = parser.parse_args(argv[:1] + flags + argv[1:])
        report = run(vars(args))
        if args.out:
            try:
                with open(args.out, "w", newline="") as fh:
                    report.write(fh)
            except OSError as exc:
                raise ValueError(
                    f"cannot write output file {args.out}: {exc}")
        else:
            report.write(sys.stdout)
        return 0
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    except (PoleProximityError, TauEndpointError, np.linalg.LinAlgError,
            ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
