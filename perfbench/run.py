"""Benchmark entry point for berngen.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Runs workload W in a process of its own (worker.py) with BLAS and OpenMP
pinned to one thread, after timing SETUP_RUNS fresh-process set-ups.  The
last line of standard output is the result object; the line before it
records where the result came from (commit, machine, versions).  Both are
also written under .perfbench_out/, with the spans of a traced run.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_CHILD = HERE / "setup_child.py"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("bvp-table", "krylov-table", "scalar-table", "trajectory")

#: fresh processes timed per run for setup_s (the median is reported)
SETUP_RUNS = 7

#: one run must end within this many seconds
RUN_LIMIT_S = 170.0

#: BLAS / OpenMP threads in every child; 1 <= nproc, and the steadiest
THREADS = 1
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                "NUMEXPR_NUM_THREADS")


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({var: str(THREADS) for var in _THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _git_commit() -> str:
    """HEAD read from .git without running git; 'unknown' elsewhere."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _provenance(versions: dict) -> dict:
    env = _child_env()
    return {
        "commit": _git_commit(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": versions.get("python"),
        "numpy": versions.get("numpy"),
        "blas": versions.get("blas"),
        "threads": {var: env[var] for var in _THREAD_VARS},
        "berngen_path": versions.get("berngen_path"),
    }


def _run(cmd: list, deadline: float) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, env=_child_env(), cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))


def _setup_s(workload: str, seed: int, deadline: float) -> float:
    """Paced spawn to inputs-ready of a fresh process (setup_child.py).

    Both ends are on CLOCK_MONOTONIC; the pace handler's own time is taken
    out and the child's pace factor scales the rest.
    """
    t0 = time.monotonic()
    proc = _run([sys.executable, str(SETUP_CHILD), "--workload", workload,
                 "--seed", str(seed)], deadline)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process exited {proc.returncode}")
    ready, spent, factor = (float(x) for x in proc.stdout.split()[-3:])
    return (ready - t0 - spent) * factor


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "berngen" / "__init__.py").is_file():
        print(f"error: no berngen sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setups = ([] if args.trace else
                  [_setup_s(args.workload, args.seed, deadline)
                   for _ in range(SETUP_RUNS)])
        cmd = [sys.executable, str(WORKER), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.trace:
            cmd += ["--trace-out", str(OUT / f"spans-{stem}.json")]
        proc = _run(cmd, deadline)
    except (subprocess.TimeoutExpired, RuntimeError, ValueError,
            IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"error: worker exited {proc.returncode}", file=sys.stderr)
        return 1
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = report["metrics"]
    if setups:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    result = {"correct": report["correct"], "attempted": report["attempted"],
              "failed": report["failed"], "metrics": metrics}
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "pass_wall_s": report["pass_wall_s"],
              "pass_raw_wall_s": report["pass_raw_wall_s"],
              "setup_samples_s": setups,
              "fail_frac": report["failed"] / report["attempted"],
              "provenance": _provenance(report["versions"])}
    (OUT / f"result-{stem}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=1))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
