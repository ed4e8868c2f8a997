"""One workload in a process of its own; started by run.py.

    worker.py --workload W --seed N --seconds S --trace T
        warm up, run timed passes for S seconds (at least one), each under
        a Pace (pace.py), and print one JSON line of results.  With
        --trace 1 one traced pass follows, also paced, and the per-layer
        metrics replace the end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import berngen  # noqa: E402
from pace import Pace  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import ERROR_FLOOR, WORKLOADS  # noqa: E402


def _blas() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return {}
    return {k: blas.get(k) for k in ("name", "version",
                                     "openblas configuration")}


def _passes(workload, inputs, seconds: float) -> list:
    results = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        with Pace() as pace:
            results.append(workload.run_pass(inputs, pace))
    return results


def _end_to_end(results: list) -> dict:
    """Medians over the run's passes of the paced timings (pace.py)."""
    errors = [e for r in results for e in r.errors]
    digits = [-math.log10(max(e, ERROR_FLOOR)) for e in errors]
    values = {
        "wall_s": (statistics.median(r.wall_s for r in results), "s"),
        "first_result_s": (statistics.median(r.first_result_s
                                             for r in results), "s"),
        "taus_per_s": (statistics.median(r.taus_per_s for r in results),
                       "1/s"),
        "accuracy_digits": (statistics.fmean(digits) if digits else 0.0,
                            "digits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def _per_layer(workload, name: str, seed: int, results: list) -> tuple:
    tracer = Tracer()
    tracer.install()
    try:
        inputs = workload.inputs(seed)  # traced, so bvp.operator_s sees it
        with Pace() as pace:  # paced, like the untraced passes
            traced = workload.run_pass(inputs, pace, tracer)
    finally:
        tracer.uninstall()
    untraced = statistics.median(r.wall_s for r in results)
    metrics = tracer.metrics(tracer.probe_shifted_solve(),
                             (traced.wall_s - untraced) / untraced)
    trace = {"workload": name, "seed": seed, "absent": sorted(tracer.absent),
             "spans": tracer.spans}
    return metrics, traced, trace


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    workload.warmup(inputs)
    results = _passes(workload, inputs, args.seconds)
    if args.trace:
        metrics, traced, trace = _per_layer(workload, args.workload,
                                            args.seed, results)
        results.append(traced)
        if args.trace_out:
            Path(args.trace_out).write_text(json.dumps(trace))
    else:
        metrics = _end_to_end(results)
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "pass_wall_s": [r.wall_s for r in results],
                      "pass_raw_wall_s": [r.raw_wall_s for r in results],
                      "metrics": metrics,
                      "versions": {"python": sys.version.split()[0],
                                   "numpy": np.__version__,
                                   "blas": _blas(),
                                   "berngen_path": berngen.__file__}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
