"""Report the CSV cells that differ between two berngen source trees.

Runs each command below as `python -m berngen ARGS` with PYTHONPATH set to
BASE_SRC, then to HEAD_SRC, keeps columns 1-9 (every column but
elapsed_s) and prints, per (experiment, method), the count of moved cells
and the worst relative change.  Report only: a failing command or a moved
cell never changes the exit status.
Usage: python3 .github/csv_diff.py BASE_SRC HEAD_SRC
"""

import csv
import math
import os
import shlex
import subprocess
import sys

COMMANDS = """\
delta delta-table
scalar-defaults scalar-error
scalar scalar-error --tau 0.125,0.0078125,0
scalar-near-zero scalar-error --wmin=-0.1 --wmax=0.1 --points 41 --tau 0.125,0.5,0
scalar-odd scalar-error --p 3 --ell 0,1,2
bvp-uniform bvp-compare --grid uniform
bvp-geometric bvp-compare --grid geometric
arnoldi-3 arnoldi-compare --test 3
arnoldi-4 arnoldi-compare --test 4
arnoldi-4-large arnoldi-compare --test 4 --s 16384 --steps 2
bvp-geo-2048 bvp-compare --grid geometric --s 2048 --N 50,100 --n 2 --ell 2,4
scalar-p1 scalar-error --p 1 --ell 0,2 --tau 0.125,0.5
scalar-deep scalar-error --ell 4 --N 50 --tau 0.3,0.125
"""


def cells(env: dict, args: list) -> dict:
    """Cell key (experiment, method, p, n, N, ell, tau, z) -> value, from
    the command's output under env, whatever its exit status."""
    out = subprocess.run([sys.executable, "-m", "berngen", *args], env=env,
                         stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                         text=True).stdout
    return {tuple(r[:8]): r[8] for r in list(csv.reader(out.splitlines()))[1:]}


def report(base: dict, head: dict) -> None:
    groups = {}
    for key in sorted(base.keys() | head.keys()):
        g = groups.setdefault(key[:2], {"cells": 0, "moved": 0,
                                        "worst": 0.0, "unpaired": 0})
        g["cells"] += 1
        if key not in base or key not in head:
            g["unpaired"] += 1
        elif base[key] != head[key]:
            old, new = float(base[key]), float(head[key])
            rel = abs(new - old) / abs(old) if old else math.inf
            g["moved"] += 1
            g["worst"] = max(g["worst"], math.inf if rel != rel else rel)
    for (experiment, method), g in groups.items():
        line = (f"{experiment},{method}: "
                f"{g['moved']} of {g['cells']} cells moved")
        if g["moved"]:
            line += f", worst relative change {g['worst']:.2e}"
        if g["unpaired"]:
            line += f", {g['unpaired']} only on one side"
        print(line)
    if not groups:
        print("no rows on either side")


def main(base_src: str, head_src: str) -> None:
    sides = [dict(os.environ, PYTHONPATH=src) for src in (base_src, head_src)]
    run = [sys.executable, "-c", "import berngen; print(berngen.__file__)"]
    for env in sides:
        subprocess.run(run, env=env, stdin=subprocess.DEVNULL)
    for entry in COMMANDS.splitlines():
        name, args = entry.split(" ", 1)
        print(f"== {name}: berngen {args}", flush=True)
        base, head = (cells(env, shlex.split(args)) for env in sides)
        report(base, head)


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__.splitlines()[-1], file=sys.stderr)
        sys.exit(2)
    main(*sys.argv[1:])
