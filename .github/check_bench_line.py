"""Check that a perfbench result line carries a finite value per metric.

A missing traced name or a NaN reads as null or a bare constant in the
result line while perfbench/run.py still exits 0, so the last line of
RESULT_FILE is parsed strictly: a non-finite constant, or a metric value
that is not a finite number, fails with exit status 1.
Usage: python3 .github/check_bench_line.py RESULT_FILE
"""

import json
import math
import sys


def refuse(token):
    raise ValueError(f"non-finite constant {token}")


def main(result_file: str) -> None:
    line = open(result_file).read().splitlines()[-1]
    metrics = json.loads(line, parse_constant=refuse)["metrics"]
    bad = {name: m["value"] for name, m in metrics.items()
           if not isinstance(m["value"], (int, float))
           or not math.isfinite(m["value"])}
    if bad:
        sys.exit(f"metrics without a finite value: {bad}")
    print(f"{len(metrics)} metrics, all finite")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print(__doc__.splitlines()[-1], file=sys.stderr)
        sys.exit(2)
    main(sys.argv[1])
