"""Run-to-run spread of the end-to-end metrics.

    python3 bench/spread.py --workload c9-swag --seeds 0-9 [--seconds 32] [--trace 0]

Runs ``bench/run.py`` once per seed, one run at a time, from the
repository root. It prints each run's result line and elapsed time, then
for each metric the median of the runs and the distance between the first
and third quartiles as a share of the median
(``statistics.quantiles(values, n=4)``). A benchmark is steady when that
share stays well inside the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("0-9"))
    parser.add_argument("--seconds", default="32")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(json.dumps({"seed": seed, "elapsed_s": round(time.monotonic() - start, 1), **result}),
              flush=True)
        if not result["correct"]:
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med if med else float("nan")
        print(f"{args.workload:14s} {name:24s} median {med:12.6g}  iqr/median {share:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
