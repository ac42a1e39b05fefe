"""Benchmark a change against its parent and write one trajectory file.

Run from the root of the change's checkout, with a second checkout of its
parent commit::

    python3 scripts/bench_trajectory.py --parent PARENT_DIR --out BENCH_<n>.json

For every workload in BENCHMARK.json, ``perfbench/run.py`` runs in both
checkouts at the benchmark's run length: ``PAIRS`` pairs with ``--trace 0``
(pair i at seed i, alternating which side runs first), then one ``--trace 1``
run per side at seed 1.  The file keeps every run, and per side the median
and quartiles of each end-to-end metric and the traced per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

PAIRS = 10


def bench(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=root, check=True, capture_output=True, text=True).stdout
    report = json.loads(out.strip().splitlines()[-1])
    metrics = {name: m["value"] for name, m in report.pop("metrics").items()}
    return {**report, "metrics": metrics}


def summary(runs: list[dict]) -> dict:
    quartiles = {name: statistics.quantiles([r["metrics"][name] for r in runs], n=4)
                 for name in runs[0]["metrics"]}
    return {name: {"median": med, "q1": q1, "q3": q3} for name, (q1, med, q3) in quartiles.items()}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--out", required=True)
    args = p.parse_args()
    with open("BENCHMARK.json") as fh:
        config = json.load(fh)
    sides = {"parent": os.path.abspath(args.parent), "change": os.getcwd()}
    result = {"run_seconds": config["run_seconds"], "pairs": PAIRS, "workloads": {}}
    for workload in (w["name"] for w in config["workloads"]):
        runs = {side: [] for side in sides}
        for i in range(PAIRS):
            for side in list(sides)[:: 1 if i % 2 == 0 else -1]:
                runs[side].append(bench(sides[side], workload, i + 1, config["run_seconds"], 0))
                print(workload, side, i + 1, runs[side][-1]["metrics"]["wall_s"], file=sys.stderr)
        result["workloads"][workload] = {
            side: {"end_to_end": summary(runs[side]), "runs": runs[side],
                   "trace": bench(root, workload, 1, config["run_seconds"], 1)}
            for side, root in sides.items()}
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
