"""Benchmark a change against its parent and write one trajectory file.

Run from the root of the change's git checkout, with a second git checkout
(a clone) of its parent commit::

    python3 scripts/bench_trajectory.py --parent PARENT_DIR --out BENCH_<n>.json

Neither side runs where it is checked out.  The files git tracks in each
checkout, as they are in its working tree, are copied into two fresh sibling
directories under one temporary directory, and both sides run from there, so
a cost that depends on where a run writes (the ``inputs`` workload's set-up
writes a 3.2 MB POM) does not show as a code difference.  The copies are
removed at the end.

For every workload in BENCHMARK.json, ``perfbench/run.py`` runs in both
copies at the benchmark's run length: ``PAIRS`` pairs with ``--trace 0``
(pair i at seed i, alternating which side runs first), then one ``--trace 1``
run per side at seed 1.  The file keeps every run, per side the median and
quartiles of each end-to-end metric and the traced per-layer metrics, and
per workload how many pairs each side won on each end-to-end metric (ties
count for neither side).  It also records the run environment that moves
``setup_s`` and ``peak_rss_mib``, so that two trajectory files can be
compared: the bytecode-cache and BLAS-thread variables as this script sees
them, the Python and numpy versions and the CPU count.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

PAIRS = 10


def bench(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=root, check=True, capture_output=True, text=True).stdout
    report = json.loads(out.strip().splitlines()[-1])
    metrics = {name: m["value"] for name, m in report.pop("metrics").items()}
    return {**report, "metrics": metrics}


def snapshot(root: str, dest: str) -> str:
    """Copy the files git tracks in the checkout root, as they are in its
    working tree, into the new directory dest; return dest."""
    listed = subprocess.run(["git", "ls-files", "-z"], cwd=root, check=True, capture_output=True,
                            text=True).stdout
    for name in filter(None, listed.split("\0")):
        source = os.path.join(root, name)
        if os.path.isfile(source):  # a tracked file deleted in the working tree is not copied
            target = os.path.join(dest, name)
            os.makedirs(os.path.dirname(target), exist_ok=True)
            shutil.copy2(source, target)
    return dest


def summary(runs: list[dict]) -> dict:
    quartiles = {name: statistics.quantiles([r["metrics"][name] for r in runs], n=4)
                 for name in runs[0]["metrics"]}
    return {name: {"median": med, "q1": q1, "q3": q3} for name, (q1, med, q3) in quartiles.items()}


def pairs_won(metrics: list[dict], parent: list[dict], change: list[dict]) -> dict:
    """Pairs won by each side on each end-to-end metric, by its ``better`` direction."""
    won = {}
    for m in metrics:
        sign = 1 if m["better"] == "lower" else -1
        gains = [sign * (p["metrics"][m["name"]] - c["metrics"][m["name"]]) for p, c in zip(parent, change)]
        won[m["name"]] = {"change": sum(g > 0 for g in gains), "parent": sum(g < 0 for g in gains)}
    return won


def environment() -> dict:
    """The settings that move set-up time and resident memory on every workload."""
    names = ("PYTHONDONTWRITEBYTECODE", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    return {
        **{name: os.environ.get(name) for name in names},
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--out", required=True)
    args = p.parse_args()
    with open("BENCHMARK.json") as fh:
        config = json.load(fh)
    result = {"run_seconds": config["run_seconds"], "pairs": PAIRS, "environment": environment(), "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-trajectory-") as top:
        sides = {side: snapshot(root, os.path.join(top, side))
                 for side, root in (("parent", args.parent), ("change", os.getcwd()))}
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
            result["workloads"][workload]["pairs_won"] = pairs_won(
                config["end_to_end"], runs["parent"], runs["change"])
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
