"""Benchmark entry point: one workload, one fresh worker process, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload phase-space --seed 1 --seconds 20 --trace 0

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Failure details go to stderr.  See
README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))

SETUP_PROBES = 6  # extra set-up-only processes; set-up time is the median over all
WORKER_TIMEOUT_S = 150
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def blas_threads() -> int:
    return max(1, min(2, len(os.sched_getaffinity(0))))


def spawn(workload: str, seed: int, seconds: float, trace: bool, rundir: str) -> tuple[float, dict]:
    """Run one worker to completion; return its set-up time and its report."""
    workdir = tempfile.mkdtemp(dir=rundir)
    result_path = os.path.join(rundir, os.path.basename(workdir) + ".json")
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update({var: str(blas_threads()) for var in BLAS_THREAD_VARS})
    argv = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), str(seconds),
            "1" if trace else "0", workdir, result_path]
    started = time.monotonic()
    try:
        proc = subprocess.run(argv, env=env, stdout=sys.stderr, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    with open(result_path) as fh:
        report = json.load(fh)
    shutil.rmtree(workdir)
    return report["ready"] - started, report


def score(plan: workloads.Plan, report: dict) -> tuple[bool, int, int]:
    """Check every operation; return (correct, attempted, failed).

    An operation fails when its round-0 output fails its check, or when a
    later round printed anything different.  The run is correct when every
    failed operation is one with a known program fault.
    """
    problems = [checks.check(op, out) for op, out in zip(plan.ops, report["outputs"])]
    attempted = failed = 0
    unexpected = set()
    for r in report["rounds"]:
        changed = set(r["changed"])
        for i, op in enumerate(plan.ops):
            attempted += 1
            if problems[i] is None and i not in changed:
                continue
            failed += 1
            if op.known_fault is None or i in changed:
                unexpected.add(i)
    for i, problem in enumerate(problems):
        if problem is not None:
            fault = plan.ops[i].known_fault
            tag = f"known fault ({fault})" if fault else "FAILED"
            print(f"{tag}: opmeas {' '.join(plan.ops[i].argv)}: {problem}", file=sys.stderr)
    for r in report["rounds"]:
        for i in r["changed"]:
            print(f"FAILED: opmeas {' '.join(plan.ops[i].argv)}: output differs from round 0",
                  file=sys.stderr)
    return not unexpected, attempted, failed


def end_to_end(plan: workloads.Plan, report: dict, setups: list[float]) -> dict:
    wall = statistics.median(r["wall_s"] for r in report["rounds"])
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "work_per_s": (plan.items / wall, "items/s"),
        "cpu_s": (statistics.median(r["cpu_s"] for r in report["rounds"]), "s"),
        "peak_rss_mib": (report["peak_rss_mib"], "MiB"),
    }


def per_layer(report: dict) -> dict:
    def unit(name: str) -> str:
        if name.endswith("_s"):
            return "s"
        return "ratio" if name.endswith("_per_pair") or name.endswith("_per_call") else "count"

    return {name: (value, unit(name)) for name, value in report["layers"].items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not os.path.isfile(os.path.join("src", "opmeas", "cli.py")):
        print("run.py: run from the repository root (src/opmeas not found)", file=sys.stderr)
        return 2

    work_root = os.path.join(os.getcwd(), ".perfbench-work")
    os.makedirs(work_root, exist_ok=True)
    rundir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        # Set-up probes run half before and half after the measured worker, so
        # the median set-up time does not hang on one moment's machine load.
        probes = 0 if args.trace else SETUP_PROBES
        setups = [spawn(args.workload, args.seed, 0, False, rundir)[0] for _ in range(probes // 2)]
        setup, report = spawn(args.workload, args.seed, args.seconds, bool(args.trace), rundir)
        setups.append(setup)
        setups += [spawn(args.workload, args.seed, 0, False, rundir)[0]
                   for _ in range(probes - probes // 2)]
        plan = workloads.plan(args.workload, args.seed)
        correct, attempted, failed = score(plan, report)
        metrics = per_layer(report) if args.trace else end_to_end(plan, report, setups)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass  # another run still uses it

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
