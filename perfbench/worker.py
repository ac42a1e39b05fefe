"""One workload in one fresh process: write the inputs, run timed rounds of CLI calls.

Usage (from ``run.py``, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE WORKDIR RESULT

Each round runs every operation of the workload's plan through
``opmeas.cli.main(argv)`` in this process.  The timed part of a round runs
from the start of its first command to the return of its last; output
checks happen in the parent.  Round 0's outputs are saved in full; later
rounds save only which operations printed something different.  With
SECONDS = 0 the worker stops after writing its inputs (a set-up probe).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

import workloads
from opmeas import cli


def run_op(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    exc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception as e:  # an escaping exception is the operation's outcome
            rc, exc = None, f"{type(e).__name__}: {e}"
    return {"rc": rc, "exc": exc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_round(ops) -> tuple[float, float, list[dict]]:
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    results = [run_op(op.argv) for op in ops]
    wall = time.perf_counter() - t0
    return wall, cpu_seconds() - cpu0, results


def main() -> int:
    workload, seed, seconds, trace, workdir, result_path = sys.argv[1:]
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    plan = workloads.plan(workload, seed)
    plan.write(workdir)
    ready = time.monotonic()
    report = {"ready": ready}
    if seconds > 0:
        os.chdir(workdir)
        report.update(measure(plan, seconds, trace))
        report["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(result_path, "w") as fh:
        json.dump(report, fh)
    return 0


def measure(plan, seconds: float, trace: bool) -> dict:
    """Run whole rounds until `seconds` have passed.

    Traced runs alternate untraced and traced rounds, starting untraced, and
    end only after at least one of each.
    """
    tracer = None
    if trace:
        from trace_calls import Tracer

        tracer = Tracer()
    start = time.perf_counter()
    rounds: list[dict] = []
    first: list[dict] | None = None
    layer_totals = []
    while not rounds or time.perf_counter() - start < seconds or (trace and len(rounds) < 2):
        traced = trace and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        try:
            wall, cpu, results = run_round(plan.ops)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            layer_totals.append(tracer.collect())
        if first is None:
            first = results
            changed = []
        else:
            changed = [i for i, (a, b) in enumerate(zip(first, results)) if a != b]
        rounds.append({"wall_s": wall, "cpu_s": cpu, "traced": traced, "changed": changed})
    report = {"rounds": rounds, "outputs": first}
    if trace:
        from trace_calls import per_round

        plain = statistics.median(r["wall_s"] for r in rounds if not r["traced"])
        traced_wall = statistics.median(r["wall_s"] for r in rounds if r["traced"])
        report["layers"] = per_round(layer_totals, traced_wall - plain)
    return report


if __name__ == "__main__":
    sys.exit(main())
