"""The benchmark's own output checks, run on one round of every workload."""

from __future__ import annotations

from pathlib import Path

import pytest


@pytest.mark.parametrize("workload", ["ensembles", "family-sweep", "phase-space", "inputs"])
def test_every_benchmark_operation_passes_its_check(workload, monkeypatch, tmp_path):
    """Each operation of ``workloads.plan(workload, 1)``, run as the benchmark's
    worker runs it, prints what ``perfbench/checks.py`` expects."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import checks
    import workloads
    from worker import run_op

    assert workload in workloads.WORKLOADS
    plan = workloads.plan(workload, 1)
    plan.write(str(tmp_path))
    monkeypatch.chdir(tmp_path)  # the worker runs the plan from its input directory
    problems = {" ".join(op.argv): checks.check(op, run_op(op.argv)) for op in plan.ops}
    assert {argv: problem for argv, problem in problems.items() if problem is not None} == {}
