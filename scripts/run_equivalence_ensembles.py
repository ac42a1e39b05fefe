#!/usr/bin/env python3
"""Run the seeded equivalence ensembles and print a summary table.

Covers the commutativity/nondisturbance equivalence over POMs of two to
five outcomes (the binary ones fall under both of its cases), the
objectivity agreement with its causality link, the annihilation
reduction, and the sharpness dichotomy.

    python3 scripts/run_equivalence_ensembles.py --seed 0 --trials 200
"""

import argparse
import time

from opmeas.ensembles import (
    run_annihilation_trials,
    run_objectivity_trials,
    run_prop1_trials,
    run_sharpness_trials,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--dim-min", type=int, default=2)
    ap.add_argument("--dim-max", type=int, default=6)
    args = ap.parse_args()
    dims = (args.dim_min, args.dim_max)

    jobs = [
        ("prop1 2-5 outcomes",
         lambda: run_prop1_trials(args.seed, args.trials, dims, outcomes=(2, 5)),
         lambda r: r.equivalent),
        ("objectivity",
         lambda: run_objectivity_trials(args.seed, args.trials, dims),
         lambda r: r.agree and r.link_holds),
        ("annihilation",
         lambda: run_annihilation_trials(args.seed, args.trials, (2, 8)),
         lambda r: r.agree),
        ("sharpness",
         lambda: run_sharpness_trials(args.seed, args.trials, dims),
         lambda r: r.agree),
    ]
    print(f"{'ensemble':<20} {'ok':>6} {'trials':>7} {'seconds':>8}")
    failures = 0
    for name, job, good_record in jobs:
        t0 = time.perf_counter()
        records = job()
        dt = time.perf_counter() - t0
        good = sum(good_record(r) for r in records)
        failures += len(records) - good
        print(f"{name:<20} {good:>6} {len(records):>7} {dt:>8.2f}")
    raise SystemExit(1 if failures else 0)


if __name__ == "__main__":
    main()
