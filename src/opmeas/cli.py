"""Command-line front end.

Four subcommands::

    opmeas effect-check       --effect FILE        classify one effect
    opmeas luders-verify      [--pom F --effect F] equivalence ensembles
    opmeas localization-demo  --model FILE         condition table for a map
    opmeas causality-scan     [--model FILE]       combined scan (+ leakage)

Each takes --tol, --format and --out; luders-verify, the one that draws
random ensembles, also takes --seed, --trials and --dims, and
causality-scan takes --t-max.

Exit codes: 0 = success, 1 = input error, 2 = finding (an equivalence
counterexample or a consistency-assertion violation).  Output is fully
deterministic for fixed flags — all randomness is derived from --seed via
a counter-based generator, reports carry no timestamps, and CSV is always
written with "\\n" line endings — so identical invocations produce
byte-identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys

import numpy as np

from .causality import builtin_model_family, leakage_scan, schlieder_scan, singleton_conditions
from .effects import TOL_ONE, Projection, endpoint_projection, is_sharp
from .ensembles import run_objectivity_trials, run_prop1_trials
from .errors import OpmeasError
from .linalg import MAX_DIM, eig_hermitian
from .localization import SpatialSet, phase_space_commutativity
from .luders import proposition1_verify
from .povm import row_commutativity
from .serialize import (
    effect_from_json,
    load_json,
    build_construction,
    model_config_from_json,
    pom_from_json,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_FINDING = 2


def _parse_dims(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise OpmeasError(f"--dims wants the form A..B, got {text!r}") from None
    if lo < 1 or hi < lo:
        raise OpmeasError(f"--dims range {text!r} is empty or invalid")
    if hi > MAX_DIM:
        raise OpmeasError(f"--dims range {text!r} exceeds the largest supported dimension, {MAX_DIM}")
    return lo, hi


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([_cell(x) for x in row])
    return buf.getvalue()


def _cell(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise OpmeasError(f"cannot write {out}: {exc}") from exc


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# effect-check


def cmd_effect_check(cfg: argparse.Namespace) -> int:
    if cfg.effect_path is None:
        raise OpmeasError("effect-check needs --effect FILE")
    e = effect_from_json(load_json(cfg.effect_path))
    eig = eig_hermitian(e.op)
    evals = [float(v) for v in eig.eigenvalues]
    rank1, rank0 = (Projection(op=endpoint_projection(eig, which, cfg.tol)).rank for which in ("one", "zero"))
    if is_sharp(e, cfg.tol):
        label = "sharp"
    elif rank1 == 0:  # strongly unsharp: no eigenvalue within tol of 1
        label = "strongly unsharp"
    else:
        label = "unsharp"
    if cfg.fmt == "json":
        text = _json_text(
            {
                "classification": label,
                "eigenvalues": evals,
                "rank_p1": rank1,
                "rank_p0": rank0,
            }
        )
    elif cfg.fmt == "csv":
        text = _csv_text(
            ["classification", "eigenvalues", "rank_p1", "rank_p0"],
            [[label, ";".join(repr(v) for v in evals), rank1, rank0]],
        )
    else:
        text = (
            f"classification: {label}\n"
            f"eigenvalues: {evals}\n"
            f"rank P1 (eigenvalue-1 subspace): {rank1}\n"
            f"rank P0 (kernel): {rank0}\n"
        )
    _emit(text, cfg.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# luders-verify


def cmd_luders_verify(cfg: argparse.Namespace) -> int:
    dims = _parse_dims(cfg.dims)
    if cfg.trials < 1:
        raise OpmeasError("--trials must be at least 1")
    if cfg.seed < 0:
        raise OpmeasError("--seed must be non-negative")
    if (cfg.pom_path is None) != (cfg.effect_path is None):
        raise OpmeasError("an injected pair needs both --pom and --effect")
    if cfg.pom_path is not None:
        pom = pom_from_json(load_json(cfg.pom_path), require_normalized=True)
        b = effect_from_json(load_json(cfg.effect_path))
        rep = proposition1_verify(pom, b, cfg.tol)
        rows = [[cfg.seed, pom.dim, rep.case, rep.max_commutator, rep.deviation, rep.equivalent]]
        summary = {
            "trials": 1,
            "counterexamples": 0 if rep.equivalent else 1,
            "commute": rep.commute,
            "nondisturb": rep.nondisturb,
            "equivalent": rep.equivalent,
        }
        bad = [] if rep.equivalent else [f"injected pair: {rep}"]
    else:
        prop1 = run_prop1_trials(cfg.seed, cfg.trials, dims, outcomes=(2, 5), tol=cfg.tol)
        objectivity = run_objectivity_trials(cfg.seed, cfg.trials, dims, tol=cfg.tol)
        rows = [
            [r.seed, r.dim, r.case, r.max_commutator, r.deviation, r.equivalent]
            for r in prop1
        ]
        bad = [
            f"proposition-1 counterexample: trial={r.trial} seed={r.seed} dim={r.dim} "
            f"kind={r.kind} max_commutator={r.max_commutator!r} deviation={r.deviation!r}"
            for r in prop1
            if not r.equivalent
        ] + [
            f"objectivity counterexample: trial={r.trial} seed={r.seed} dim={r.dim} "
            f"kind={r.kind} ops_commute={r.ops_commute} effects_commute={r.effects_commute} "
            f"link_holds={r.link_holds}"
            for r in objectivity
            if not (r.agree and r.link_holds)
        ]
        summary = {
            "trials": cfg.trials,
            "counterexamples": len(bad),
            "prop1_equivalent": sum(r.equivalent for r in prop1),
            "objectivity_agree": sum(r.agree for r in objectivity),
            "objectivity_link_holds": sum(r.link_holds for r in objectivity),
        }

    header = ["seed", "dim", "case", "max_commutator", "deviation", "equivalent"]
    if cfg.fmt == "csv":
        text = _csv_text(header, rows)
    elif cfg.fmt == "json":
        text = _json_text({"summary": summary, "rows": [dict(zip(header, r)) for r in rows], "findings": bad})
    else:
        lines = [f"{k}: {v}" for k, v in sorted(summary.items())]
        lines += bad
        text = "\n".join(lines) + "\n"
    _emit(text, cfg.out)
    if bad:
        sys.stderr.write("\n".join(bad) + "\n")
        return EXIT_FINDING
    return EXIT_OK


# ---------------------------------------------------------------------------
# localization-demo


def cmd_localization_demo(cfg: argparse.Namespace) -> int:
    if cfg.model is None:
        raise OpmeasError("localization-demo needs --model FILE")
    model_cfg = model_config_from_json(load_json(cfg.model))
    lmap = build_construction(model_cfg)
    n = lmap.model.n_sites

    table = singleton_conditions(lmap, cfg.tol)
    details = ("max over all shifts", "singleton pairs, strict", "singleton pairs")
    rows = [[r.condition, r.holds, r.worst_residual, d] for r, d in zip(table.rows, details)]
    # on an exactly covariant map [E_x, E_y] = T^x [E_0, E_{y-x}] T^-x: the orbit pairs (0, d) suffice
    base_comm = row_commutativity(lmap.base_pom, 1 if table.covariant else n, cfg.tol)
    rows += [
        ["base commutativity", base_comm.commutative, base_comm.max_commutator, str(base_comm.worst_pair)],
        ["strong unsharpness", table.strongly_unsharp, table.max_eigenvalue, "max singleton eigenvalue"],
    ]
    if model_cfg.construction == "coherent":
        pv = phase_space_commutativity(lmap.model, model_cfg.fiducial, cfg.tol)
        rows.append(
            ["phase-space commutativity", pv.commutative, pv.max_commutator, str(pv.worst_pair)]
        )

    header = ["condition", "holds", "value", "detail"]
    if cfg.fmt == "csv":
        text = _csv_text(header, rows)
    elif cfg.fmt == "json":
        text = _json_text({"construction": model_cfg.construction, "n_sites": n, "rows": [dict(zip(header, r)) for r in rows]})
    else:
        width = max(len(r[0]) for r in rows)
        lines = [f"construction: {model_cfg.construction}  n_sites: {n}"]
        for name, holds, value, detail in rows:
            lines.append(f"{name:<{width}}  {'PASS' if holds else 'FAIL'}  {value!r:<24}  {detail}")
        text = "\n".join(lines) + "\n"
    _emit(text, cfg.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# causality-scan


def _scan_rows(report) -> list[list]:
    rows = []
    for c in report.conditions:
        rows.append([report.label, "condition", c.condition, c.worst_residual, c.holds, c.worst_case])
    for desc, top in report.max_eigenvalues:
        rows.append([report.label, "max_eigenvalue", desc, top, "", ""])
    rows.append([report.label, "verdict", report.verdict, "", "", ""])
    return rows


def cmd_causality_scan(cfg: argparse.Namespace) -> int:
    findings: list[str] = []
    all_rows: list[list] = []
    verdicts = {}
    if cfg.model is not None:
        model_cfg = model_config_from_json(load_json(cfg.model))
        maps = [(model_cfg.construction, build_construction(model_cfg))]
    else:
        maps = builtin_model_family()
    for label, lmap in maps:
        horizon = _default_horizon(cfg.t_max, lmap.model.n_sites, lmap.model)
        report = schlieder_scan(lmap, horizon, cfg.tol, label=label)
        all_rows += _scan_rows(report)
        findings += list(report.findings)
        verdicts[label] = report.verdict

    if cfg.model is not None:  # the leakage series of the one map's site-0 state
        phi = np.zeros(lmap.model.n_sites, dtype=complex)
        phi[0] = 1.0
        times = [0.5 * k for k in range(0, 2 * horizon + 1)]
        series = leakage_scan(lmap, phi, SpatialSet({0}), times)
        for t, leak in zip(series.times, series.leakage):
            all_rows.append([label, "leakage", f"t={float(t)!r}", float(leak), "", ""])

    header = ["label", "section", "item", "value", "holds", "detail"]
    if cfg.fmt == "csv":
        text = _csv_text(header, all_rows)
    elif cfg.fmt == "json":
        text = _json_text(
            {
                "verdicts": verdicts,
                "rows": [dict(zip(header, r)) for r in all_rows],
                "findings": findings,
            }
        )
    else:
        lines = []
        for label, verdict in verdicts.items():
            lines.append(f"{label}: {verdict}")
        for r in all_rows:
            if r[1] == "condition":
                lines.append(
                    f"  [{r[0]}] {r[2]:<22} {'PASS' if r[4] else 'FAIL'}  residual={r[3]!r}  ({r[5]})"
                )
            elif r[1] in ("max_eigenvalue", "leakage"):
                lines.append(f"  [{r[0]}] {r[1]} {r[2]:<16} value={r[3]!r}")
        lines += findings
        text = "\n".join(lines) + "\n"
    _emit(text, cfg.out)
    if findings:
        sys.stderr.write("\n".join(findings) + "\n")
        return EXIT_FINDING
    return EXIT_OK


def _default_horizon(t_max: int | None, n: int, model) -> int:
    if t_max is not None:
        return t_max
    reach = 2.0 * model.light_speed * model.time_step
    limit = n / reach if reach > 0 else math.inf  # c·τ can underflow to zero
    return max(1, min(4, int(min(limit, 5.0)) - 1))


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; here 2 means 'finding', so remap to 1."""

    def error(self, message):
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: ``parse_args`` gives a fresh Namespace
    on every call, and no argument has a mutable default."""
    p = _Parser(prog="opmeas", description="operational quantum measurement checks")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--tol", type=float, default=TOL_ONE)
        sp.add_argument("--format", dest="fmt", choices=("text", "json", "csv"), default="text")
        sp.add_argument("--out", type=str, default=None, metavar="PATH")

    sp = sub.add_parser("effect-check", help="classify one effect from JSON")
    common(sp)
    sp.add_argument("--effect", dest="effect_path", type=str, metavar="PATH")

    sp = sub.add_parser("luders-verify", help="equivalence ensembles or one injected pair")
    common(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=int, default=200)
    sp.add_argument("--dims", type=str, default="2..6", metavar="A..B")
    sp.add_argument("--pom", dest="pom_path", type=str, metavar="PATH")
    sp.add_argument("--effect", dest="effect_path", type=str, metavar="PATH")

    sp = sub.add_parser("localization-demo", help="condition table for one construction")
    common(sp)
    sp.add_argument("--model", type=str, metavar="PATH")

    sp = sub.add_parser("causality-scan", help="combined scan; sweeps built-ins without --model")
    common(sp)
    sp.add_argument("--model", type=str, metavar="PATH")
    sp.add_argument("--t-max", dest="t_max", type=int, default=None)

    return p


_COMMANDS = {
    "effect-check": cmd_effect_check,
    "luders-verify": cmd_luders_verify,
    "localization-demo": cmd_localization_demo,
    "causality-scan": cmd_causality_scan,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits itself on bad flags / --help
        return int(exc.code or 0)
    try:
        if args.tol <= 0:
            raise OpmeasError("--tol must be positive")
        if not math.isfinite(args.tol):
            raise OpmeasError("--tol must be finite")
        return _COMMANDS[args.command](args)
    except OpmeasError as exc:
        sys.stderr.write(f"opmeas: error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
