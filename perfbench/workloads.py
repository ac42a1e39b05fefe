"""Workload plans: the CLI commands of one round and the input files they read.

A plan is built from the workload name and the seed alone, so the worker
(which runs the commands) and the parent (which checks their output) build
the same plan independently.  Input files are written here in the
documented JSON wire format with the standard ``json`` module; nothing in
this file imports ``opmeas``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("ensembles", "family-sweep", "phase-space", "inputs")

PHASE_SPACE_SIZES = tuple(range(4, 17))
FAMILY_SIZES = (8, 16, 32)
INPUT_TOLS = (1e-10, 1e-8, 1e-6, 1e-3)
LEAKAGE_N = 32
POM_N = 16  # coherent POM with POM_N**2 = 256 outcomes


@dataclass
class Op:
    """One CLI invocation, the kind of check its output gets, and what the check needs."""

    kind: str
    argv: list[str]
    expect: dict = field(default_factory=dict)
    # Name of a known program fault that makes this operation fail today.
    known_fault: str | None = None


@dataclass
class Plan:
    ops: list[Op]
    files: dict[str, object]  # file name -> JSON object
    items: int  # workload items completed by one round

    def write(self, directory: str) -> None:
        for name, obj in self.files.items():
            with open(os.path.join(directory, name), "w") as fh:
                fh.write(json.dumps(obj))


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def vector_json(v: np.ndarray) -> list:
    """Complex entries as [re, im] pairs, for a vector or (nested) for a matrix."""
    a = np.asarray(v, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def matrix_json(m: np.ndarray) -> dict:
    return {"dim": np.shape(m)[0], "entries": vector_json(m)}


def random_unit_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def weyl_orbit(eta: np.ndarray) -> np.ndarray:
    """Columns X^q Z^p eta for (q, p) in row-major order, from explicit X and Z matrices."""
    n = eta.shape[0]
    x = np.roll(np.eye(n), 1, axis=0)  # X|k> = |k+1 mod n>
    z = np.diag(np.exp(2j * np.pi * np.arange(n) / n))
    cols = []
    for q in range(n):
        xq = np.linalg.matrix_power(x, q)
        for p in range(n):
            cols.append(xq @ np.linalg.matrix_power(z, p) @ eta)
    return np.array(cols).T


def _ensembles(seed: int) -> Plan:
    cli_seed = int(_rng(seed, "ensembles").integers(0, 2**31))
    argv = ["luders-verify", "--seed", str(cli_seed), "--trials", "200", "--dims", "2..6",
            "--format", "json"]
    return Plan(ops=[Op("ensembles", argv, {"seed": cli_seed, "trials": 200, "tol": 1e-8})],
                files={}, items=200)


def _family_sweep(seed: int) -> Plan:
    # The built-in family is fixed; the seed does not change this workload's input.
    argv = ["causality-scan", "--format", "json"]
    return Plan(ops=[Op("family-sweep", argv, {"sizes": FAMILY_SIZES})], files={},
                items=6 * len(FAMILY_SIZES))


def _phase_space(seed: int) -> Plan:
    rng = _rng(seed, "phase-space")
    ops, files = [], {}
    for n in PHASE_SPACE_SIZES:
        eta = random_unit_vector(rng, n)
        name = f"coherent-{n}.json"
        files[name] = {"n_sites": n, "construction": "coherent", "hamiltonian": "hopping",
                       "fiducial": vector_json(eta)}
        ops.append(Op("phase-space", ["localization-demo", "--model", name, "--format", "json"],
                      {"n": n, "fiducial": eta}))
    items = sum(n * n * (n * n - 1) // 2 for n in PHASE_SPACE_SIZES)
    return Plan(ops=ops, files=files, items=items)


def _effect_batch(rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Effects whose spectra sit far from every threshold in INPUT_TOLS.

    Projections (spectrum {0, 1}), interior effects (spectrum in [0.05, 0.95])
    and mixed ones (some eigenvalues exactly 0 or 1, the rest interior).
    """
    batch = {}
    for i, dim in enumerate((2, 3, 4, 6, 8, 12)):
        u = random_unitary(rng, dim)
        rank = int(rng.integers(1, dim))
        proj = np.r_[np.ones(rank), np.zeros(dim - rank)]
        inner = rng.uniform(0.05, 0.95, dim)
        mixed = np.r_[1.0, 0.0, rng.uniform(0.05, 0.95, dim - 2)]
        for kind, spectrum in (("projection", proj), ("interior", inner), ("mixed", mixed)):
            batch[f"effect-{kind}-{i}.json"] = (u * spectrum) @ u.conj().T
    return batch


def _inputs(seed: int) -> Plan:
    rng = _rng(seed, "inputs")
    ops, files = [], {}

    # effect-check over a batch of valid effects at several tolerances.  The
    # diag(0.9995, 0) file is read at every tolerance; at 1e-3 the report
    # claims "sharp" with rank P1 = 0 (is_sharp sees --tol, the rank
    # projections do not).
    effects = _effect_batch(rng)
    effects["effect-near-one.json"] = np.diag([0.9995, 0.0])
    for name, m in effects.items():
        files[name] = {**matrix_json(m), "kind": "effect"}
        for tol in INPUT_TOLS:
            ops.append(Op(
                "effect-check",
                ["effect-check", "--effect", name, "--tol", repr(tol), "--format", "json"],
                {"matrix": m, "tol": tol},
                known_fault="effect-check ranks ignore --tol" if name == "effect-near-one.json"
                and tol == 1e-3 else None,
            ))

    # Malformed effect files: each must give exit 1 and one line on stderr.
    malformed = {
        "bad-ragged.json": {"dim": 2, "entries": [[[1, 0], [0, 0]], [[0, 0]]]},
        "bad-not-hermitian.json": matrix_json(np.array([[0.5, 0.3], [0.0, 0.5]])),
        "bad-spectrum.json": matrix_json(np.diag([1.5, 0.2])),
        "bad-bool-dim.json": {"dim": True, "entries": [[[0.5, 0.0]]]},
    }
    for name, obj in malformed.items():
        files[name] = obj
        ops.append(Op("bad-input", ["effect-check", "--effect", name], {},
                      known_fault="bool dim escapes as TypeError" if name == "bad-bool-dim.json"
                      else None))

    # One injected pair on a 256-outcome coherent POM.
    eta = random_unit_vector(rng, POM_N)
    vecs = weyl_orbit(eta)
    u = random_unitary(rng, POM_N)
    b = (u * rng.uniform(0.05, 0.95, POM_N)) @ u.conj().T
    files["pom-coherent.json"] = {
        "outcomes": [[q, p] for q in range(POM_N) for p in range(POM_N)],
        "effects": [matrix_json(np.outer(v, v.conj()) / POM_N) for v in vecs.T],
        "normalized": True,
    }
    files["pom-effect.json"] = {**matrix_json(b), "kind": "effect"}
    ops.append(Op("injected-pair",
                  ["luders-verify", "--pom", "pom-coherent.json", "--effect", "pom-effect.json",
                   "--format", "json"],
                  {"vectors": vecs, "effect": b, "tol": 1e-8}))

    # Leakage series for the three constructions at N = LEAKAGE_N.
    n = LEAKAGE_N
    kernel = rng.uniform(0.1, 1.0, int(rng.integers(3, 6)))
    kernel = kernel / kernel.sum()
    fiducial = random_unit_vector(rng, n)
    models = {
        "sharp": {},
        "smeared": {"kernel": [float(k) for k in kernel]},
        "coherent": {"fiducial": vector_json(fiducial)},
    }
    for construction, extra in models.items():
        name = f"model-{construction}.json"
        files[name] = {"n_sites": n, "construction": construction, "hamiltonian": "hopping",
                       **extra}
        ops.append(Op("leakage", ["causality-scan", "--model", name, "--format", "json"],
                      {"n": n, "construction": construction, "kernel": kernel,
                       "fiducial": fiducial}))
    return Plan(ops=ops, files=files, items=len(ops))


_BUILDERS = {
    "ensembles": _ensembles,
    "family-sweep": _family_sweep,
    "phase-space": _phase_space,
    "inputs": _inputs,
}


def plan(workload: str, seed: int) -> Plan:
    return _BUILDERS[workload](seed)
