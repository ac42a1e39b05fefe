"""JSON wire formats for matrices, POMs, and lattice model configs.

Matrix: ``{"dim": n, "entries": [[[re, im], ...], ...]}`` — n rows of n
two-element [real, imag] pairs.  Pom: ``{"outcomes": [...], "effects":
[Matrix, ...], "normalized": bool}``, each outcome a number, a string or a
flat list of those.  Model config::

    {"n_sites": 32, "hamiltonian": "hopping" | Matrix,
     "light_speed": 1.0, "time_step": 1.0,
     "construction": "sharp" | "smeared" | "coherent",
     "kernel": [...], "fiducial": [...]}

Loaders validate shape strictly (ragged rows are rejected) and route all
failures through OpmeasError so the CLI can map them to exit code 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .effects import Effect, validate_effect
from .errors import OpmeasError
from .linalg import MAX_DIM
from .localization import (
    LatticeModel,
    LocalizationMap,
    gaussian_fiducial,
    make_model,
    position_marginal,
    sharp_position_map,
    smeared_position_map,
    three_point_kernel,
)
from .povm import Pom, build_pom


def matrix_to_json(m: np.ndarray) -> dict:
    a = np.asarray(m, dtype=complex)
    return {
        "dim": a.shape[0],
        "entries": [[[float(z.real), float(z.imag)] for z in row] for row in a],
    }


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict) or "dim" not in obj or "entries" not in obj:
        raise OpmeasError("matrix JSON needs 'dim' and 'entries'")
    dim = obj["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise OpmeasError(f"bad matrix dim {dim!r}")
    entries = obj["entries"]
    if not isinstance(entries, list) or len(entries) != dim:
        raise OpmeasError(f"expected {dim} rows, got {len(entries) if isinstance(entries, list) else type(entries).__name__}")
    out = np.zeros((dim, dim), dtype=complex)
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != dim:
            raise OpmeasError(f"row {i} is ragged (expected {dim} entries)")
        for j, cell in enumerate(row):
            if not isinstance(cell, list) or len(cell) != 2:
                raise OpmeasError(f"entry ({i},{j}) must be a [re, im] pair")
            re, im = cell
            if not (_is_finite_number(re) and _is_finite_number(im)):
                raise OpmeasError(f"entry ({i},{j}) must hold two finite numbers")
            out[i, j] = complex(re, im)
    return out


def _is_finite_number(x) -> bool:
    """True for a JSON number whose float value is finite.  A bool is not
    one: its type is a subclass of int, not int."""
    try:
        return type(x) in (int, float) and math.isfinite(x)
    except OverflowError:  # an int beyond the float range
        return False


def effect_to_json(e: Effect) -> dict:
    out = matrix_to_json(e.op)
    out["kind"] = "effect"
    return out


def effect_from_json(obj) -> Effect:
    if isinstance(obj, dict) and obj.get("kind", "effect") != "effect":
        raise OpmeasError(f"expected an effect, got kind {obj['kind']!r}")
    return validate_effect(matrix_from_json(obj))


def pom_to_json(pom: Pom) -> dict:
    return {
        "outcomes": [list(o) if isinstance(o, tuple) else o for o in pom.outcomes],
        "effects": [matrix_to_json(m) for m in pom.stack],
        "normalized": pom.normalized,
    }


def pom_from_json(obj, require_normalized: bool | None = None) -> Pom:
    if not isinstance(obj, dict) or not isinstance(obj.get("effects"), list):
        raise OpmeasError("pom JSON needs an 'effects' list")
    effects = [matrix_from_json(e) for e in obj["effects"]]
    outcomes = obj.get("outcomes")
    if outcomes is not None:
        if not isinstance(outcomes, list):
            raise OpmeasError("pom 'outcomes' must be a list")
        outcomes = [_outcome_label(o) for o in outcomes]
    want_normalized = obj.get("normalized", False) if require_normalized is None else require_normalized
    return build_pom(effects, require_normalized=bool(want_normalized), outcomes=outcomes)


def _outcome_label(o):
    """A label is a number, a string, or a flat list of those, read as a tuple."""
    if isinstance(o, (int, float, str)):
        return o
    if isinstance(o, list) and all(isinstance(x, (int, float, str)) for x in o):
        return tuple(o)
    raise OpmeasError(f"outcome label {o!r} is not a number, a string or a flat list of those")


def load_json(path) -> object:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise OpmeasError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise OpmeasError(f"{path} is not UTF-8 text: {exc}") from exc
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an int literal past the digit limit
        raise OpmeasError(f"invalid JSON in {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# model configs


@dataclass(frozen=True)
class ModelConfig:
    n_sites: int
    hamiltonian: object = "hopping"  # "hopping" or an explicit matrix
    light_speed: float = 1.0
    time_step: float = 1.0
    construction: str = "sharp"
    kernel: np.ndarray | None = None
    fiducial: np.ndarray | None = None


def model_config_from_json(obj) -> ModelConfig:
    if not isinstance(obj, dict):
        raise OpmeasError("model config must be a JSON object")
    if "n_sites" not in obj:
        raise OpmeasError("model config needs 'n_sites'")
    n = obj["n_sites"]
    if not isinstance(n, int) or n < 2:
        raise OpmeasError(f"bad n_sites {n!r}")
    if n > MAX_DIM:
        raise OpmeasError(f"n_sites {n} exceeds the largest supported lattice, {MAX_DIM} sites")
    ham = obj.get("hamiltonian", "hopping")
    if isinstance(ham, dict):
        ham = matrix_from_json(ham)
    elif ham != "hopping":
        raise OpmeasError("hamiltonian must be 'hopping' or a matrix object")
    construction = obj.get("construction", "sharp")
    if construction not in ("sharp", "smeared", "coherent"):
        raise OpmeasError(f"unknown construction {construction!r}")
    for key in ("light_speed", "time_step"):
        value = obj.get(key, 1.0)
        if not _is_finite_number(value) or value <= 0:
            raise OpmeasError(f"{key} must be a finite positive number, got {value!r}")
    kernel = obj.get("kernel")
    if kernel is not None:
        kernel = _expand_kernel(kernel, n)
    elif construction == "smeared":
        kernel = three_point_kernel(n)
    fiducial = obj.get("fiducial")
    if fiducial is not None:
        fiducial = _parse_vector(fiducial, n)
    elif construction == "coherent":
        fiducial = gaussian_fiducial(n)
    return ModelConfig(
        n_sites=n,
        hamiltonian=ham,
        light_speed=float(obj.get("light_speed", 1.0)),
        time_step=float(obj.get("time_step", 1.0)),
        construction=construction,
        kernel=kernel,
        fiducial=fiducial,
    )


def _expand_kernel(kernel, n: int) -> np.ndarray:
    """Short kernels are placed at offsets 0..k-1 and zero-padded to length n."""
    if not isinstance(kernel, list) or not all(_is_finite_number(x) for x in kernel):
        raise OpmeasError("kernel must be a list of finite numbers")
    k = np.asarray(kernel, dtype=float)
    if k.shape[0] > n:
        raise OpmeasError(f"kernel longer than the lattice ({k.shape[0]} > {n})")
    out = np.zeros(n)
    out[: k.shape[0]] = k
    return out


def _parse_vector(entries, n: int) -> np.ndarray:
    """Vector entries are finite numbers or [re, im] pairs of them."""
    if not isinstance(entries, list) or len(entries) != n:
        raise OpmeasError(f"fiducial must be a list of {n} entries")
    out = np.zeros(n, dtype=complex)
    for i, cell in enumerate(entries):
        if _is_finite_number(cell):
            out[i] = cell
        elif isinstance(cell, list) and len(cell) == 2 and all(map(_is_finite_number, cell)):
            out[i] = complex(cell[0], cell[1])
        else:
            raise OpmeasError(f"fiducial entry {i} must be a finite number or [re, im] pair")
    return out


def build_model(cfg: ModelConfig) -> LatticeModel:
    ham = None if isinstance(cfg.hamiltonian, str) else np.asarray(cfg.hamiltonian, dtype=complex)
    return make_model(
        cfg.n_sites,
        hamiltonian=ham,
        light_speed=cfg.light_speed,
        time_step=cfg.time_step,
    )


def build_construction(cfg: ModelConfig) -> LocalizationMap:
    """Realize the configured localization map.

    The coherent construction is the closed-form position marginal of the
    fiducial's phase-space POVM; the POVM itself is not built here.
    """
    model = build_model(cfg)
    if cfg.construction == "sharp":
        return sharp_position_map(model)
    if cfg.construction == "smeared":
        return smeared_position_map(model, cfg.kernel)
    return position_marginal(model, cfg.fiducial)
