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

import itertools
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
    """The (dim, dim) complex matrix of a Matrix object.

    Validation is one array pass: the row, cell and number types are read as
    sets over the flattened cells, and the values come from one float
    conversion, checked finite as an array.  A bool, a string or None is not
    a number here, although ``np.array`` would coerce it.  Only when that
    screen rejects the input does a row-major walk name its first fault.
    """
    if not isinstance(obj, dict) or "dim" not in obj or "entries" not in obj:
        raise OpmeasError("matrix JSON needs 'dim' and 'entries'")
    dim = obj["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise OpmeasError(f"bad matrix dim {dim!r}")
    entries = obj["entries"]
    if not isinstance(entries, list) or len(entries) != dim:
        raise OpmeasError(f"expected {dim} rows, got {len(entries) if isinstance(entries, list) else type(entries).__name__}")
    if _all_lists(entries) and set(map(len, entries)) == {dim}:
        cells = list(itertools.chain.from_iterable(entries))
        if _all_lists(cells) and set(map(len, cells)) == {2}:
            values = _finite_floats(list(itertools.chain.from_iterable(cells)))
            if values is not None:
                return values.view(complex).reshape(dim, dim)
    raise OpmeasError(_first_fault(entries, dim))


def _all_lists(items: list) -> bool:
    return all(issubclass(t, list) for t in set(map(type, items)))


def _finite_floats(values: list) -> np.ndarray | None:
    """The float array of a list of JSON numbers, or None unless each is an
    int or a float (not a bool) whose float value is finite."""
    if not set(map(type, values)) <= {int, float}:
        return None
    try:
        out = np.array(values, dtype=float)
    except OverflowError:  # an int beyond the float range
        return None
    return out if np.isfinite(out).all() else None


def _first_fault(entries: list, dim: int) -> str:
    """The message for the first fault of a row-major walk over the rows of a
    matrix that ``matrix_from_json``'s screen rejected."""
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != dim:
            return f"row {i} is ragged (expected {dim} entries)"
        for j, cell in enumerate(row):
            if not isinstance(cell, list) or len(cell) != 2:
                return f"entry ({i},{j}) must be a [re, im] pair"
            if _finite_floats(cell) is None:
                return f"entry ({i},{j}) must hold two finite numbers"
    raise AssertionError("the screen rejected a well-formed matrix")


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
    k = _finite_floats(kernel) if isinstance(kernel, list) else None
    if k is None:
        raise OpmeasError("kernel must be a list of finite numbers")
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
