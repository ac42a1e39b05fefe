"""Per-layer call tracing, installed from outside the library.

Each traced function is replaced by a wrapper at every binding that holds
it: the defining module, every ``opmeas`` module that imported the name,
module-level dicts such as the CLI's ``_COMMANDS`` table, and the class
attribute for the ``from_pom`` classmethod.  A wrapper records one span
(function, parent span, start, end) in compact arrays; spans stay in memory
until ``collect`` folds them into per-function counts and self times.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

LAYERS = {
    "linalg": ("as_matrix", "eig_hermitian", "op_norm", "commutator_norm", "psd_sqrt"),
    "effects": ("validate_effect", "spectral_projection", "range_projection", "is_sharp"),
    "povm": ("build_pom", "effect_of", "is_commutative"),
    "luders": ("LudersInstrument.from_pom", "nondisturbance", "proposition1_verify",
               "objectivity_check", "causality_check_C"),
    "ensembles": ("run_prop1_trials", "run_objectivity_trials", "random_pom", "random_effect",
                  "random_commuting_pom_and_effect"),
    "localization": ("make_model", "propagator", "effect_for", "check_covariance",
                     "check_local_commutativity", "coherent_state_povm", "position_marginal"),
    "causality": ("schlieder_scan", "leakage_scan", "builtin_model_family", "inflated_set"),
    "serialize": ("load_json", "matrix_from_json", "effect_from_json", "pom_from_json",
                  "model_config_from_json", "build_construction"),
    "cli": ("cmd_effect_check", "cmd_luders_verify", "cmd_localization_demo",
            "cmd_causality_scan"),
}

TRACED = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

# Derived ratios: calls of the child made anywhere below the ancestor.
NESTED = {
    "povm.is_commutative.norms_per_pair": ("linalg.op_norm", "povm.is_commutative"),
    "localization.propagator.eigs_per_call": ("linalg.eig_hermitian", "localization.propagator"),
}


class Tracer:
    def __init__(self):
        self._fn = array("q")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._pairs = 0
        self._restore: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import opmeas  # noqa: F401  (loads every submodule)

        modules = [m for name, m in sys.modules.items()
                   if name == "opmeas" or name.startswith("opmeas.")]
        for idx, qualname in enumerate(TRACED):
            layer, path = qualname.split(".", 1)
            owner = sys.modules[f"opmeas.{layer}"]
            if "." in path:  # classmethod on a class
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                func = cls.__dict__[attr].__func__
                self._swap(cls, attr, classmethod(self._wrap(idx, func)), setattr)
                continue
            func = getattr(owner, path)
            wrapper = self._wrap(idx, func)
            bound = 0
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is func:
                        self._swap(module, key, wrapper, setattr)
                        bound += 1
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is func:
                                self._swap(value, k, wrapper, dict.__setitem__)
                                bound += 1
            if bound == 0:
                raise RuntimeError(f"no binding found for {qualname}")

    def uninstall(self) -> None:
        for target, key, original, setter in reversed(self._restore):
            setter(target, key, original)
        self._restore.clear()

    def _swap(self, target, key, new, setter) -> None:
        original = target[key] if isinstance(target, dict) else vars(target)[key]
        self._restore.append((target, key, original, setter))
        setter(target, key, new)

    def _wrap(self, idx: int, func):
        fn, parent, start, end, stack = self._fn, self._parent, self._start, self._end, self._stack
        clock = time.perf_counter
        counts_pairs = TRACED[idx] == "povm.is_commutative"

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if counts_pairs:
                k = len(args[0] if args else kwargs["pom"])
                self._pairs += k * (k - 1) // 2
            sid = len(fn)
            fn.append(idx)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                return func(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        return wrapper

    # -- aggregation --------------------------------------------------------

    def collect(self) -> dict[str, float]:
        """Fold the recorded spans into totals and clear them."""
        fn = np.array(self._fn, dtype=np.int64)
        parent = np.array(self._parent, dtype=np.int64)
        dur = np.array(self._end) - np.array(self._start)
        k = len(TRACED)
        calls = np.bincount(fn, minlength=k)
        nested = parent >= 0
        self_s = (np.bincount(fn, weights=dur, minlength=k)
                  - np.bincount(fn[parent[nested]], weights=dur[nested], minlength=k))
        out: dict[str, float] = {}
        for i, name in enumerate(TRACED):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_s[i])
        out["povm.is_commutative.pairs"] = self._pairs
        for metric, (child, ancestor) in NESTED.items():
            out[metric] = int(_count_under(fn, parent, TRACED.index(child), TRACED.index(ancestor)))
        for a in (self._fn, self._parent, self._start, self._end):
            del a[:]
        self._pairs = 0
        return out


def _count_under(fn: np.ndarray, parent: np.ndarray, child: int, ancestor: int) -> int:
    """Spans of `child` that have a span of `ancestor` somewhere above them."""
    anc = parent[fn == child]
    found = np.zeros(anc.shape[0], dtype=bool)
    while True:
        live = anc >= 0
        if not live.any():
            return int(found.sum())
        found[live] |= fn[anc[live]] == ancestor
        anc = np.where(live, parent[np.maximum(anc, 0)], -1)


def per_round(totals: list[dict[str, float]], overhead_s: float) -> dict[str, float]:
    """Average the per-round totals and turn the nested counts into ratios."""
    rounds = len(totals)
    out = {name: sum(t[name] for t in totals) / rounds for name in totals[0]}
    pairs = out["povm.is_commutative.pairs"]
    out["povm.is_commutative.norms_per_pair"] = (
        out["povm.is_commutative.norms_per_pair"] / pairs if pairs else 0.0)
    prop_calls = out["localization.propagator.calls"]
    out["localization.propagator.eigs_per_call"] = (
        out["localization.propagator.eigs_per_call"] / prop_calls if prop_calls else 0.0)
    out["trace.overhead_s"] = overhead_s
    return out
