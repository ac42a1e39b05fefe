"""Shared test references."""

from __future__ import annotations

import sys

import numpy as np
import pytest

from opmeas.effects import validate_effect
from opmeas.ensembles import _MARGIN, ObjectivityTrial, Prop1Trial, _ginibre, _pick_dim, trial_rng
from opmeas.errors import OpmeasError
from opmeas.linalg import eig_hermitian, hermitize
from opmeas.localization import LocalizationMap
from opmeas.luders import causality_check_C, objectivity_check, proposition1_verify
from opmeas.povm import build_pom, effect_of
from opmeas.serialize import _is_finite_number


def _povm_marginal(povm, model) -> LocalizationMap:
    """Reference position marginal of a phase-space POVM over Z_N x Z_N:
    E_q = sum_p G(q, p), summed over the POVM's effects."""
    n = model.n_sites
    assert set(povm.outcomes) == {(q, p) for q in range(n) for p in range(n)}
    effects = [effect_of(povm, {(q, p) for p in range(n)}).op for q in range(n)]
    return LocalizationMap(base_pom=build_pom(effects, require_normalized=povm.normalized), model=model)


@pytest.fixture
def povm_marginal():
    """The summing reference that ``localization.position_marginal`` gives in closed form."""
    return _povm_marginal


def count_calls(monkeypatch, module, name: str) -> list:
    """Wrap every opmeas binding of module.<name> so each call's arguments are recorded."""
    original = getattr(module, name)
    calls: list = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("opmeas") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls


# ---------------------------------------------------------------------------
# the per-entry loop that ``serialize.matrix_from_json``'s array pass replaces


def matrix_from_json_loop(obj) -> np.ndarray:
    """Reference for ``matrix_from_json``: each entry checked and converted on
    its own, in row-major order."""
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


# ---------------------------------------------------------------------------
# per-trial loops that the stacked ensemble drivers replace


def random_pom_loop(rng, dim, n_outcomes):
    """Reference for ``ensembles.random_pom``, one matrix at a time."""
    raw = [hermitize(g.conj().T @ g) for g in (_ginibre(rng, dim) for _ in range(n_outcomes))]
    eig = eig_hermitian(sum(raw))
    w = eig.eigenvectors @ np.diag(1.0 / np.sqrt(eig.eigenvalues)) @ eig.eigenvectors.conj().T
    return build_pom([hermitize(w @ m @ w) for m in raw], require_normalized=True)


def random_effect_loop(rng, dim):
    """Reference for ``ensembles.random_effect``."""
    g = _ginibre(rng, dim)
    m = hermitize(g.conj().T @ g)
    top = eig_hermitian(m).eigenvalues[-1]
    return validate_effect(m * (rng.uniform(0.2, 1.0 - _MARGIN) / top))


def _diagonal_pom_loop(u, weights):
    """The POM diagonal in the basis u with the (d, K) outcome weights."""
    effects = [hermitize(u @ np.diag(weights[:, i].astype(complex)) @ u.conj().T) for i in range(weights.shape[1])]
    return build_pom(effects, require_normalized=True)


def random_commuting_pom_and_effect_loop(rng, dim, n_outcomes):
    """Reference for ``ensembles.random_commuting_pom_and_effect``."""
    q, r = np.linalg.qr(_ginibre(rng, dim))
    u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    pom = _diagonal_pom_loop(u, rng.dirichlet(np.ones(n_outcomes), size=dim))
    b = validate_effect(hermitize(u @ np.diag(rng.uniform(0.0, 1.0, size=dim).astype(complex)) @ u.conj().T))
    return pom, b


def prop1_pairs(seed, trials, dims, outcomes):
    """The (dim, kind, POM, effect) of each trial of ``run_prop1_trials``, one
    trial after another from the reference generators."""
    for t in range(trials):
        rng = trial_rng(seed, t)
        dim = _pick_dim(rng, dims)
        n_out = _pick_dim(rng, outcomes)
        commuting = rng.uniform() < 1.0 / 3.0
        if commuting:
            pom, b = random_commuting_pom_and_effect_loop(rng, dim, n_out)
        else:
            pom = random_pom_loop(rng, dim, n_out)
            b = random_effect_loop(rng, dim)
        yield dim, "commuting" if commuting else "generic", pom, b


def run_prop1_trials_loop(seed, trials, dims=(2, 6), outcomes=(2, 2), tol=1e-8):
    """Reference for ``run_prop1_trials``: one ``proposition1_verify`` per trial."""
    records = []
    for t, (dim, kind, pom, b) in enumerate(prop1_pairs(seed, trials, dims, outcomes)):
        rep = proposition1_verify(pom, b, tol)
        records.append(
            Prop1Trial(
                seed=seed,
                trial=t,
                dim=dim,
                outcomes=len(pom),
                kind=kind,
                case=rep.case,
                commute=rep.commute,
                nondisturb=rep.nondisturb,
                equivalent=rep.equivalent,
                max_commutator=rep.max_commutator,
                deviation=rep.deviation,
            )
        )
    return records


def objectivity_pairs(seed, trials, dims, outcomes):
    """The (dim, kind, POM A, POM B) of each trial of ``run_objectivity_trials``,
    one trial after another from the reference generators."""
    for t in range(trials):
        rng = trial_rng(seed, t)
        dim = _pick_dim(rng, dims)
        commuting = rng.uniform() < 1.0 / 3.0
        if commuting:
            pom_a, _ = random_commuting_pom_and_effect_loop(rng, dim, _pick_dim(rng, outcomes))
            # second POM diagonal in the same basis: coarse-grain-free redraw
            u = eig_hermitian(pom_a.stack[0]).eigenvectors
            pom_b = _diagonal_pom_loop(u, rng.dirichlet(np.ones(_pick_dim(rng, outcomes)), size=dim))
        else:
            pom_a = random_pom_loop(rng, dim, _pick_dim(rng, outcomes))
            pom_b = random_pom_loop(rng, dim, _pick_dim(rng, outcomes))
        yield dim, "commuting" if commuting else "generic", pom_a, pom_b


def run_objectivity_trials_loop(seed, trials, dims=(2, 6), outcomes=(2, 4), tol=1e-8):
    """Reference for ``run_objectivity_trials``: one ``objectivity_check`` per
    trial, and one ``causality_check_C`` where the operations commute."""
    records = []
    for t, (dim, kind, pom_a, pom_b) in enumerate(objectivity_pairs(seed, trials, dims, outcomes)):
        rep = objectivity_check(pom_a, pom_b, tol)
        link_holds = True
        if rep.ops_commute:
            cc = causality_check_C(pom_a, pom_b, tol)
            link_holds = not (cc.a_disturbs_b or cc.b_disturbs_a)
        records.append(
            ObjectivityTrial(
                seed=seed,
                trial=t,
                dim=dim,
                kind=kind,
                ops_commute=rep.ops_commute,
                effects_commute=rep.effects_commute,
                agree=rep.agree,
                max_order_gap=rep.max_order_gap,
                link_holds=link_holds,
            )
        )
    return records
