"""Shared test references."""

from __future__ import annotations

import sys

import pytest

from opmeas.localization import LocalizationMap
from opmeas.povm import build_pom, effect_of


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
