"""Seeded ensemble drivers: determinism and construction guarantees."""

from __future__ import annotations

import numpy as np
import pytest

from opmeas.effects import Effect, is_sharp
from opmeas.ensembles import (
    random_effect,
    random_orthogonal_support_pair,
    random_overlapping_pair,
    random_pom,
    random_projective_pom,
    random_unitary,
    run_annihilation_trials,
    run_objectivity_trials,
    run_prop1_trials,
    run_sharpness_trials,
    trial_rng,
)
from opmeas.linalg import op_norm
from opmeas.povm import is_sharp_pom


def test_trial_rng_streams_are_independent_of_trial_count():
    # Record for (seed, trial) must not depend on how many trials run.
    a = run_prop1_trials(seed=42, trials=10, dims=(2, 6))
    b = run_prop1_trials(seed=42, trials=25, dims=(2, 6))
    for ra, rb in zip(a, b):
        assert ra == rb
    assert run_prop1_trials(seed=43, trials=5, dims=(2, 6)) != a[:5]


def test_random_unitary_is_unitary():
    for trial in range(5):
        u = random_unitary(trial_rng(0, trial), 4)
        assert op_norm(u @ u.conj().T - np.eye(4)) < 1e-12


def test_random_effect_spectrum_strictly_inside():
    for trial in range(10):
        e = random_effect(trial_rng(1, trial), 3)
        vals = np.linalg.eigvalsh(e.op)
        assert vals.min() >= 0.0 and vals.max() < 1.0


def test_random_pom_normalized():
    pom = random_pom(trial_rng(2, 0), 4, 3)
    total = pom.stack.sum(axis=0)
    assert op_norm(total - np.eye(4)) < 1e-10
    assert pom.normalized


def test_random_projective_pom_is_sharp():
    for trial in range(5):
        pom = random_projective_pom(trial_rng(3, trial), 5, 3)
        assert is_sharp_pom(pom)
        assert sum(np.linalg.matrix_rank(m) for m in pom.stack) == 5


def test_orthogonal_pair_annihilates_and_overlapping_does_not():
    for trial in range(10):
        e1, e2 = random_orthogonal_support_pair(trial_rng(4, trial), 4)
        assert op_norm(e1.op @ e2.op) < 1e-12
        f1, f2 = random_overlapping_pair(trial_rng(4, trial), 4)
        assert op_norm(f1.op @ f2.op) > 1e-4


def test_prop1_trials_cover_both_kinds_and_all_equivalent():
    records = run_prop1_trials(seed=0, trials=60, dims=(2, 4))
    kinds = {r.kind for r in records}
    assert kinds == {"commuting", "generic"}
    assert all(r.equivalent for r in records)
    assert {r.dim for r in records} <= {2, 3, 4}
    assert all(r.case in ("both", "alpha") for r in records)


def test_objectivity_trials_link_holds():
    records = run_objectivity_trials(seed=1, trials=40, dims=(2, 4))
    assert all(r.agree for r in records)
    assert all(r.link_holds for r in records)
    assert any(r.ops_commute for r in records)
    assert any(not r.ops_commute for r in records)


def test_annihilation_trials_agree():
    records = run_annihilation_trials(seed=2, trials=60, dims=(2, 5))
    assert all(r.agree for r in records)
    assert any(r.prod_zero for r in records)
    assert any(not r.prod_zero for r in records)


@pytest.mark.parametrize("tol", [0.5, 1e-8])
def test_annihilation_records_read_their_verdicts_from_their_norms(tol):
    # each record's norms are the ones its verdicts compare with the trial's tol
    for r in run_annihilation_trials(seed=0, trials=200, tol=tol):
        assert r.prod_zero == (r.prod_norm <= tol)
        assert r.ranges_orthogonal == (r.range_prod_norm <= tol)


def test_sharpness_trials_match_idempotency():
    records = run_sharpness_trials(seed=3, trials=60, dims=(2, 5))
    assert all(r.agree for r in records)
    assert any(r.sharp for r in records)
    assert any(not r.sharp for r in records)


def test_sharpness_driver_sharp_means_projection():
    rng = trial_rng(5, 0)
    pom = random_projective_pom(rng, 4, 2)
    for m in pom.stack:
        assert is_sharp(Effect(op=m))
        assert op_norm(m @ m - m) < 1e-12
