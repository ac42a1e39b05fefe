"""POM construction, additivity, sharpness, commutativity, coarse-graining."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opmeas.ensembles import random_pom, random_projective_pom, trial_rng
from opmeas.errors import (
    InvalidEffectError,
    NotNormalizedError,
    OpmeasError,
    SumExceedsIdentityError,
    UnknownOutcomeError,
)
from opmeas.linalg import commutator_norm, op_norm
from opmeas.localization import coherent_state_povm, gaussian_fiducial, make_model, position_marginal
from opmeas.povm import build_pom, coarse_grain, effect_of, is_commutative, is_sharp_pom


def diag(*entries) -> np.ndarray:
    return np.diag(np.asarray(entries, dtype=complex))


X = np.array([[0, 1], [1, 0]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def test_build_normalized_pom():
    pom = build_pom([diag(1, 0), diag(0, 1)], require_normalized=True)
    assert pom.normalized and len(pom) == 2 and pom.dim == 2


def test_build_rejects_sum_exceeding_identity():
    with pytest.raises(SumExceedsIdentityError):
        build_pom([diag(0.6, 0.6), diag(0.6, 0.6)], require_normalized=True)


def test_build_subnormalized_is_first_class():
    pom = build_pom([diag(0.3, 0.3)], require_normalized=False)
    assert not pom.normalized


def test_build_flags_invalid_entry_with_index():
    with pytest.raises(InvalidEffectError) as exc:
        build_pom([diag(0.5, 0.5), diag(1.5, 0.0)], require_normalized=False)
    assert exc.value.index == 1


def test_build_requires_normalization_when_asked():
    with pytest.raises(NotNormalizedError):
        build_pom([diag(0.5, 0.5)], require_normalized=True)


def test_build_rejects_duplicate_labels():
    with pytest.raises(OpmeasError):
        build_pom([diag(0.5, 0.5), diag(0.5, 0.5)], require_normalized=True, outcomes=["a", "a"])


def test_effect_of_full_set_and_empty_set():
    pom = build_pom([diag(1, 0), diag(0, 1)], require_normalized=True)
    assert np.array_equal(effect_of(pom, pom.outcomes).op, I2)
    assert np.array_equal(effect_of(pom, ()).op, np.zeros((2, 2)))


def test_effect_of_subset_sharp_position():
    effects = [diag(*(1.0 if i == x else 0.0 for i in range(4))) for x in range(4)]
    pom = build_pom(effects, require_normalized=True)
    assert np.array_equal(effect_of(pom, {0, 2}).op, diag(1, 0, 1, 0))


def test_effect_of_unknown_outcome():
    pom = build_pom([diag(1, 0), diag(0, 1)], require_normalized=True)
    with pytest.raises(UnknownOutcomeError):
        effect_of(pom, {7})


def test_effect_of_additive_over_disjoint_sets():
    pom = random_pom(trial_rng(0, 0), 4, 4)
    x, y = {0, 2}, {1}
    lhs = effect_of(pom, x | y).op
    rhs = effect_of(pom, x).op + effect_of(pom, y).op
    assert op_norm(lhs - rhs) < 1e-14


def test_near_certainty_excludes_disjoint_detection():
    # normalized POM: an eigenvalue-1 vector of E_X gives <phi|E_Y phi> ~ 0
    rng = trial_rng(3, 1)
    pom = random_projective_pom(rng, 5, 3)
    ex = effect_of(pom, {0, 1}).op
    evals, vecs = np.linalg.eigh(ex)
    for idx in np.nonzero(evals > 1 - 1e-10)[0]:
        phi = vecs[:, idx]
        assert np.real(phi.conj() @ effect_of(pom, {2}).op @ phi) <= 1e-10


def test_is_sharp_pom():
    sharp = build_pom([diag(1, 0), diag(0, 1)], require_normalized=True)
    blurred = build_pom([diag(0.5, 0.5), diag(0.5, 0.5)], require_normalized=True)
    single = build_pom([I2], require_normalized=True)
    assert is_sharp_pom(sharp)
    assert not is_sharp_pom(blurred)
    assert is_sharp_pom(single)


@given(st.integers(0, 5_000))
@settings(max_examples=30, deadline=None)
def test_sharpness_iff_disjoint_products_vanish(seed):
    # for normalized POMs: all pairwise products vanish <=> every effect sharp
    rng = trial_rng(seed, 0)
    dim = int(rng.integers(2, 6))
    n_out = int(rng.integers(2, min(dim, 4) + 1))
    if rng.uniform() < 0.5:
        pom = random_projective_pom(rng, dim, n_out)
    else:
        pom = random_pom(rng, dim, n_out)
    products_vanish = all(
        op_norm(pom.effects[i].op @ pom.effects[j].op) <= 1e-8
        for i in range(len(pom))
        for j in range(len(pom))
        if i != j
    )
    assert products_vanish == is_sharp_pom(pom)


def test_is_commutative_reports_worst_pair():
    pom = build_pom([diag(1, 0), diag(0, 1)], require_normalized=True)
    rep = is_commutative(pom)
    assert rep.commutative and rep.max_commutator == 0.0 and rep.worst_pair is None

    binary_x = build_pom([(I2 + X) / 2, (I2 - X) / 2], require_normalized=True)
    assert is_commutative(binary_x).commutative  # complements always commute

    mixed = build_pom([diag(1, 0) / 2, (I2 + X) / 4], require_normalized=False)
    rep = is_commutative(mixed)
    assert not rep.commutative and rep.worst_pair is not None


def _scan_loop(pom):
    """Reference: every pair through commutator_norm; strict > keeps the first of tied pairs."""
    worst, worst_pair = 0.0, None
    for i in range(len(pom)):
        for j in range(i + 1, len(pom)):
            c = commutator_norm(pom.effects[i].op, pom.effects[j].op)
            if c > worst:
                worst, worst_pair = c, (pom.outcomes[i], pom.outcomes[j])
    return worst, worst_pair


def _assert_scan_matches_loop(pom):
    worst, worst_pair = _scan_loop(pom)
    rep = is_commutative(pom, tol=0.0)  # tol 0 reports the worst pair of any nonzero maximum
    assert rep.max_commutator == worst
    assert rep.worst_pair == (worst_pair if worst > 0.0 else None)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 8),
    st.integers(1, 12),
    st.sampled_from(["random", "diagonal", "duplicated"]),
)
@settings(max_examples=150, deadline=None)
def test_is_commutative_matches_pair_loop_exactly(seed, dim, n_out, kind):
    rng = np.random.default_rng(seed)
    if kind == "random":
        pom = random_pom(rng, dim, n_out)
    elif kind == "diagonal":  # commute exactly: every commutator is the zero matrix
        w = rng.uniform(0.0, 1.0, (n_out, dim))
        pom = build_pom([np.diag(row).astype(complex) for row in w / w.sum(axis=0)], False)
    else:  # each effect twice, so equal pairs tie bit for bit
        half = [e.op / 2 for e in random_pom(rng, dim, (n_out + 1) // 2).effects]
        pom = build_pom([m for m in half for _ in range(2)][:n_out], False)
    _assert_scan_matches_loop(pom)


def test_is_commutative_matches_pair_loop_below_underflow():
    # Commutator entries near 1e-171 square to zero, so only the exact norm sees them.
    a = np.array([[0.5, 1e-170], [1e-170, 0.5]], dtype=complex)
    pom = build_pom([a, diag(0.3, 0.2)], False)
    assert is_commutative(pom, tol=0.0).max_commutator > 0.0
    _assert_scan_matches_loop(pom)


@pytest.mark.parametrize("n", range(4, 13))
@pytest.mark.parametrize("fiducial", ["gaussian", "random"])
def test_is_commutative_matches_pair_loop_on_coherent_povms(n, fiducial):
    model = make_model(n)
    if fiducial == "gaussian":
        eta = gaussian_fiducial(n)
    else:
        rng = np.random.default_rng(n)
        eta = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        eta /= np.linalg.norm(eta)
    povm = coherent_state_povm(model, eta)
    _assert_scan_matches_loop(povm)
    _assert_scan_matches_loop(position_marginal(povm, model).base_pom)


def test_coarse_grain_merges_and_preserves_normalization():
    effects = [diag(*(1.0 if i == x else 0.0 for i in range(4))) for x in range(4)]
    pom = build_pom(effects, require_normalized=True)
    merged = coarse_grain(pom, [{0, 1}, {2, 3}])
    assert merged.normalized and len(merged) == 2
    assert np.array_equal(merged.effects[0].op, diag(1, 1, 0, 0))
    assert np.array_equal(merged.effects[1].op, diag(0, 0, 1, 1))


def test_coarse_grain_trivial_and_singleton_partitions():
    pom = build_pom([diag(0.5, 0.2), diag(0.5, 0.8)], require_normalized=True)
    whole = coarse_grain(pom, [set(pom.outcomes)])
    assert len(whole) == 1 and np.allclose(whole.effects[0].op, I2)
    same = coarse_grain(pom, [{0}, {1}])
    assert all(np.array_equal(a.op, b.op) for a, b in zip(same.effects, pom.effects))


def test_coarse_grain_rejects_bad_partitions():
    pom = build_pom([diag(1, 0), diag(0, 1)], require_normalized=True)
    with pytest.raises(OpmeasError):
        coarse_grain(pom, [{0}, {0, 1}])  # overlap
    with pytest.raises(OpmeasError):
        coarse_grain(pom, [{0}])  # not covering


def test_coarse_grain_commutes_with_effect_of_on_unions():
    pom = random_pom(trial_rng(1, 2), 4, 4)
    merged = coarse_grain(pom, [{0, 1}, {2}, {3}])
    lhs = effect_of(merged, {0, 1}).op  # cells 0 and 1 = outcomes {0,1,2}
    rhs = effect_of(pom, {0, 1, 2}).op
    assert op_norm(lhs - rhs) < 1e-13
