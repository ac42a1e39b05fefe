"""POM construction, additivity, sharpness, commutativity, coarse-graining.

A coarse-graining is built here as ``build_pom`` of ``effect_of`` over the
cells of a partition of the outcomes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opmeas.effects import Effect, validate_effect
from opmeas.ensembles import random_pom, random_projective_pom, trial_rng
from opmeas.errors import (
    InvalidEffectError,
    NotNormalizedError,
    OpmeasError,
    SumExceedsIdentityError,
    UnknownOutcomeError,
)
from opmeas.linalg import TOL_EIG, TOL_PSD, commutator_norm, eig_hermitian, hermitize, op_norm
from opmeas import povm as povm_module
from opmeas.localization import (
    coherent_state_povm,
    gaussian_fiducial,
    make_model,
    position_marginal,
    sharp_position_map,
)
from opmeas.povm import build_pom, effect_of, is_commutative, is_sharp_pom


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


def _build_pom_loop(effects, require_normalized, outcomes=None):
    """Reference: validate_effect on every entry in turn, then the dimensions,
    then the sum; returns (labels, validated ops, normalized)."""
    validated = []
    for i, raw in enumerate(effects):
        m = raw.op if isinstance(raw, Effect) else raw
        try:
            validated.append(validate_effect(m))
        except OpmeasError as exc:
            raise InvalidEffectError(i, exc) from exc
    dim = validated[0].dim
    for i, e in enumerate(validated):
        if e.dim != dim:
            raise InvalidEffectError(i, OpmeasError(f"dim {e.dim} != {dim}"))
    total = np.zeros((dim, dim), dtype=complex)
    for e in validated:
        total = total + e.op
    slack = eig_hermitian(np.eye(dim, dtype=complex) - hermitize(total)).eigenvalues
    if slack[0] < -TOL_PSD:
        raise SumExceedsIdentityError(f"effect sum exceeds identity by {-slack[0]:.3e}")
    deficit = op_norm(total - np.eye(dim, dtype=complex))
    if require_normalized and deficit > TOL_EIG:
        raise NotNormalizedError(f"effect sum differs from identity by {deficit:.3e}")
    labels = tuple(range(len(validated))) if outcomes is None else tuple(outcomes)
    return labels, [e.op for e in validated], deficit <= TOL_EIG


def _outcome(build, effects, require_normalized):
    try:
        return build(effects, require_normalized)
    except OpmeasError as exc:
        return type(exc), getattr(exc, "index", None), str(exc)


def _assert_build_matches_loop(effects, require_normalized=False):
    got = _outcome(build_pom, effects, require_normalized)
    want = _outcome(_build_pom_loop, effects, require_normalized)
    if isinstance(want[0], type):  # the loop raised: same type, index and message
        assert got == want
        return
    labels, ops, normalized = want
    assert (got.outcomes, got.normalized) == (labels, normalized)
    assert got.stack.shape == (len(ops),) + ops[0].shape
    for e, m in zip(got.stack, ops):
        assert np.array_equal(e.view(np.uint8), m.view(np.uint8))


_FAULTS = ("above one", "below zero", "not hermitian", "not finite", "wrong dim", "not square")


def _faulty(rng, dim, fault):
    m = np.diag(rng.uniform(0.0, 1.0 / 8, dim)).astype(complex)
    if fault == "above one":
        m[0, 0] = 1.0 + 10.0 ** rng.uniform(-9.5, 0)
    elif fault == "below zero":
        m[0, 0] = -(10.0 ** rng.uniform(-9.5, 0))
    elif fault == "not hermitian":
        m[0, -1] += 10.0 ** rng.uniform(-10, -1) if dim > 1 else 1e-3j
    elif fault == "not finite":
        m[-1, 0] = rng.choice([np.nan, np.inf, -np.inf])
    elif fault == "wrong dim":
        m = np.eye(dim + 1, dtype=complex) / 8
    else:
        m = np.zeros((dim, dim + 1), dtype=complex)
    return m


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 6),
    st.integers(1, 8),
    st.lists(st.tuples(st.integers(0, 7), st.sampled_from(_FAULTS)), max_size=3),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_build_pom_matches_entry_loop(seed, dim, k, faults, as_array):
    rng = np.random.default_rng(seed)
    effects = list(random_pom(rng, dim, k).stack)
    for pos, fault in faults:
        effects[pos % k] = _faulty(rng, dim, fault)
    if as_array and not faults:
        effects = np.array(effects)
    _assert_build_matches_loop(effects, require_normalized=not faults)
    _assert_build_matches_loop(effects)


@pytest.mark.parametrize(
    "faults",
    [
        ["above one", "not hermitian"],  # a non-Hermitian entry after an out-of-range one
        ["not hermitian", "below zero"],
        ["below zero", "wrong dim"],  # a dimension mismatch after an invalid entry
        ["wrong dim", "above one"],  # every entry is checked before the dimensions are
        ["not finite", "above one"],
        ["above one", "not square"],
        ["wrong dim"],
    ],
)
def test_build_pom_mixed_faults_raise_as_the_loop(faults):
    rng = np.random.default_rng(11)
    effects = list(random_pom(rng, 3, 6).stack / 2)
    for pos, fault in zip((1, 4), faults):
        effects[pos] = _faulty(rng, 3, fault)
    with pytest.raises(InvalidEffectError) as exc:
        build_pom(effects, require_normalized=False)
    assert (exc.value.index, str(exc.value)) == _outcome(_build_pom_loop, effects, False)[1:]


def test_build_pom_screens_in_blocks_and_finds_the_first_fault():
    # 300 effects of dimension 16 span two blocks; the faults sit in the second
    effects = [np.eye(16, dtype=complex) / 300] * 300
    effects[299] = np.diag(np.r_[2.0, np.zeros(15)]).astype(complex)
    effects[280] = np.eye(16, dtype=complex) / 300 + 1e-3 * np.eye(16, k=1)
    # a false alarm first: ||E - E†|| is 0.9e-10, within TOL_HERM, but its Frobenius norm is not
    effects[270] = np.eye(16, dtype=complex) / 300
    effects[270][0, 1] += 0.9e-10
    _assert_build_matches_loop(effects)
    effects[280] = effects[0]
    _assert_build_matches_loop(effects)


@pytest.mark.parametrize("edge", [-1e-9, 1 + 1e-9])
def test_build_pom_spectrum_edges_match_the_loop(edge):
    # entries within the screen's slack of a limit go to the validator, so the last ulp decides alike
    for value in (edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)):
        _assert_build_matches_loop([diag(0.25, 0.25), diag(value, 0.5), diag(0.25, 0.25)])


def test_screen_clears_projectors_and_coherent_marginals(monkeypatch):
    """Eigenvalues exactly 0 and 1 lie far inside the screen's slack of the
    limits, so a sharp map and the coherent marginals validate no entry one
    by one."""
    calls = []

    def counting(m):
        calls.append(m)
        return validate_effect(m)

    monkeypatch.setattr(povm_module, "validate_effect", counting)
    model = make_model(32)
    assert len(sharp_position_map(model).base_pom) == 32
    for n in (8, 16, 32):
        assert len(position_marginal(make_model(n), gaussian_fiducial(n)).base_pom) == n
    assert calls == []
    build_pom([diag(0.5, 0.5), diag(0.25, -1e-9)], require_normalized=False)
    assert len(calls) == 1  # the counter is live: an entry at a limit is validated


def test_build_pom_reads_eigh_as_a_plain_tuple(monkeypatch):
    # NumPy before 2.0 returns eigh's result as a plain tuple, without field names
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: tuple(eigh(a)))
    pom = build_pom(np.array([diag(0.5, 0.25), diag(0.5, 0.75)]), require_normalized=True)
    assert pom.normalized and len(pom) == 2


def test_pom_keeps_one_read_only_stack():
    for writable in (True, False):
        stack = np.array([diag(1, 0), diag(0, 1)], dtype=complex)
        stack.setflags(write=writable)
        pom = build_pom(stack, require_normalized=True)
        effect = validate_effect(stack[0])
        stack.setflags(write=True)  # whoever owns an array may make it writable again
        stack[0] = diag(0.5, 0.5)
        # the caller's array stays the caller's, read-only or not
        assert np.array_equal(pom.stack[0], diag(1, 0)) and not pom.stack.flags.writeable
        assert np.array_equal(effect.op, diag(1, 0))
    with pytest.raises(ValueError):
        pom.stack[0][0, 0] = 0.0


def test_effect_of_full_set_and_empty_set():
    pom = build_pom([diag(1, 0), diag(0, 1)], require_normalized=True)
    assert np.array_equal(effect_of(pom, pom.outcomes).op, I2)
    assert np.array_equal(effect_of(pom, ()).op, np.zeros((2, 2)))


def _effect_of_loop(pom, subset) -> np.ndarray:
    """Reference: the chosen effects added in turn, in outcome order."""
    total = np.zeros((pom.dim, pom.dim), dtype=complex)
    for label, m in zip(pom.outcomes, pom.stack):
        if label in subset:
            total = total + m
    return total


@given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_effect_of_matches_the_loop_bit_for_bit(seed, dim, k):
    rng = np.random.default_rng(seed)
    pom = random_pom(rng, dim, k)
    subset = {label for label in pom.outcomes if rng.uniform() < 0.5}
    got = effect_of(pom, subset).op
    assert np.array_equal(got.view(np.uint8), _effect_of_loop(pom, subset).view(np.uint8))


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
        op_norm(pom.stack[i] @ pom.stack[j]) <= 1e-8
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
            c = commutator_norm(pom.stack[i], pom.stack[j])
            if c > worst:
                worst, worst_pair = c, (pom.outcomes[i], pom.outcomes[j])
    return worst, worst_pair


def _assert_scan_matches_loop(pom):
    worst, worst_pair = _scan_loop(pom)
    rep = is_commutative(pom, tol=0.0)  # tol 0 reports the worst pair of any nonzero maximum
    assert rep.max_commutator == worst
    assert rep.worst_pair == (worst_pair if worst > 0.0 else None)


def _rank_one_pom(rng, dim, n_out, copies):
    """Rank-one effects w |v><v|, each repeated ``copies`` times, scaled so that they sum below I."""
    v = rng.standard_normal((n_out, dim)) + 1j * rng.standard_normal((n_out, dim))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    effects = rng.uniform(0.1, 1.0, (n_out, 1, 1)) * (v[:, :, np.newaxis] * v[:, np.newaxis].conj())
    effects = np.repeat(effects, copies, axis=0)[:n_out]
    return build_pom(effects / eig_hermitian(effects.sum(axis=0)).eigenvalues[-1], False)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 8),
    st.integers(1, 12),
    st.sampled_from(["random", "diagonal", "duplicated", "rank-one", "rank-one-duplicated"]),
)
@settings(max_examples=150, deadline=None)
def test_is_commutative_matches_pair_loop_exactly(seed, dim, n_out, kind):
    rng = np.random.default_rng(seed)
    if kind == "random":
        pom = random_pom(rng, dim, n_out)
    elif kind == "diagonal":  # commute exactly: every commutator is the zero matrix
        w = rng.uniform(0.0, 1.0, (n_out, dim))
        pom = build_pom([np.diag(row).astype(complex) for row in w / w.sum(axis=0)], False)
    elif kind == "duplicated":  # each effect twice, so equal pairs tie bit for bit
        half = list(random_pom(rng, dim, (n_out + 1) // 2).stack / 2)
        pom = build_pom([m for m in half for _ in range(2)][:n_out], False)
    else:  # rank-one commutators have two equal singular values
        pom = _rank_one_pom(rng, dim, n_out, 2 if kind == "rank-one-duplicated" else 1)
    _assert_scan_matches_loop(pom)


def test_is_commutative_matches_pair_loop_below_underflow():
    # Commutator entries near 1e-171 square to zero, so only the exact norm sees them.
    a = np.array([[0.5, 1e-170], [1e-170, 0.5]], dtype=complex)
    pom = build_pom([a, diag(0.3, 0.2)], False)
    assert is_commutative(pom, tol=0.0).max_commutator > 0.0
    _assert_scan_matches_loop(pom)


@pytest.mark.parametrize("n", range(4, 13))
@pytest.mark.parametrize("fiducial", ["gaussian", "random"])
def test_is_commutative_matches_pair_loop_on_coherent_povms(n, fiducial, povm_marginal):
    model = make_model(n)
    if fiducial == "gaussian":
        eta = gaussian_fiducial(n)
    else:
        rng = np.random.default_rng(n)
        eta = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        eta /= np.linalg.norm(eta)
    povm = coherent_state_povm(model, eta)
    _assert_scan_matches_loop(povm)
    _assert_scan_matches_loop(povm_marginal(povm, model).base_pom)
    _assert_scan_matches_loop(position_marginal(model, eta).base_pom)


def coarse_grain(pom, partition):
    return build_pom([effect_of(pom, cell) for cell in partition], require_normalized=False)


def test_coarse_grain_merges_and_preserves_normalization():
    effects = [diag(*(1.0 if i == x else 0.0 for i in range(4))) for x in range(4)]
    pom = build_pom(effects, require_normalized=True)
    merged = coarse_grain(pom, [{0, 1}, {2, 3}])
    assert merged.normalized and len(merged) == 2
    assert np.array_equal(merged.stack[0], diag(1, 1, 0, 0))
    assert np.array_equal(merged.stack[1], diag(0, 0, 1, 1))


def test_coarse_grain_trivial_and_singleton_partitions():
    pom = build_pom([diag(0.5, 0.2), diag(0.5, 0.8)], require_normalized=True)
    whole = coarse_grain(pom, [set(pom.outcomes)])
    assert len(whole) == 1 and np.allclose(whole.stack[0], I2)
    same = coarse_grain(pom, [{0}, {1}])
    assert np.array_equal(same.stack, pom.stack)


def test_coarse_grain_commutes_with_effect_of_on_unions():
    pom = random_pom(trial_rng(1, 2), 4, 4)
    merged = coarse_grain(pom, [{0, 1}, {2}, {3}])
    lhs = effect_of(merged, {0, 1}).op  # cells 0 and 1 = outcomes {0,1,2}
    rhs = effect_of(pom, {0, 1, 2}).op
    assert op_norm(lhs - rhs) < 1e-13
