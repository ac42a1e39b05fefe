"""Lüders instruments, Heisenberg dual, and the three operational equivalences.

The Schrödinger-picture channel and its selective parts are written out
here over ``instr.kraus``; the library works in the Heisenberg picture.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opmeas.effects import validate_effect
from opmeas import ensembles
from opmeas.ensembles import (
    random_commuting_pom_and_effect,
    random_effect,
    random_pom,
    trial_rng,
)
from opmeas.errors import NotNormalizedError
from opmeas.linalg import hermitize, op_norm, outer
from opmeas.luders import (
    LudersInstrument,
    causality_check_C,
    heisenberg_dual,
    nondisturbance,
    objectivity_check,
    proposition1_verify,
)
from opmeas.povm import build_pom, effect_of

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
I2 = np.eye(2, dtype=complex)


def diag(*entries) -> np.ndarray:
    return np.diag(np.asarray(entries, dtype=complex))


def sqrt2x2(m: np.ndarray) -> np.ndarray:
    """Independent PSD square root: (M + sqrt(det) I) / sqrt(tr + 2 sqrt(det))."""
    sd = np.sqrt(max(np.linalg.det(m).real, 0.0))
    return (m + sd * I2) / np.sqrt(np.trace(m).real + 2 * sd)


def sharp_binary() -> LudersInstrument:
    return LudersInstrument.from_pom(
        build_pom([diag(1, 0), diag(0, 1)], require_normalized=True)
    )


def selective(instr: LudersInstrument, i: int, rho: np.ndarray) -> np.ndarray:
    """Unnormalized post-measurement state of outcome i: K_i rho K_i."""
    k = instr.kraus[i]
    return hermitize(k @ rho @ k)


def channel(instr: LudersInstrument, rho: np.ndarray) -> np.ndarray:
    """Nonselective Schrödinger-picture update: the sum of the selective parts."""
    return sum(selective(instr, i, rho) for i in range(len(instr.kraus)))


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Density matrix G†G / tr(G†G) of a complex Ginibre matrix G."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = hermitize(g.conj().T @ g)
    return m / np.trace(m).real


def test_instrument_requires_normalized_pom():
    with pytest.raises(NotNormalizedError):
        LudersInstrument.from_pom(build_pom([diag(0.5, 0.5)], require_normalized=False))


def test_instrument_kraus_squares_sum_to_identity():
    pom = random_pom(trial_rng(0, 5), 4, 3)
    instr = LudersInstrument.from_pom(pom)
    total = sum(k @ k for k in instr.kraus)
    assert op_norm(total - np.eye(4)) < 1e-10


def test_channel_pinches_offdiagonals():
    rho = np.full((2, 2), 0.5, dtype=complex)
    out = channel(sharp_binary(), rho)
    assert np.allclose(out, diag(0.5, 0.5), atol=1e-14)


def test_one_outcome_instrument_is_identity_channel():
    instr = LudersInstrument.from_pom(build_pom([I2], require_normalized=True))
    rho = np.array([[0.25, 0.1j], [-0.1j, 0.75]])
    assert np.allclose(channel(instr, rho), rho, atol=1e-14)
    sub = selective(instr, 0, rho)
    assert np.trace(sub).real == pytest.approx(1.0)
    assert np.allclose(sub, rho, atol=1e-14)


def test_channel_unsharp_binary_against_sqrt_oracle():
    pom = build_pom([(I2 + X) / 2, (I2 - X) / 2], require_normalized=True)
    instr = LudersInstrument.from_pom(pom)
    rho = diag(1.0, 0.0)
    out = channel(instr, rho)
    expected = np.zeros((2, 2), dtype=complex)
    for e in pom.effects:
        r = sqrt2x2(e.op)
        expected += r @ rho @ r
    assert np.allclose(out, expected, atol=1e-12)
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)


def test_selective_decomposes_channel_and_probabilities_sum():
    rng = trial_rng(1, 9)
    pom = random_pom(rng, 3, 3)
    instr = LudersInstrument.from_pom(pom)
    rho = random_state(rng, 3)
    parts = [selective(instr, i, rho) for i in pom.outcomes]
    probabilities = [np.trace(p).real for p in parts]
    assert sum(probabilities) == pytest.approx(1.0, abs=1e-10)
    # probability = tr[rho E_i]
    for i, p in zip(pom.outcomes, probabilities):
        assert p == pytest.approx(float(np.trace(rho @ pom.effects[i].op).real), abs=1e-12)


def test_selective_sharp_example():
    instr = sharp_binary()
    sub = selective(instr, 0, diag(0.3, 0.7))
    assert np.allclose(sub, diag(0.3, 0.0))
    assert np.trace(sub).real == pytest.approx(0.3)


def test_heisenberg_dual_identity_and_pinching():
    ident = LudersInstrument.from_pom(build_pom([I2], require_normalized=True))
    b = validate_effect((I2 + X) / 2)
    assert np.allclose(heisenberg_dual(ident, b).op, b.op, atol=1e-14)
    assert np.allclose(heisenberg_dual(sharp_binary(), b).op, I2 / 2, atol=1e-14)


def test_dual_deviation_closed_form():
    # A = {(I +- X/2)/2}, B = (I+Z)/2: deviation is 1/2 - sqrt(3)/4
    pom = build_pom([(I2 + 0.5 * X) / 2, (I2 - 0.5 * X) / 2], require_normalized=True)
    instr = LudersInstrument.from_pom(pom)
    rep = nondisturbance(instr, validate_effect((I2 + Z) / 2))
    assert not rep.holds
    assert rep.deviation == pytest.approx(0.5 - np.sqrt(3) / 4, abs=1e-12)


@given(st.integers(0, 10_000), st.integers(2, 5))
@settings(max_examples=40, deadline=None)
def test_duality_pairing(seed, dim):
    # tr[channel(rho) B] = tr[rho dual(B)]
    rng = np.random.default_rng(seed)
    pom = random_pom(rng, dim, 3)
    instr = LudersInstrument.from_pom(pom)
    rho = random_state(rng, dim)
    b = random_effect(rng, dim)
    lhs = np.trace(channel(instr, rho) @ b.op).real
    rhs = np.trace(rho @ heisenberg_dual(instr, b).op).real
    assert lhs == pytest.approx(rhs, abs=1e-10)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_trace_preservation(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 6))
    instr = LudersInstrument.from_pom(random_pom(rng, dim, int(rng.integers(2, 5))))
    out = channel(instr, random_state(rng, dim))
    assert abs(np.trace(out).real - 1.0) <= 1e-10
    assert np.linalg.eigvalsh(out).min() >= -1e-10


def test_nondisturbance_commuting_holds_without_witness():
    pom = build_pom([diag(0.2, 0.7), diag(0.8, 0.3)], require_normalized=True)
    rep = nondisturbance(LudersInstrument.from_pom(pom), validate_effect(diag(0.5, 0.9)))
    assert rep.holds and rep.deviation <= 1e-12 and rep.witness is None


def test_nondisturbance_witness_attains_deviation():
    instr = sharp_binary()
    b = validate_effect((I2 + X) / 2)
    rep = nondisturbance(instr, b)
    assert not rep.holds
    assert rep.deviation == pytest.approx(0.5)
    # witness is |+><+| or |-><-|: attains |tr[rho(dual - B)]| = 0.5
    d = heisenberg_dual(instr, b).op - b.op
    attained = abs(np.trace(rep.witness.rho @ d).real)
    assert attained == pytest.approx(rep.deviation, abs=1e-12)
    assert np.allclose(np.abs(rep.witness.rho), 0.5, atol=1e-12)


def test_proposition1_case_tags_and_verdicts():
    diag_pom = build_pom([diag(1, 0), diag(0, 1)], require_normalized=True)
    rep = proposition1_verify(diag_pom, validate_effect(diag(0.3, 0.9)))
    assert rep.case == "both" and rep.commute and rep.nondisturb and rep.equivalent

    rep = proposition1_verify(diag_pom, validate_effect((I2 + X) / 2))
    assert not rep.commute and not rep.nondisturb and rep.equivalent

    three = build_pom([diag(1, 0, 0), diag(0, 1, 0), diag(0, 0, 1)], require_normalized=True)
    rep = proposition1_verify(three, validate_effect(np.diag([0.1, 0.5, 0.9]).astype(complex)))
    assert rep.case == "alpha"


def test_objectivity_examples():
    a = build_pom([diag(1, 0), diag(0, 1)], require_normalized=True)
    b_diag = build_pom([diag(0.4, 0.1), diag(0.6, 0.9)], require_normalized=True)
    rep = objectivity_check(a, b_diag)
    assert rep.ops_commute and rep.effects_commute and rep.agree and rep.max_order_gap <= 1e-12

    b_x = build_pom([(I2 + X) / 2, (I2 - X) / 2], require_normalized=True)
    rep = objectivity_check(a, b_x)
    assert not rep.ops_commute and not rep.effects_commute and rep.agree
    assert rep.max_order_gap > 1e-3

    trivial = build_pom([I2], require_normalized=True)
    rep = objectivity_check(trivial, b_x)
    assert rep.ops_commute and rep.effects_commute and rep.max_order_gap <= 1e-12


def _spanning_pure_states(dim: int) -> list[np.ndarray]:
    """dim**2 pure density matrices spanning the Hermitian matrices.

    Basis states |i>, (|i> + |j>)/sqrt(2), (|i> + i|j>)/sqrt(2): real and
    imaginary parts of every matrix unit are linear combinations of these,
    so two linear maps agreeing on all of them agree on every state.
    """
    states: list[np.ndarray] = []
    for i in range(dim):
        v = np.zeros(dim, dtype=complex)
        v[i] = 1.0
        states.append(outer(v))
    for i in range(dim):
        for j in range(i + 1, dim):
            v = np.zeros(dim, dtype=complex)
            v[i] = 1.0
            v[j] = 1.0
            states.append(outer(v / np.sqrt(2.0)))
            w = np.zeros(dim, dtype=complex)
            w[i] = 1.0
            w[j] = 1.0j
            states.append(outer(w / np.sqrt(2.0)))
    return states


def _reference_order_gap(pom_a, pom_b) -> float:
    """Plain loop: both compositions on a spanning set of pure states,
    largest operator-norm difference."""
    ia = LudersInstrument.from_pom(pom_a)
    ib = LudersInstrument.from_pom(pom_b)
    gap = 0.0
    for ka in ia.kraus:
        for kb in ib.kraus:
            for rho in _spanning_pure_states(pom_a.dim):
                ab = ka @ (kb @ rho @ kb) @ ka
                ba = kb @ (ka @ rho @ ka) @ kb
                gap = max(gap, op_norm(ab - ba))
    return gap


def test_objectivity_gap_against_spanning_state_loop(monkeypatch):
    """On the criterion-03 draws the natural-representation gap gives the
    loop's verdict and bounds the loop's gap from above.

    Where the operations commute both gaps are rounding noise (6.7e-17
    against 1.4e-16 on trial 23), so the bound is checked up to a few
    hundred ulps, far below the tolerance.
    """
    tol = 1e-8
    rounding = 64 * np.finfo(float).eps
    pairs = []

    def recording_check(pom_a, pom_b, tol):
        pairs.append((pom_a, pom_b))
        return objectivity_check(pom_a, pom_b, tol)

    monkeypatch.setattr(ensembles, "objectivity_check", recording_check)
    records = ensembles.run_objectivity_trials(seed=303, trials=200, dims=(2, 6), tol=tol)
    assert len(pairs) == len(records) == 200
    for record, (pom_a, pom_b) in zip(records, pairs):
        old_gap = _reference_order_gap(pom_a, pom_b)
        assert record.ops_commute == (old_gap <= tol), (record, old_gap)
        assert record.max_order_gap >= old_gap - rounding, (record, old_gap)


def test_causality_check_examples():
    a = build_pom([diag(1, 0), diag(0, 1)], require_normalized=True)
    b_diag = build_pom([diag(0.4, 0.1), diag(0.6, 0.9)], require_normalized=True)
    rep = causality_check_C(a, b_diag)
    assert not rep.a_disturbs_b and not rep.b_disturbs_a

    b_x = build_pom([(I2 + X) / 2, (I2 - X) / 2], require_normalized=True)
    rep = causality_check_C(a, b_x)
    assert rep.a_disturbs_b and rep.b_disturbs_a


def test_nondisturbance_passes_to_coarse_grainings():
    rng = trial_rng(7, 0)
    pom, b = random_commuting_pom_and_effect(rng, 4, 4)
    assert nondisturbance(LudersInstrument.from_pom(pom), b).holds
    for partition in ([{0, 1}, {2, 3}], [{0, 1, 2, 3}]):
        merged = build_pom([effect_of(pom, cell) for cell in partition], require_normalized=True)
        assert nondisturbance(LudersInstrument.from_pom(merged), b).holds
