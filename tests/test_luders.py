"""Lüders instruments, Heisenberg dual, and the three operational equivalences.

The Schrödinger-picture channel and its selective parts are written out
here over ``instr.kraus``; the library works in the Heisenberg picture.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import objectivity_pairs
from opmeas.effects import Effect, validate_effect
from opmeas import ensembles, luders
from opmeas.ensembles import (
    random_commuting_pom_and_effect,
    random_effect,
    random_pom,
    trial_rng,
)
from opmeas.errors import DimensionMismatchError, NotNormalizedError
from opmeas.linalg import commutator_norm, hermitize, op_norm, outer, psd_sqrt
from opmeas.luders import (
    CausalityCReport,
    LudersInstrument,
    causality_check_C,
    heisenberg_dual,
    nondisturbance,
    objectivity_check,
    proposition1_verify,
)
from opmeas.povm import PomBatch, build_pom, effect_of

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


def test_instrument_kraus_is_one_read_only_stack_of_roots():
    pom = random_pom(trial_rng(0, 5), 4, 3)
    kraus = LudersInstrument.from_pom(pom).kraus
    assert isinstance(kraus, np.ndarray) and kraus.shape == (3, 4, 4)
    assert not kraus.flags.writeable
    for k, m in zip(kraus, pom.stack):
        assert np.array_equal(k, psd_sqrt(m))


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
    for m in pom.stack:
        r = sqrt2x2(m)
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
        assert p == pytest.approx(float(np.trace(rho @ pom.stack[i]).real), abs=1e-12)


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


def _heisenberg_dual_loop(instr: LudersInstrument, b) -> np.ndarray:
    """Reference: the sum of K B K over the Kraus operators in turn."""
    out = np.zeros_like(b.op)
    for k in instr.kraus:
        out = out + k @ b.op @ k
    return hermitize(out)


def _proposition1_loop(pom, b, tol=1e-8) -> tuple:
    """Reference: one commutator norm per effect, then the dual's fixed-point test."""
    max_comm = max(commutator_norm(b.op, m) for m in pom.stack)
    nd = nondisturbance(LudersInstrument.from_pom(pom), b, tol)
    return max_comm, max_comm <= tol, nd.holds, nd.deviation


@given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(1, 5), st.booleans())
@settings(max_examples=80, deadline=None)
def test_stacked_dual_and_proposition1_match_the_loops(seed, dim, k, commuting):
    rng = np.random.default_rng(seed)
    if commuting:
        pom, b = random_commuting_pom_and_effect(rng, dim, k)
    else:
        pom, b = random_pom(rng, dim, k), random_effect(rng, dim)
    instr = LudersInstrument.from_pom(pom)
    want = _heisenberg_dual_loop(instr, b)
    got = heisenberg_dual(instr, b).op
    assert np.array_equal(got.view(np.uint8), want.view(np.uint8))
    rep = proposition1_verify(pom, b)
    assert (rep.max_commutator, rep.commute, rep.nondisturb, rep.deviation) == _proposition1_loop(pom, b)
    assert type(rep.commute) is bool


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


def test_objectivity_gap_against_spanning_state_loop():
    """On the criterion-03 draws the natural-representation gap gives the
    loop's verdict and bounds the loop's gap from above.

    Where the operations commute both gaps are rounding noise (6.7e-17
    against 1.4e-16 on trial 23), so the bound is checked up to a few
    hundred ulps, far below the tolerance.
    """
    tol = 1e-8
    rounding = 64 * np.finfo(float).eps
    records = ensembles.run_objectivity_trials(seed=303, trials=200, dims=(2, 6), tol=tol)
    pairs = [(a, b) for _, _, a, b in objectivity_pairs(303, 200, (2, 6), (2, 4))]
    assert len(pairs) == len(records) == 200
    for record, (pom_a, pom_b) in zip(records, pairs):
        old_gap = _reference_order_gap(pom_a, pom_b)
        assert record.ops_commute == (old_gap <= tol), (record, old_gap)
        assert record.max_order_gap >= old_gap - rounding, (record, old_gap)


def _kron_order_gap(pom_a, pom_b) -> tuple[float, float]:
    """Reference: the natural-representation gap by one ``np.kron`` per Kraus
    pair, and the largest effect commutator by one norm per effect pair."""
    ia = LudersInstrument.from_pom(pom_a)
    ib = LudersInstrument.from_pom(pom_b)
    gap = 0.0
    for ka in ia.kraus:
        for kb in ib.kraus:
            ab = ka @ kb
            ba = kb @ ka
            gap = max(gap, float(np.linalg.norm(np.kron(ab, ab.conj()) - np.kron(ba, ba.conj()))))
    max_eff = max(commutator_norm(ea, eb) for ea in pom_a.stack for eb in pom_b.stack)
    return gap, max_eff


@pytest.mark.parametrize("seed", [0, 42, 303])
def test_objectivity_gap_matches_the_kron_loop(seed):
    """The phase-aligned gap is the kron loop's up to rounding: within 1e-15
    relative, or 1e-15 absolute for a gap of rounding noise (4.4e-16 seen,
    seven orders below the tolerance), and every verdict over 200 trials is
    the loop's."""
    tol = 1e-8
    records = ensembles.run_objectivity_trials(seed=seed, trials=200, dims=(2, 6), tol=tol)
    pairs = [(a, b) for _, _, a, b in objectivity_pairs(seed, 200, (2, 6), (2, 4))]
    assert len(pairs) == len(records) == 200
    for record, (pom_a, pom_b) in zip(records, pairs):
        gap, max_eff = _kron_order_gap(pom_a, pom_b)
        assert record.max_order_gap == pytest.approx(gap, rel=1e-15, abs=1e-15), record
        assert (record.ops_commute, record.effects_commute) == (gap <= tol, max_eff <= tol), record


def test_objectivity_gap_matches_the_kron_loop_at_dimension_20():
    """At d = 20 a natural representation holds 160,000 entries, more than a
    block; the gap needs none of them."""
    rng = trial_rng(3, 0)
    pom_a, pom_b = random_pom(rng, 20, 3), random_pom(rng, 20, 2)
    rep = objectivity_check(pom_a, pom_b)
    assert rep.max_order_gap == pytest.approx(_kron_order_gap(pom_a, pom_b)[0], rel=1e-15)


def _kraus_pair(rng: np.random.Generator, d: int, case: str) -> tuple[np.ndarray, np.ndarray]:
    """Two d x d operators of unit Frobenius norm.  "phase": a clock and a
    shift matrix in one random basis, so that xy = e^{2πi/d} yx; "zero": x
    is zero; "orthogonal": x = P A Q and y = Q B P for complementary
    coordinate projections P, Q, so that xy and yx are nonzero (for d >= 2)
    and tr((xy)† yx) = 0 exactly; "generic": two Ginibre matrices."""
    g = rng.standard_normal((2, 2, d, d))
    x, y = g[:, 0] + 1j * g[:, 1]
    if case == "phase":
        u = np.linalg.qr(x)[0]
        clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
        x, y = u @ clock @ u.conj().T, u @ np.roll(np.eye(d), 1, axis=0) @ u.conj().T
    elif case == "zero":
        x = np.zeros((d, d), dtype=complex)
    elif case == "orthogonal" and d >= 2:
        k = int(rng.integers(1, d))
        x[:, :k] = 0
        x[k:] = 0
        y[:, k:] = 0
        y[:k] = 0
    return x / max(np.linalg.norm(x), 1.0), y / np.linalg.norm(y)


@given(st.integers(1, 8), st.sampled_from(["phase", "zero", "orthogonal", "generic"]), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_order_gap_matches_the_kron_loop_on_kraus_pairs(d, case, seed):
    """``_order_gaps`` against the natural representations that ``np.kron``
    forms: within 4e-15 relative or 1e-15 absolute.  At d = 8 the loop's norm
    sums 4,096 terms; the largest relative difference seen over 12,000 pairs
    of each case was 1.7e-15.  Where xy = e^{iθ} yx the gap is rounding
    noise, and where x is zero it is exactly zero."""
    x, y = _kraus_pair(np.random.default_rng(seed), d, case)
    xy, yx = x @ y, y @ x
    want = float(np.linalg.norm(np.kron(xy, xy.conj()) - np.kron(yx, yx.conj())))
    got = luders._order_gaps(x[np.newaxis], y[np.newaxis])[0]
    assert got == pytest.approx(want, rel=4e-15, abs=1e-15)
    if case == "phase":
        assert got <= 1e-15
    if case == "zero":
        assert got == 0.0
    if case == "orthogonal" and d >= 2:
        assert np.vdot(xy, yx) == 0 and got > 0


def _commutator_rows(rng: np.random.Generator, d: int, rows: list) -> tuple:
    """Two batches of one row per (ka, kb, kind): "generic" rows hold Ginibre
    entries, "zero" rows real diagonal ones, whose commutators are exactly zero,
    "tied" rows one matrix repeated on each side, whose pairs tie, and
    "column" rows multiples of the matrix unit E_01 against real diagonal
    matrices, whose commutators have one nonzero entry, so that both bounds
    equal the norm."""
    a, b = [], []
    for ka, kb, kind in rows:
        g = rng.standard_normal((ka + kb, 2, d, d))
        m = g[:, 0] + 1j * g[:, 1]
        if kind in ("zero", "column"):
            m = (m.real * np.eye(d)).astype(complex)
        if kind == "tied":
            m = np.concatenate([np.repeat(m[:1], ka, axis=0), np.repeat(m[1:2], kb, axis=0)])
        elif kind == "column" and d >= 2:
            m[:ka] = 0
            m[:ka, 0, 1] = g[:ka, 0, 0, 1]
        a.append(m[:ka])
        b.append(m[ka:])
    counts = [np.array([len(x) for x in side]) for side in (a, b)]
    return PomBatch(np.concatenate(a), counts[0]), PomBatch(np.concatenate(b), counts[1])


@given(
    st.integers(1, 5),
    st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4), st.sampled_from(["generic", "zero", "tied", "column"])),
             min_size=1, max_size=6),
    st.sampled_from([1, 50, 1 << 16]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_screened_commutator_maxima_match_the_pair_loop(d, rows, block, seed):
    """Each row's largest commutator norm is the plain loop's bit for bit,
    whether its pairs are all zero, tied, bounded tightly, or spread over
    several blocks."""
    batch_a, batch_b = _commutator_rows(np.random.default_rng(seed), d, rows)
    want = [
        max(commutator_norm(x, y) for x in batch_a.entries[sa : sa + ka] for y in batch_b.entries[sb : sb + kb])
        for sa, ka, sb, kb in zip(batch_a.starts, batch_a.counts, batch_b.starts, batch_b.counts)
    ]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(luders, "BLOCK_ENTRIES", block)
        got = luders._commutator_maxima(batch_a, batch_b)
    assert got.tolist() == want
    assert all(m == 0.0 for m, (_, _, kind) in zip(want, rows) if kind == "zero")


def test_causality_check_examples():
    a = build_pom([diag(1, 0), diag(0, 1)], require_normalized=True)
    b_diag = build_pom([diag(0.4, 0.1), diag(0.6, 0.9)], require_normalized=True)
    rep = causality_check_C(a, b_diag)
    assert not rep.a_disturbs_b and not rep.b_disturbs_a

    b_x = build_pom([(I2 + X) / 2, (I2 - X) / 2], require_normalized=True)
    rep = causality_check_C(a, b_x)
    assert rep.a_disturbs_b and rep.b_disturbs_a


def _causality_check_C_loop(pom_a, pom_b, tol):
    """Reference: one ``nondisturbance`` per effect, both ways."""
    ia, ib = LudersInstrument.from_pom(pom_a), LudersInstrument.from_pom(pom_b)
    return CausalityCReport(
        a_disturbs_b=any(not nondisturbance(ia, Effect(op=f), tol).holds for f in pom_b.stack),
        b_disturbs_a=any(not nondisturbance(ib, Effect(op=e), tol).holds for e in pom_a.stack),
    )


@given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(1, 5), st.booleans(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_causality_check_C_matches_the_per_effect_loop_at_every_deviation(
    seed, dim, outcomes, commuting, one_effect_blocks
):
    # at a tol equal to any effect's deviation, or one ulp below it, the
    # verdicts agree only if the stacked deviations equal the loop's bit for bit
    rng = np.random.default_rng(seed)
    if commuting:  # deviations at rounding level
        pom_a, b = random_commuting_pom_and_effect(rng, dim, outcomes)
        pom_b = build_pom([b.op, np.eye(dim) - b.op], require_normalized=True)
    else:
        pom_a, pom_b = random_pom(rng, dim, outcomes), random_pom(rng, dim, outcomes + 1)
    deviations = [
        nondisturbance(LudersInstrument.from_pom(source), Effect(op=e)).deviation
        for source, other in ((pom_a, pom_b), (pom_b, pom_a))
        for e in other.stack
    ]
    with pytest.MonkeyPatch.context() as mp:
        if one_effect_blocks:
            mp.setattr(luders, "BLOCK_ENTRIES", 1)
        for dev in deviations:
            for tol in (dev, np.nextafter(dev, 0.0)):
                assert causality_check_C(pom_a, pom_b, tol) == _causality_check_C_loop(pom_a, pom_b, tol)


def test_causality_check_C_rejects_poms_of_different_dimensions():
    a = build_pom([diag(1, 0), diag(0, 1)], require_normalized=True)
    b = build_pom([np.eye(3) / 2, np.eye(3) / 2], require_normalized=True)
    with pytest.raises(DimensionMismatchError, match=r"^dimension mismatch: \(2, 2\) vs \(3, 3\)$"):
        causality_check_C(a, b)


def test_nondisturbance_passes_to_coarse_grainings():
    rng = trial_rng(7, 0)
    pom, b = random_commuting_pom_and_effect(rng, 4, 4)
    assert nondisturbance(LudersInstrument.from_pom(pom), b).holds
    for partition in ([{0, 1}, {2, 3}], [{0, 1, 2, 3}]):
        merged = build_pom([effect_of(pom, cell) for cell in partition], require_normalized=True)
        assert nondisturbance(LudersInstrument.from_pom(merged), b).holds
