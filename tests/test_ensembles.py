"""Seeded ensemble drivers: determinism and construction guarantees."""

from __future__ import annotations

import dataclasses
import itertools
import runpy
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    count_calls,
    random_commuting_pom_and_effect_loop,
    random_effect_loop,
    random_pom_loop,
    run_objectivity_trials_loop,
    run_prop1_trials_loop,
)
from opmeas import ensembles, linalg
from opmeas.cli import main
from opmeas.effects import Effect, is_sharp
from opmeas.ensembles import (
    random_commuting_pom_and_effect,
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
from opmeas.errors import OpmeasError
from opmeas.linalg import hermitize, op_norm, spectral_map
from opmeas.povm import PomBatch, build_pom, is_sharp_pom, validate_poms


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


def _bits(records) -> list[tuple]:
    """Records as tuples whose floats are spelled bit for bit."""
    return [tuple(x.hex() if isinstance(x, float) else x for x in dataclasses.astuple(r)) for r in records]


_LOOP_CASES = [
    (seed, 30, dims, outcomes, tol)
    for seed, dims, outcomes, tol in itertools.product(
        (0, 7, 12345), ((1, 1), (2, 6), (5, 8)), ((2, 2), (2, 5)), (1e-8, 0.5)
    )
] + [(7, 180, (5, 8), (2, 5), 0.5)]


@pytest.mark.parametrize("seed, trials, dims, outcomes, tol", _LOOP_CASES)
def test_stacked_drivers_match_the_per_trial_loops(seed, trials, dims, outcomes, tol):
    """Both drivers return the records of the per-trial loops, floats bit for
    bit: a trial's record does not depend on the window or the dimension
    group it is computed in.  At tol 0.5 generic trials reach the
    ``causality_check_C`` link too; the last case spans two windows of each
    driver."""
    prop1 = run_prop1_trials(seed, trials, dims, outcomes, tol)
    assert _bits(prop1) == _bits(run_prop1_trials_loop(seed, trials, dims, outcomes, tol))
    objectivity = run_objectivity_trials(seed, trials, dims, outcomes, tol)
    assert _bits(objectivity) == _bits(run_objectivity_trials_loop(seed, trials, dims, outcomes, tol))
    if trials > 100:
        assert len(list(ensembles._windows(trials, dims, outcomes[1] + 1))) == 2
        assert len(list(ensembles._windows(trials, dims, 2 * outcomes[1]))) == 2
        assert any(r.ops_commute and r.kind == "generic" for r in objectivity)


def test_windows_are_made_one_at_a_time():
    """Making the windows of 10**7 trials and taking the first costs what it
    costs for 10**3 trials: no list of every window is built up front."""
    peaks = []
    for trials in (10**3, 10**7):
        tracemalloc.start()
        try:
            first = next(iter(ensembles._windows(trials, (2, 6), 6)))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert first == range(0, linalg.BLOCK_ENTRIES // (6 * 6 * 6))
    assert max(peaks) < 4096, peaks
    assert list(itertools.chain.from_iterable(ensembles._windows(1000, (2, 6), 6))) == list(range(1000))


@pytest.mark.parametrize("dim", [1, 2, 3, 6])
def test_generators_match_the_per_matrix_references(dim):
    """The public generators, one-instance calls of the stacked constructions,
    give the per-matrix references' operators bit for bit and leave the
    stream where they leave it."""
    for trial in range(10):
        rngs = trial_rng(11, trial), trial_rng(11, trial)
        pairs = [
            (random_pom(rngs[0], dim, 2 + trial % 4).stack, random_pom_loop(rngs[1], dim, 2 + trial % 4).stack),
            (random_effect(rngs[0], dim).op, random_effect_loop(rngs[1], dim).op),
        ]
        (pom, b), (pom_ref, b_ref) = (
            random_commuting_pom_and_effect(rngs[0], dim, 2 + trial % 3),
            random_commuting_pom_and_effect_loop(rngs[1], dim, 2 + trial % 3),
        )
        pairs += [(pom.stack, pom_ref.stack), (b.op, b_ref.op)]
        for got, want in pairs:
            assert np.array_equal(got, want)
        assert rngs[0].uniform() == rngs[1].uniform()


def _generated_batch(seed: int, dim: int, n_poms: int) -> PomBatch:
    """POMs of one dimension from the drivers' constructions, commuting and
    generic alternately, two to four outcomes each."""
    rng = trial_rng(seed, 0)
    counts = rng.integers(2, 5, size=n_poms)
    stacks = []
    for j, k in enumerate(counts):
        if j % 2:
            g, weights, _ = ensembles._draw_commuting(rng, dim, k)
            u = ensembles._unitaries(g[np.newaxis])
            stacks.append(hermitize(spectral_map(np.repeat(u, k, axis=0), weights.T)))
        else:
            stacks.append(ensembles._whitened(ensembles._draw_pom(rng, dim, k), np.array([k])))
    return PomBatch(entries=np.concatenate(stacks), counts=counts)


def _raised(call) -> tuple:
    try:
        call()
    except OpmeasError as exc:
        return type(exc), getattr(exc, "index", None), str(exc)
    return ()


@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 6),
    n_poms=st.integers(1, 6),
    fault=st.sampled_from(["below zero", "not hermitian", "sum above identity"]),
    where=st.integers(0, 10**6),
)
@settings(max_examples=60, deadline=None)
def test_batched_validator_raises_what_build_pom_raises(seed, dim, n_poms, fault, where):
    """The drivers' POMs pass the public ``build_pom``.  With one entry of one
    POM corrupted, ``validate_poms`` on the batch raises the exception type,
    index and message that ``build_pom`` raises on that POM."""
    batch = _generated_batch(seed, dim, n_poms)
    stacks = np.split(batch.entries, batch.starts[1:])
    assert all(build_pom(s, require_normalized=True).normalized for s in stacks)
    assert validate_poms(batch, require_normalized=True).all()
    j = where % n_poms
    i = (where // n_poms) % batch.counts[j]
    entry = stacks[j][i]
    eye = np.eye(dim)
    if fault == "below zero":
        entry -= (np.linalg.eigvalsh(entry)[0] + 1e-3) * eye
    elif fault == "not hermitian":
        entry[0, -1] += 1e-3
    else:  # a valid effect whose POM sums to I + (I - E) / 2
        entry += (eye - entry) / 2
    corrupted = PomBatch(entries=np.concatenate(stacks), counts=batch.counts)
    want = _raised(lambda: build_pom(stacks[j], require_normalized=True))
    assert want and want == _raised(lambda: validate_poms(corrupted, require_normalized=True))


def test_luders_verify_makes_few_lapack_calls(monkeypatch, capsys):
    """``luders-verify`` over 200 trials of dimension 2..6 makes at most 120
    LAPACK calls (a per-trial pass made 4,540) and takes the Kraus roots once
    per batch of POMs: 15 ``psd_sqrt`` calls, one per dimension for the
    proposition-1 ensemble and two for the objectivity one.  The effect
    commutators whose bounds settle them take no SVD, so the SVDs cover at
    most 2,100 matrices (3,024 when every commutator took one).  No count
    depends on the machine."""
    roots = count_calls(monkeypatch, linalg, "psd_sqrt")
    calls, svd_matrices = [], []
    for name in ("eigh", "eigvalsh", "svd", "qr"):
        original = getattr(np.linalg, name)

        def counting(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            if _name == "svd":
                svd_matrices.append(np.prod(np.shape(args[0])[:-2], dtype=int))
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    assert main(["luders-verify", "--seed", "7", "--trials", "200", "--dims", "2..6"]) == 0
    assert "counterexamples: 0" in capsys.readouterr().out
    assert 0 < len(calls) <= 120, {name: calls.count(name) for name in set(calls)}
    assert len(roots) == 15
    assert 0 < sum(svd_matrices) <= 2100, sum(svd_matrices)


def test_each_ensemble_draws_its_own_streams():
    # keyed by (seed, trial) alone, all four drew the same dimension in every trial
    drivers = (run_prop1_trials, run_objectivity_trials, run_annihilation_trials, run_sharpness_trials)
    dims = [[r.dim for r in run(7, 50, (2, 6))] for run in drivers]
    for i, j in itertools.combinations(range(len(drivers)), 2):
        assert dims[i] != dims[j], (drivers[i].__name__, drivers[j].__name__)


def test_ensemble_script_prints_one_row_per_ensemble(monkeypatch, capsys):
    """``scripts/run_equivalence_ensembles.py`` runs each ensemble once, on
    its own streams, and exits 0 when every trial agrees."""
    script = runpy.run_path(str(Path(__file__).parents[1] / "scripts" / "run_equivalence_ensembles.py"))
    monkeypatch.setattr(sys, "argv", ["run_equivalence_ensembles.py", "--seed", "0", "--trials", "5"])
    with pytest.raises(SystemExit) as exit_:
        script["main"]()
    assert exit_.value.code == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["ensemble", "ok", "trials", "seconds"]
    assert [row.rsplit(maxsplit=3)[0] for row in rows] == ["prop1 2-5 outcomes", "objectivity", "annihilation", "sharpness"]
    assert all(row.split()[-3:-1] == ["5", "5"] for row in rows)
