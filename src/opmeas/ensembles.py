"""Seeded random ensembles and trial drivers for the equivalence checks.

All randomness flows from one 64-bit seed through a counter-based Philox
generator, keyed per trial via ``SeedSequence(entropy=seed, spawn_key=(trial,))``.
Trial n always sees the same stream no matter how many trials run, in what
order, or on how many workers, so reports are reproducible and mergeable.

The generators behind the Lüders checks are each split in two.  A draw takes
all random numbers of one instance from its stream, in a fixed order, and no
draw depends on a matrix.  A construction is a stacked kernel over many
instances of one dimension.  ``random_pom``, ``random_effect`` and
``random_commuting_pom_and_effect`` are a draw followed by a construction
of one instance.

``run_prop1_trials`` and ``run_objectivity_trials`` share one loop
(``_run_trials``) over windows of trials, each window's draws holding at
most ``BLOCK_ENTRIES`` entries.  It first draws every trial of a window.
Then, for each dimension, it runs the constructions, the validation
(``povm.validate_poms``) and the checks (``luders.*_reports``) of that
dimension's trials as stacked passes, a few LAPACK calls per group instead
of a few per trial.  Every stacked kernel
gives each instance what it gives that instance alone, bit for bit, so a
trial's record does not depend on which window or group it lands in.

Each driver returns one flat record per trial, in trial order; the CSV/JSON
emission lives in the CLI layer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .effects import (
    TOL_ONE,
    Effect,
    annihilation_equivalence,
    is_sharp,
    validate_effect,
)
from .errors import OpmeasError
from .linalg import BLOCK_ENTRIES, dagger, eig_hermitian, hermitize, op_norm, spectral_map, sum_in_order
from .luders import causality_reports, kraus_batch, objectivity_reports, proposition1_reports
from .povm import Pom, PomBatch, _stack_pom, build_pom, validate_effects, validate_poms

_MARGIN = 1e-6


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent, order-insensitive stream for one trial."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
    return np.random.Generator(np.random.Philox(ss))


def _ginibre(rng: np.random.Generator, dim: int) -> np.ndarray:
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish unitary: QR of a Ginibre matrix with the usual phase fix."""
    return _unitaries(_ginibre(rng, dim)[np.newaxis])[0]


def _unitaries(g: np.ndarray) -> np.ndarray:
    """``random_unitary``'s unitary of each Ginibre matrix of a stack."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, np.newaxis, :]


def _diagonal_poms(bases: np.ndarray, weights) -> tuple[np.ndarray, np.ndarray]:
    """The entries and counts of the POMs diagonal in each basis of a stack,
    with the (d, K) outcome weights of the same row: effect i of a POM is
    the Hermitian part of ``spectral_map`` of its basis and weight column i."""
    counts = np.array([w.shape[1] for w in weights])
    entries = spectral_map(np.repeat(bases, counts, axis=0), np.concatenate([w.T for w in weights]))
    return hermitize(entries), counts


def _draw_effect(rng: np.random.Generator, dim: int) -> tuple[np.ndarray, float]:
    """``random_effect``'s draws: a Ginibre matrix and the top of the spectrum."""
    return _ginibre(rng, dim), rng.uniform(0.2, 1.0 - _MARGIN)


def _scaled(g: np.ndarray, tops: np.ndarray) -> np.ndarray:
    """``random_effect``'s operator of each Ginibre matrix of a stack: G†G with
    its spectrum rescaled to the top of the same row."""
    m = hermitize(dagger(g) @ g)
    return m * (tops / eig_hermitian(m).eigenvalues[:, -1])[:, np.newaxis, np.newaxis]


def random_effect(rng: np.random.Generator, dim: int) -> Effect:
    """PSD Ginibre square, spectrum rescaled strictly inside [0, 1)."""
    g, top = _draw_effect(rng, dim)
    op = _scaled(g[np.newaxis], np.array([top]))
    validate_effects(op)
    return Effect(op=op[0])


def _draw_pom(rng: np.random.Generator, dim: int, n_outcomes: int) -> np.ndarray:
    """``random_pom``'s draws: one Ginibre matrix per outcome."""
    return np.array([_ginibre(rng, dim) for _ in range(n_outcomes)])


def _whitened(raw: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``random_pom``'s entries of the POMs of a batch of Ginibre draws: the
    PSD squares G†G, whitened by the inverse root of their POM's sum."""
    batch = PomBatch(entries=hermitize(dagger(raw) @ raw), counts=counts)
    eig = eig_hermitian(sum_in_order(batch.padded(), axis=1))
    w = spectral_map(eig.eigenvectors, 1.0 / np.sqrt(eig.eigenvalues))[batch.owners]
    return hermitize(w @ batch.entries @ w)


def random_pom(rng: np.random.Generator, dim: int, n_outcomes: int) -> Pom:
    """Normalized POM: k PSD draws whitened by the inverse root of their sum."""
    stack = _whitened(_draw_pom(rng, dim, n_outcomes), np.array([n_outcomes]))
    stack.setflags(write=False)
    return _stack_pom(stack, require_normalized=True)


def _draw_commuting(rng: np.random.Generator, dim: int, n_outcomes: int) -> tuple:
    """``random_commuting_pom_and_effect``'s draws: a Ginibre matrix for the
    basis, Dirichlet outcome weights per basis vector and the spectrum of
    the effect."""
    g = _ginibre(rng, dim)
    weights = rng.dirichlet(np.ones(n_outcomes), size=dim)  # rows sum to 1
    return g, weights, rng.uniform(0.0, 1.0, size=dim)


def random_commuting_pom_and_effect(
    rng: np.random.Generator, dim: int, n_outcomes: int
) -> tuple[Pom, Effect]:
    """POM and effect diagonal in one common random basis.

    Outcome weights per basis vector are Dirichlet rows, so the effects sum
    to the identity exactly and everything commutes by construction.
    """
    g, weights, spectrum = _draw_commuting(rng, dim, n_outcomes)
    u = _unitaries(g[np.newaxis])
    stack, _ = _diagonal_poms(u, [weights])
    stack.setflags(write=False)
    pom = _stack_pom(stack, require_normalized=True)
    b = hermitize(spectral_map(u, spectrum[np.newaxis]))
    validate_effects(b)
    return pom, Effect(op=b[0])


def random_orthogonal_support_pair(rng: np.random.Generator, dim: int) -> tuple[Effect, Effect]:
    """Two effects living on complementary subspaces: their product is zero."""
    if dim < 2:
        raise OpmeasError("orthogonal-support pairs need dim >= 2")
    u = random_unitary(rng, dim)
    k = int(rng.integers(1, dim))
    va, vb = u[:, :k], u[:, k:]
    a = hermitize(spectral_map(va, rng.uniform(0.1, 1.0, size=k)))
    b = hermitize(spectral_map(vb, rng.uniform(0.1, 1.0, size=dim - k)))
    return validate_effect(a), validate_effect(b)


def random_overlapping_pair(rng: np.random.Generator, dim: int) -> tuple[Effect, Effect]:
    """Two full-rank effects with spectra floored at 0.05.

    Full rank forces overlapping ranges, and the floor keeps the product
    norm at least 0.05**2, safely clear of any annihilation tolerance.
    """
    eye = np.eye(dim, dtype=complex)

    def draw() -> Effect:
        g = _ginibre(rng, dim)
        m = hermitize(g.conj().T @ g)
        m = m / eig_hermitian(m).eigenvalues[-1]
        return validate_effect(hermitize(0.05 * eye + 0.9 * m))

    return draw(), draw()


def random_projective_pom(rng: np.random.Generator, dim: int, n_outcomes: int) -> Pom:
    """Sharp normalized POM: random basis split into nonempty outcome groups."""
    if n_outcomes > dim:
        raise OpmeasError("a projective POM needs at most dim outcomes")
    u = random_unitary(rng, dim)
    assign = np.concatenate(
        [np.arange(n_outcomes), rng.integers(0, n_outcomes, size=dim - n_outcomes)]
    )
    rng.shuffle(assign)
    effects = []
    for i in range(n_outcomes):
        v = u[:, assign == i]
        effects.append(hermitize(v @ v.conj().T))
    return build_pom(effects, require_normalized=True)


def _pick_dim(rng: np.random.Generator, dims: tuple[int, int]) -> int:
    lo, hi = dims
    if lo > hi or lo < 1:
        raise OpmeasError(f"bad dimension range {dims!r}")
    return int(rng.integers(lo, hi + 1))


# ---------------------------------------------------------------------------
# trial drivers


def _windows(trials: int, dims: tuple[int, int], draws_per_trial: int) -> Iterator[range]:
    """Consecutive ranges of trials whose draws, at most draws_per_trial
    matrices of the largest dimension per trial, hold at most
    ``BLOCK_ENTRIES`` entries (or one trial), made one at a time."""
    size = max(1, BLOCK_ENTRIES // (max(1, dims[1]) ** 2 * max(1, draws_per_trial)))
    return (range(s, min(s + size, trials)) for s in range(0, trials, size))


class _Draw(NamedTuple):
    """All random numbers of one trial, taken from its stream in order."""

    trial: int
    dim: int
    kind: str  # "commuting" | "generic"
    parts: tuple


def _run_trials(
    seed: int,
    trials: int,
    dims: tuple[int, int],
    draws_per_trial: int,
    draw: Callable[[np.random.Generator, int], tuple[str, tuple]],
    records_of: Callable[[list[_Draw]], list],
) -> list:
    """The drivers' one loop.  For each window of trials, it draws every
    trial, its dimension first and then ``draw(rng, dim)``'s (kind, parts);
    then it takes ``records_of`` each dimension's draws, commuting trials
    first.  Returns the records in trial order."""
    records = []
    for window in _windows(trials, dims, draws_per_trial):
        draws = []
        for t in window:
            rng = trial_rng(seed, t)
            dim = _pick_dim(rng, dims)
            draws.append(_Draw(t, dim, *draw(rng, dim)))
        draws.sort(key=lambda d: (d.dim, d.kind != "commuting"))
        for _, same_dim in itertools.groupby(draws, key=lambda d: d.dim):
            records += records_of(list(same_dim))
    return sorted(records, key=lambda r: r.trial)


@dataclass(frozen=True)
class Prop1Trial:
    seed: int
    trial: int
    dim: int
    outcomes: int
    kind: str  # "commuting" | "generic"; the fields below are Prop1Report's, in order
    case: str
    commute: bool
    nondisturb: bool
    equivalent: bool
    max_commutator: float
    deviation: float


def run_prop1_trials(
    seed: int,
    trials: int,
    dims: tuple[int, int] = (2, 6),
    outcomes: tuple[int, int] = (2, 2),
    tol: float = TOL_ONE,
) -> list[Prop1Trial]:
    """Commutativity-vs-nondisturbance over a mixed ensemble.

    Roughly a third of the trials draw a jointly diagonalizable POM/effect
    pair so the equivalence is exercised on both branches, not just the
    generic noncommuting one.
    """

    def draw(rng: np.random.Generator, dim: int) -> tuple[str, tuple]:
        n_out = _pick_dim(rng, outcomes)
        if rng.uniform() < 1.0 / 3.0:
            return "commuting", _draw_commuting(rng, dim, n_out)
        return "generic", (_draw_pom(rng, dim, n_out), *_draw_effect(rng, dim))

    return _run_trials(seed, trials, dims, outcomes[1] + 1, draw, lambda group: _prop1_group(seed, group, tol))


def _prop1_group(seed: int, group: list[_Draw], tol: float) -> list[Prop1Trial]:
    """The records of one dimension's trials, from stacked passes."""
    commuting = [d.parts for d in group if d.kind == "commuting"]
    generic = [d.parts for d in group if d.kind == "generic"]
    parts = []  # (entries, counts, effects) of each kind, concatenated below
    if commuting:
        g, weights, spectra = zip(*commuting)
        u = _unitaries(np.array(g))
        parts.append((*_diagonal_poms(u, weights), hermitize(spectral_map(u, np.array(spectra)))))
    if generic:
        raw, g, tops = zip(*generic)
        counts = np.array([len(r) for r in raw])
        parts.append((_whitened(np.concatenate(raw), counts), counts, _scaled(np.array(g), np.array(tops))))
    entries, counts, bs = (np.concatenate(x) for x in zip(*parts))
    batch = PomBatch(entries=entries, counts=counts)
    validate_poms(batch, require_normalized=True)
    validate_effects(bs)
    reports = proposition1_reports(batch, bs, tol)
    return [Prop1Trial(seed, d.trial, d.dim, int(k), d.kind, *rep) for d, k, rep in zip(group, counts, reports)]


@dataclass(frozen=True)
class ObjectivityTrial:
    seed: int
    trial: int
    dim: int
    kind: str  # the four fields below are ObjectivityReport's, in order
    ops_commute: bool
    effects_commute: bool
    agree: bool
    max_order_gap: float
    link_holds: bool  # ops_commute implies mutual nondisturbance


def run_objectivity_trials(
    seed: int,
    trials: int,
    dims: tuple[int, int] = (2, 6),
    outcomes: tuple[int, int] = (2, 4),
    tol: float = TOL_ONE,
) -> list[ObjectivityTrial]:
    """Operation-commutation vs effect-commutation for pairs of POMs.

    Also verifies the one-way link: whenever the selective operations
    commute, neither measurement disturbs the other's statistics.  A
    commuting trial's second POM is diagonal in the eigenbasis of the first
    POM's first effect.
    """

    def draw(rng: np.random.Generator, dim: int) -> tuple[str, tuple]:
        if rng.uniform() < 1.0 / 3.0:
            g, weights_a, _ = _draw_commuting(rng, dim, _pick_dim(rng, outcomes))  # no effect is formed
            return "commuting", (g, weights_a, rng.dirichlet(np.ones(_pick_dim(rng, outcomes)), size=dim))
        raw_a = _draw_pom(rng, dim, _pick_dim(rng, outcomes))
        return "generic", (raw_a, _draw_pom(rng, dim, _pick_dim(rng, outcomes)))

    return _run_trials(seed, trials, dims, 2 * outcomes[1], draw, lambda group: _objectivity_group(seed, group, tol))


def _objectivity_group(seed: int, group: list[_Draw], tol: float) -> list[ObjectivityTrial]:
    """The records of one dimension's trials, from stacked passes."""
    commuting = [d.parts for d in group if d.kind == "commuting"]
    generic = [d.parts for d in group if d.kind == "generic"]
    parts = []  # (entries_a, counts_a, entries_b, counts_b) of each kind, concatenated below
    if commuting:
        g, weights_a, weights_b = zip(*commuting)
        a, ca = _diagonal_poms(_unitaries(np.array(g)), weights_a)
        basis = eig_hermitian(a[np.cumsum(ca) - ca]).eigenvectors  # of each first POM's first effect
        parts.append((a, ca, *_diagonal_poms(basis, weights_b)))
    if generic:
        raw_a, raw_b = zip(*generic)
        ca, cb = (np.array([len(r) for r in raws]) for raws in (raw_a, raw_b))
        both = _whitened(np.concatenate(raw_a + raw_b), np.concatenate([ca, cb]))
        parts.append((both[: ca.sum()], ca, both[ca.sum() :], cb))
    a, ca, b, cb = (np.concatenate(x) for x in zip(*parts))
    batch_a, batch_b = PomBatch(entries=a, counts=ca), PomBatch(entries=b, counts=cb)
    validate_poms(batch_a, require_normalized=True)
    validate_poms(batch_b, require_normalized=True)
    kraus_a, kraus_b = kraus_batch(batch_a), kraus_batch(batch_b)
    reports = objectivity_reports(batch_a, batch_b, kraus_a, kraus_b, tol)
    linked = np.array([rep.ops_commute for rep in reports])
    link_holds = np.ones(len(reports), dtype=bool)
    if linked.any():
        batches = (b.select(linked) for b in (batch_a, batch_b, kraus_a, kraus_b))
        link_holds[linked] = [not (r.a_disturbs_b or r.b_disturbs_a) for r in causality_reports(*batches, tol)]
    return [
        ObjectivityTrial(seed, d.trial, d.dim, d.kind, *rep, bool(holds))
        for d, rep, holds in zip(group, reports, link_holds)
    ]


@dataclass(frozen=True)
class AnnihilationTrial:
    seed: int
    trial: int
    dim: int
    kind: str
    prod_zero: bool
    ranges_orthogonal: bool
    agree: bool
    prod_norm: float
    range_prod_norm: float


def run_annihilation_trials(
    seed: int,
    trials: int,
    dims: tuple[int, int] = (2, 6),
    tol: float = TOL_ONE,
) -> list[AnnihilationTrial]:
    """E1 E2 = 0 vs orthogonality of range projections, both branches."""
    records = []
    for t in range(trials):
        rng = trial_rng(seed, t)
        dim = _pick_dim(rng, dims)
        orthogonal = rng.uniform() < 0.5
        if orthogonal:
            e1, e2 = random_orthogonal_support_pair(rng, dim)
        else:
            e1, e2 = random_overlapping_pair(rng, dim)
        rep = annihilation_equivalence(e1, e2, tol)
        records.append(
            AnnihilationTrial(
                seed=seed,
                trial=t,
                dim=dim,
                kind="orthogonal" if orthogonal else "generic",
                prod_zero=rep.prod_zero,
                ranges_orthogonal=rep.ranges_orthogonal,
                agree=rep.prod_zero == rep.ranges_orthogonal,
                prod_norm=rep.prod_norm,
                range_prod_norm=rep.range_prod_norm,
            )
        )
    return records


@dataclass(frozen=True)
class SharpnessTrial:
    seed: int
    trial: int
    dim: int
    kind: str
    sharp: bool
    idempotency_defect: float
    agree: bool


def run_sharpness_trials(
    seed: int,
    trials: int,
    dims: tuple[int, int] = (2, 6),
    tol: float = TOL_ONE,
) -> list[SharpnessTrial]:
    """is_sharp vs the idempotency defect ||E^2 - E||, projector and generic draws."""
    records = []
    for t in range(trials):
        rng = trial_rng(seed, t)
        dim = _pick_dim(rng, dims)
        projector = rng.uniform() < 1.0 / 3.0
        if projector:
            u = random_unitary(rng, dim)
            k = int(rng.integers(1, dim + 1))
            v = u[:, :k]
            e = validate_effect(hermitize(v @ v.conj().T))
        else:
            e = random_effect(rng, dim)
        defect = op_norm(e.op @ e.op - e.op)
        sharp = is_sharp(e, tol)
        records.append(
            SharpnessTrial(
                seed=seed,
                trial=t,
                dim=dim,
                kind="projector" if projector else "generic",
                sharp=sharp,
                idempotency_defect=defect,
                agree=sharp == (defect <= tol),
            )
        )
    return records
