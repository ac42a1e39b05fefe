"""Seeded random ensembles and trial drivers for the equivalence checks.

All randomness flows from one 64-bit seed through a counter-based Philox
generator, keyed per trial via ``SeedSequence(entropy=seed, spawn_key=(trial,))``.
Trial n always sees the same stream no matter how many trials run, in what
order, or on how many workers, so reports are reproducible and mergeable.

Each driver returns one flat record per trial; the CSV/JSON emission lives
in the CLI layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .effects import (
    TOL_ONE,
    Effect,
    annihilation_equivalence,
    is_sharp,
    validate_effect,
)
from .errors import OpmeasError
from .linalg import eig_hermitian, hermitize, op_norm
from .luders import causality_check_C, objectivity_check, proposition1_verify
from .povm import Pom, build_pom

_MARGIN = 1e-6


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent, order-insensitive stream for one trial."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
    return np.random.Generator(np.random.Philox(ss))


def _ginibre(rng: np.random.Generator, dim: int) -> np.ndarray:
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish unitary: QR of a Ginibre matrix with the usual phase fix."""
    q, r = np.linalg.qr(_ginibre(rng, dim))
    d = np.diagonal(r)
    ph = d / np.abs(d)
    return q * ph


def random_effect(rng: np.random.Generator, dim: int) -> Effect:
    """PSD Ginibre square, spectrum rescaled strictly inside [0, 1)."""
    g = _ginibre(rng, dim)
    m = hermitize(g.conj().T @ g)
    top = eig_hermitian(m).eigenvalues[-1]
    scale = rng.uniform(0.2, 1.0 - _MARGIN) / top
    return validate_effect(m * scale)


def random_pom(rng: np.random.Generator, dim: int, n_outcomes: int) -> Pom:
    """Normalized POM: k PSD draws whitened by the inverse root of their sum."""
    raw = [hermitize(g.conj().T @ g) for g in (_ginibre(rng, dim) for _ in range(n_outcomes))]
    eig = eig_hermitian(sum(raw))
    w = eig.eigenvectors @ np.diag(1.0 / np.sqrt(eig.eigenvalues)) @ eig.eigenvectors.conj().T
    effects = [hermitize(w @ m @ w) for m in raw]
    return build_pom(effects, require_normalized=True)


def random_commuting_pom_and_effect(
    rng: np.random.Generator, dim: int, n_outcomes: int
) -> tuple[Pom, Effect]:
    """POM and effect diagonal in one common random basis.

    Outcome weights per basis vector are Dirichlet rows, so the effects sum
    to the identity exactly and everything commutes by construction.
    """
    u = random_unitary(rng, dim)
    weights = rng.dirichlet(np.ones(n_outcomes), size=dim)  # rows sum to 1
    effects = [hermitize(u @ np.diag(weights[:, i].astype(complex)) @ u.conj().T) for i in range(n_outcomes)]
    pom = build_pom(effects, require_normalized=True)
    b = validate_effect(hermitize(u @ np.diag(rng.uniform(0.0, 1.0, size=dim).astype(complex)) @ u.conj().T))
    return pom, b


def random_orthogonal_support_pair(rng: np.random.Generator, dim: int) -> tuple[Effect, Effect]:
    """Two effects living on complementary subspaces: their product is zero."""
    if dim < 2:
        raise OpmeasError("orthogonal-support pairs need dim >= 2")
    u = random_unitary(rng, dim)
    k = int(rng.integers(1, dim))
    va, vb = u[:, :k], u[:, k:]
    a = hermitize(va @ np.diag(rng.uniform(0.1, 1.0, size=k).astype(complex)) @ va.conj().T)
    b = hermitize(vb @ np.diag(rng.uniform(0.1, 1.0, size=dim - k).astype(complex)) @ vb.conj().T)
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


@dataclass(frozen=True)
class Prop1Trial:
    seed: int
    trial: int
    dim: int
    outcomes: int
    kind: str  # "commuting" | "generic"
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
    records = []
    for t in range(trials):
        rng = trial_rng(seed, t)
        dim = _pick_dim(rng, dims)
        n_out = _pick_dim(rng, outcomes)
        commuting = rng.uniform() < 1.0 / 3.0
        if commuting:
            pom, b = random_commuting_pom_and_effect(rng, dim, n_out)
        else:
            pom = random_pom(rng, dim, n_out)
            b = random_effect(rng, dim)
        rep = proposition1_verify(pom, b, tol)
        records.append(
            Prop1Trial(
                seed=seed,
                trial=t,
                dim=dim,
                outcomes=n_out,
                kind="commuting" if commuting else "generic",
                case=rep.case,
                commute=rep.commute,
                nondisturb=rep.nondisturb,
                equivalent=rep.equivalent,
                max_commutator=rep.max_commutator,
                deviation=rep.deviation,
            )
        )
    return records


@dataclass(frozen=True)
class ObjectivityTrial:
    seed: int
    trial: int
    dim: int
    kind: str
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
    commute, neither measurement disturbs the other's statistics.
    """
    records = []
    for t in range(trials):
        rng = trial_rng(seed, t)
        dim = _pick_dim(rng, dims)
        commuting = rng.uniform() < 1.0 / 3.0
        if commuting:
            pom_a, _ = random_commuting_pom_and_effect(rng, dim, _pick_dim(rng, outcomes))
            # second POM diagonal in the same basis: coarse-grain-free redraw
            u = eig_hermitian(pom_a.stack[0]).eigenvectors
            weights = rng.dirichlet(np.ones(_pick_dim(rng, outcomes)), size=dim)
            pom_b = build_pom(
                [hermitize(u @ np.diag(weights[:, i].astype(complex)) @ u.conj().T) for i in range(weights.shape[1])],
                require_normalized=True,
            )
        else:
            pom_a = random_pom(rng, dim, _pick_dim(rng, outcomes))
            pom_b = random_pom(rng, dim, _pick_dim(rng, outcomes))
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
                kind="commuting" if commuting else "generic",
                ops_commute=rep.ops_commute,
                effects_commute=rep.effects_commute,
                agree=rep.agree,
                max_order_gap=rep.max_order_gap,
                link_holds=link_holds,
            )
        )
    return records


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
