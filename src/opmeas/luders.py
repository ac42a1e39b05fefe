"""Lüders instruments and the three operational equivalences.

Central object: the Lüders instrument of a normalized POM, with Kraus
operators sqrt(E_i), selective operations rho -> sqrt(E_i) rho sqrt(E_i)
and their trace-preserving sum.  Everything here works in the Heisenberg
picture or on the Kraus operators themselves.  On top of it sit three
checkers:

* ``nondisturbance`` — measuring A nonselectively leaves the statistics of
  an effect B unchanged for *every* input state iff B is a fixed point of
  the Heisenberg dual of the channel, so the "for all rho" quantifier
  collapses to a single operator identity.
* ``proposition1_verify`` — nondisturbance against commutativity of B with
  the POM's effects.
* ``objectivity_check`` / ``causality_check_C`` — commutation of selective
  operations for two POMs, and mutual nondisturbance.

Each of the three checks is one stacked kernel over a batch of same-dimension
POMs (``proposition1_reports``, ``objectivity_reports``, ``causality_reports``),
which the ensemble drivers call once per dimension group; the public checks
are their calls on a batch of one.  A kernel gives each row of a batch what
it gives that row alone, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .effects import TOL_ONE, Effect
from .errors import NotNormalizedError
from .linalg import (
    BLOCK_ENTRIES,
    as_matrix,
    eig_hermitian,
    hermitize,
    op_norms,
    outer,
    psd_sqrt,
    require_same_dim,
    sum_in_order,
)
from .povm import Pom, PomBatch


@dataclass(frozen=True)
class State:
    """Density matrix: Hermitian, PSD, unit trace."""

    rho: np.ndarray

    def __post_init__(self):
        a = np.array(as_matrix(self.rho))
        a.setflags(write=False)
        object.__setattr__(self, "rho", a)

    @property
    def dim(self) -> int:
        return self.rho.shape[0]


@dataclass(frozen=True)
class LudersInstrument:
    """Normalized source POM with its Kraus operators sqrt(E_i), one read-only stack."""

    source: Pom
    kraus: np.ndarray

    @classmethod
    def from_pom(cls, pom: Pom) -> LudersInstrument:
        if not pom.normalized:
            raise NotNormalizedError("Luders instrument requires a normalized POM")
        kraus = psd_sqrt(pom.stack)
        kraus.setflags(write=False)
        return cls(source=pom, kraus=kraus)

    @property
    def dim(self) -> int:
        return self.source.dim


def heisenberg_dual(instr: LudersInstrument, b: Effect) -> Effect:
    """Dual map on effects: B -> Hermitian part of sum sqrt(E_i) B sqrt(E_i).

    ``Effect`` coerces the result, but its spectrum is not checked again:
    the dual of a Luders channel maps effects to effects.
    """
    require_same_dim(instr.kraus[0], b.op)
    return Effect(op=_duals(instr.kraus, b.op[np.newaxis])[0])


def _duals(kraus: np.ndarray, effects: np.ndarray) -> np.ndarray:
    """Hermitian part of sum_i K_i B K_i for each B of a (..., M, d, d) stack,
    under the (..., K, d, d) Kraus stack of the same leading shape, from one
    broadcast product."""
    k = kraus[..., np.newaxis, :, :]
    return hermitize(sum_in_order(k @ effects[..., np.newaxis, :, :, :] @ k, axis=-4))


def _deviations(evals: np.ndarray) -> np.ndarray:
    """||D|| of each Hermitian D from its ascending eigenvalues: the larger of
    |lowest| and |highest|."""
    return np.maximum(abs(evals[..., 0]), abs(evals[..., -1]))


def kraus_batch(batch: PomBatch) -> PomBatch:
    """The Kraus stacks sqrt(E_i) of the Luders instruments of a batch's POMs,
    laid out as the batch, from one stacked ``psd_sqrt``."""
    return PomBatch(entries=psd_sqrt(batch.entries), counts=batch.counts)


def _nondisturbance_deviations(kraus: PomBatch, effects: PomBatch) -> np.ndarray:
    """``nondisturbance``'s deviation of each entry of a batch of effects
    under the Luders channel of the same row of a ``kraus_batch``.  The
    deviations come from stacked products and one stacked ``eig_hermitian``
    per block of at most ``BLOCK_ENTRIES`` product entries (or one effect),
    each equal to ``nondisturbance``'s bit for bit."""
    padded, owners = kraus.padded(), effects.owners
    deviations = np.empty(len(owners))
    step = max(1, BLOCK_ENTRIES // padded[0].size)
    for s in range(0, len(owners), step):
        block = effects.entries[s : s + step]
        duals = _duals(padded[owners[s : s + step]], block[:, np.newaxis])[:, 0]
        deviations[s : s + step] = _deviations(eig_hermitian(duals - block).eigenvalues)
    return deviations


def _pair_maxima(
    batch_a: PomBatch, batch_b: PomBatch, values: Callable[[np.ndarray, np.ndarray], np.ndarray], pair_entries: int
) -> np.ndarray:
    """The largest ``values(A, B)`` of each row over the pairs of an entry A
    of its POM in batch_a with an entry B of its POM in batch_b.  The pairs
    of all rows form one list, taken in blocks whose temporaries hold at
    most ``BLOCK_ENTRIES`` entries (or one pair), at pair_entries per pair;
    values(x, y) maps the stacks x, y of a block's pairs to one value each."""
    ia, ib, starts = _cross_pairs(batch_a, batch_b)
    out = np.empty(len(ia))
    step = max(1, BLOCK_ENTRIES // pair_entries)
    for s in range(0, len(ia), step):
        out[s : s + step] = values(batch_a.entries[ia[s : s + step]], batch_b.entries[ib[s : s + step]])
    return np.maximum.reduceat(out, starts)


def _commutator_norms(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return op_norms(x @ y - y @ x)


class NondisturbanceReport(NamedTuple):
    holds: bool
    deviation: float
    witness: State | None


def nondisturbance(instr: LudersInstrument, b: Effect, tol: float = TOL_ONE) -> NondisturbanceReport:
    """Fixed-point test for the Heisenberg dual.

    deviation = ||dual(B) - B||_op.  Since tr[rho (dual(B) - B)] ranges over
    the numerical range of the deviation operator as rho ranges over all
    states, the statistics of B are unchanged for every input state iff the
    deviation vanishes.  The witness is the pure state on the eigenvector
    of the extremal eigenvalue, attaining |tr[rho dual(B)] - tr[rho B]| =
    deviation.
    """
    eig = eig_hermitian(heisenberg_dual(instr, b).op - b.op)
    deviation = float(_deviations(eig.eigenvalues))
    if deviation <= tol:
        return NondisturbanceReport(holds=True, deviation=deviation, witness=None)
    col = 0 if abs(eig.eigenvalues[0]) == deviation else -1
    witness = State(rho=outer(eig.eigenvectors[:, col]))
    return NondisturbanceReport(holds=False, deviation=deviation, witness=witness)


class Prop1Report(NamedTuple):
    case: str
    commute: bool
    nondisturb: bool
    equivalent: bool
    max_commutator: float
    deviation: float


def proposition1_verify(pom: Pom, b: Effect, tol: float = TOL_ONE) -> Prop1Report:
    """Commutativity of B with a POM versus nondisturbance of B by its Luders channel.

    In finite dimension every effect has a discretely ordered spectrum, so
    the ordered-spectrum case applies to any source POM ("alpha"); binary
    POMs additionally fall under the two-outcome case ("both").
    """
    if not pom.normalized:
        raise NotNormalizedError("proposition1_verify requires a normalized POM")
    require_same_dim(b.op, pom.stack[0])
    return proposition1_reports(PomBatch.of(pom.stack), b.op[np.newaxis], tol)[0]


def proposition1_reports(batch: PomBatch, bs: np.ndarray, tol: float = TOL_ONE) -> list[Prop1Report]:
    """``proposition1_verify`` of each normalized POM of a batch with the
    effect of the same row of a ``(n, d, d)`` stack.

    The effects form a batch of one entry per row, so the commutator norms
    and the deviations come from the kernels that ``objectivity_reports``
    and ``causality_reports`` use.
    """
    single = PomBatch(entries=bs, counts=np.ones(len(bs), dtype=int))
    max_comm = _pair_maxima(single, batch, _commutator_norms, bs[0].size)
    deviation = _nondisturbance_deviations(kraus_batch(batch), single)
    reports = []
    for k, comm, dev in zip(batch.counts, max_comm.tolist(), deviation.tolist()):
        reports.append(
            Prop1Report(
                case="both" if k == 2 else "alpha",
                commute=comm <= tol,
                nondisturb=dev <= tol,
                equivalent=(comm <= tol) == (dev <= tol),
                max_commutator=comm,
                deviation=dev,
            )
        )
    return reports


class ObjectivityReport(NamedTuple):
    ops_commute: bool
    effects_commute: bool
    agree: bool
    max_order_gap: float


def objectivity_check(pom_a: Pom, pom_b: Pom, tol: float = TOL_ONE) -> ObjectivityReport:
    """Do the selective operations of two POMs commute as maps?

    For Kraus operators Ka, Kb the two orders are rho -> X rho X† with
    X = Ka Kb and rho -> Y rho Y† with Y = Kb Ka.  A map rho -> X rho X†
    has the natural representation kron(X, conj(X)), and two maps are
    equal iff those matrices are (Watrous, The Theory of Quantum
    Information, §2.2).  So ``max_order_gap`` is the largest Frobenius norm
    of their difference over all Kraus pairs; it bounds
    ||X rho X† - Y rho Y†|| from above on every pure state.  Compared
    against plain pairwise commutativity of the effects.
    """
    if not (pom_a.normalized and pom_b.normalized):
        raise NotNormalizedError("objectivity_check requires normalized POMs")
    require_same_dim(pom_a.stack[0], pom_b.stack[0])
    a, b = PomBatch.of(pom_a.stack), PomBatch.of(pom_b.stack)
    return objectivity_reports(a, b, kraus_batch(a), kraus_batch(b), tol)[0]


def objectivity_reports(
    batch_a: PomBatch, batch_b: PomBatch, kraus_a: PomBatch, kraus_b: PomBatch, tol: float = TOL_ONE
) -> list[ObjectivityReport]:
    """``objectivity_check`` of the normalized POMs of the same row of two
    batches, whose ``kraus_batch`` are kraus_a and kraus_b.

    Both maxima come from ``_pair_maxima``: the gaps over the Kraus pairs,
    whose natural representations hold d**4 entries, and the effect
    commutators over the entry pairs.
    """
    d2 = batch_a.entries[0].size
    gaps = _pair_maxima(kraus_a, kraus_b, _order_gaps, d2 * d2)
    comms = _pair_maxima(batch_a, batch_b, _commutator_norms, d2)
    reports = []
    for gap, comm in zip(gaps.tolist(), comms.tolist()):
        reports.append(
            ObjectivityReport(
                ops_commute=gap <= tol,
                effects_commute=comm <= tol,
                agree=(gap <= tol) == (comm <= tol),
                max_order_gap=gap,
            )
        )
    return reports


def _cross_pairs(batch_a: PomBatch, batch_b: PomBatch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entry indices (ia, ib) of every pair of an entry of a row's POM in
    batch_a with one of its POM in batch_b, row after row and a's entry
    before b's, and the index of each row's first pair."""
    sizes = batch_a.counts * batch_b.counts
    starts = np.cumsum(sizes) - sizes
    row = np.repeat(np.arange(len(sizes)), sizes)
    local = np.arange(len(row)) - starts[row]
    return (
        batch_a.starts[row] + local // batch_b.counts[row],
        batch_b.starts[row] + local % batch_b.counts[row],
        starts,
    )


def _order_gaps(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Frobenius norm of kron(XY, conj XY) - kron(YX, conj YX) for each pair of the stacks."""
    return np.linalg.norm(_natural(x @ y) - _natural(y @ x), axis=(1, 2))


def _natural(x: np.ndarray) -> np.ndarray:
    """kron(X, conj X) of each matrix of a (P, d, d) stack, entry by entry the
    product that ``np.kron`` forms (``einsum`` rounds some apart)."""
    p, d, _ = x.shape
    return (x[:, :, None, :, None] * x.conj()[:, None, :, None, :]).reshape(p, d * d, d * d)


class CausalityCReport(NamedTuple):
    a_disturbs_b: bool
    b_disturbs_a: bool


def causality_check_C(pom_a: Pom, pom_b: Pom, tol: float = TOL_ONE) -> CausalityCReport:
    """Mutual statistics disturbance between two normalized POMs.

    A disturbs B when some effect of B fails the fixed-point test under
    A's Luders channel.  Neither direction is disturbed exactly when all
    cross-pairs of effects commute.
    """
    require_same_dim(pom_a.stack[0], pom_b.stack[0])
    if not (pom_a.normalized and pom_b.normalized):
        raise NotNormalizedError("Luders instrument requires a normalized POM")
    a, b = PomBatch.of(pom_a.stack), PomBatch.of(pom_b.stack)
    return causality_reports(a, b, kraus_batch(a), kraus_batch(b), tol)[0]


def causality_reports(
    batch_a: PomBatch, batch_b: PomBatch, kraus_a: PomBatch, kraus_b: PomBatch, tol: float = TOL_ONE
) -> list[CausalityCReport]:
    """``causality_check_C`` of the normalized POMs of the same row of two
    batches, whose ``kraus_batch`` are kraus_a and kraus_b."""
    a_disturbs, b_disturbs = _disturbs(kraus_a, batch_b, tol), _disturbs(kraus_b, batch_a, tol)
    return [CausalityCReport(a, b) for a, b in zip(a_disturbs.tolist(), b_disturbs.tolist())]


def _disturbs(kraus: PomBatch, target: PomBatch, tol: float) -> np.ndarray:
    """Whether some effect of each row's target POM fails ``nondisturbance``
    under the Luders channel of the row's Kraus stack."""
    holds = _nondisturbance_deviations(kraus, target) <= tol
    return ~np.logical_and.reduceat(holds, target.starts)
