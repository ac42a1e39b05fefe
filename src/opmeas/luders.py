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
from typing import Iterator, NamedTuple

import numpy as np

from .effects import TOL_ONE, Effect
from .errors import NotNormalizedError
from .linalg import (
    BLOCK_ENTRIES,
    BOUND_MARGIN,
    as_matrix,
    eig_hermitian,
    frobenius_norms,
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
    for s in _blocks(len(owners), padded[0].size):
        block = effects.entries[s]
        duals = _duals(padded[owners[s]], block[:, np.newaxis])[:, 0]
        deviations[s] = _deviations(eig_hermitian(duals - block).eigenvalues)
    return deviations


def _gap_maxima(kraus_a: PomBatch, kraus_b: PomBatch) -> np.ndarray:
    """The largest ``_order_gaps`` of each row over the pairs of a Kraus
    operator of its POM in kraus_a with one of its POM in kraus_b.  The pairs
    of all rows form one list, taken in ``_blocks``."""
    ia, ib, starts = _cross_pairs(kraus_a, kraus_b)
    out = np.empty(len(ia))
    for s in _blocks(len(ia), kraus_a.entries[0].size):
        out[s] = _order_gaps(kraus_a.entries[ia[s]], kraus_b.entries[ib[s]])
    return np.maximum.reduceat(out, starts)


def _commutator_maxima(batch_a: PomBatch, batch_b: PomBatch) -> np.ndarray:
    """The largest commutator norm ||AB - BA|| of each row over the pairs of
    an entry A of its POM in batch_a with an entry B of its POM in batch_b,
    in one pass over ``_blocks`` of the list of all rows' pairs.

    Each pair's norm is bounded from above by the Frobenius norm and from
    below by the largest column norm of its commutator.  A block takes the
    exact norms, with one ``op_norms`` call, of its pairs whose bound,
    inflated by ``BOUND_MARGIN``, exceeds the largest lower bound of their
    row so far, deflated by it.  The pair that sets that lower bound is
    kept, and every pair left out has a norm below its norm, so each row's
    maximum is the one that the exact norm of every pair gives.  An exactly
    zero commutator, whose bound is zero, is never kept: its norm is 0.0
    without an SVD.
    """
    ia, ib, starts = _cross_pairs(batch_a, batch_b)
    rows = np.repeat(np.arange(len(starts)), np.diff(starts, append=len(ia)))
    floor = np.zeros(len(starts))  # each row's largest lower bound so far
    out = np.zeros(len(ia))
    for s in _blocks(len(ia), batch_a.entries[0].size):
        x, y = batch_a.entries[ia[s]], batch_b.entries[ib[s]]
        c = x @ y - y @ x
        np.maximum.at(floor, rows[s], np.sqrt(_column_squares(c).max(axis=1)))
        kept = np.flatnonzero(frobenius_norms(c) * (1 + BOUND_MARGIN) > floor[rows[s]] * (1 - BOUND_MARGIN))
        if len(kept):
            out[s][kept] = op_norms(c[kept])
    return np.maximum.reduceat(out, starts)


def _blocks(items: int, item_entries: int) -> Iterator[slice]:
    """Consecutive slices of a list of items (pairs, or effects) whose
    temporaries, at item_entries per item, hold at most ``BLOCK_ENTRIES``
    entries (or one item)."""
    step = max(1, BLOCK_ENTRIES // item_entries)
    return (slice(s, s + step) for s in range(0, items, step))


def _column_squares(c: np.ndarray) -> np.ndarray:
    """Sum of the squared moduli of each column of each matrix of a (P, d, d) stack."""
    return np.einsum("pij,pij->pj", c.real, c.real) + np.einsum("pij,pij->pj", c.imag, c.imag)


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
    max_comm = _commutator_maxima(single, batch)
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
    ||X rho X† - Y rho Y†|| from above on every pure state.  It is formed
    from X and Y alone: the gap of a pair is zero exactly when X = e^{iθ} Y,
    and after turning Y by the phase of tr(X† Y) the squared gap is a sum of
    terms that each carry D = X - e^{iθ} Y (``_order_gaps``).  Compared
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

    The gaps are ``_gap_maxima`` over the Kraus pairs, O(d²) per pair.  The effect commutators are ``_commutator_maxima`` over
    the entry pairs, which takes exact norms only of the pairs that Frobenius
    and column-norm bounds do not settle.
    """
    gaps = _gap_maxima(kraus_a, kraus_b)
    comms = _commutator_maxima(batch_a, batch_b)
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
    """Frobenius norm of kron(X, conj X) - kron(Y, conj Y), with X = xy and
    Y = yx, for each pair of the stacks, from d x d operands alone.

    With s = <X, Y> = tr(X† Y), Y' = (conj s / |s|) Y (Y' = Y when s = 0) and
    D = X - Y', kron(Y, conj Y) = kron(Y', conj Y') and the difference is
    kron(D, conj X) + kron(Y', conj D), whose squared norm is
    ||D||²(||X||² + ||Y||²) + 2 Re(<D, Y'> conj <X, D>).  Every term carries
    D, so a gap of rounding noise stays rounding noise, where the equal
    ||X||⁴ + ||Y||⁴ - 2|s|² would leave about sqrt(eps) of it.  D is the test
    xy = e^{iθ} yx: the gap vanishes exactly when it holds.  The sum is a
    squared norm, but rounding may take a vanishing one just below zero.
    """
    xy, yx = x @ y, y @ x
    s = _inners(xy, yx)
    phase = np.ones_like(s)
    nonzero = s != 0
    phase[nonzero] = s[nonzero].conj() / abs(s[nonzero])
    yx *= phase[:, np.newaxis, np.newaxis]
    d = xy - yx
    squares = _inners(d, d).real * (_inners(xy, xy).real + _inners(yx, yx).real)
    squares += 2 * (_inners(d, yx) * _inners(xy, d).conj()).real
    return np.sqrt(np.maximum(squares, 0.0))


def _inners(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """tr(A† B) for each pair of matrices of two (P, d, d) stacks."""
    return np.einsum("pij,pij->p", a.conj(), b)


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
