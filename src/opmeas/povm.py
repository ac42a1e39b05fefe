"""Positive-operator-valued measures on finite outcome sets.

A ``Pom`` assigns one effect to each outcome of a finite, ordered label
set.  The sigma-algebra is the full power set, so additivity over disjoint
subsets holds by construction: the effect of a subset is the sum of its
singleton effects.  Sub-normalized measures (sum strictly below identity)
are first-class; ``normalized`` records whether the total is the identity.

The effects are held as one read-only ``(K, d, d)`` stack, and validation,
subset sums and the commutator scan work on it.  A ``PomBatch`` holds many
POMs of one dimension for the stacked passes of the ensemble drivers;
``validate_poms`` checks a batch, and ``build_pom`` is its one-POM call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, NamedTuple, Sequence

import numpy as np

from .effects import TOL_ONE, Effect, is_sharp, validate_effect
from .errors import (
    InvalidEffectError,
    NotNormalizedError,
    OpmeasError,
    SumExceedsIdentityError,
    UnknownOutcomeError,
)
from .linalg import (
    BLOCK_ENTRIES,
    BOUND_MARGIN,
    TOL_EIG,
    TOL_HERM,
    TOL_PSD,
    dagger,
    eig_hermitian,
    frobenius_norms,
    hermitize,
    largest_norm,
    op_norms,
    pair_bounds,
    sum_in_order,
)

Outcome = Hashable

# How far inside [-TOL_PSD, 1 + TOL_PSD] ``_screen`` needs a spectrum to clear it
_SCREEN_SLACK = 2.0**-40


@dataclass(frozen=True)
class Pom:
    """Finite outcome set with one effect per outcome.

    The effects are one read-only complex ``(K, d, d)`` stack, in outcome
    order, that nothing outside the POM holds.  The constructor trusts its
    fields; ``build_pom`` makes POMs and their stacks."""

    outcomes: tuple
    stack: np.ndarray
    normalized: bool

    @property
    def dim(self) -> int:
        return self.stack.shape[1]

    def __len__(self) -> int:
        return len(self.outcomes)


def build_pom(
    effects: Sequence[np.ndarray | Effect] | np.ndarray,
    require_normalized: bool,
    outcomes: Sequence[Outcome] | None = None,
) -> Pom:
    """Validate a list of operators, or one ``(K, d, d)`` array, as a POM.

    Checks each entry is a valid effect and that the total sum stays below
    the identity (within TOL_PSD).  With ``require_normalized`` the sum must
    equal the identity within TOL_EIG.  The ``normalized`` flag on the
    result records whether the sum is the identity, independently of
    whether that was required.  The first invalid entry raises
    ``InvalidEffectError`` with its index and message, as checking every
    entry in turn would.  The POM's stack is a copy of the entries.
    """
    if len(effects) == 0:
        raise OpmeasError("a POM needs at least one outcome")
    ops = effects if isinstance(effects, np.ndarray) else [
        raw.op if isinstance(raw, Effect) else raw for raw in effects
    ]
    stack = _as_stack(ops)
    if stack is None:  # not nonempty square matrices of one size
        for i, m in enumerate(ops):
            try:
                validate_effect(m)
            except OpmeasError as exc:
                raise InvalidEffectError(i, exc) from exc
        dims = [np.shape(m)[0] for m in ops]
        i = next(i for i, d in enumerate(dims) if d != dims[0])
        raise InvalidEffectError(i, OpmeasError(f"dim {dims[i]} != {dims[0]}"))
    return _stack_pom(stack, require_normalized, outcomes)


def _stack_pom(
    stack: np.ndarray,
    require_normalized: bool,
    outcomes: Sequence[Outcome] | None = None,
) -> Pom:
    """``build_pom`` of a read-only complex ``(K, d, d)`` stack that the
    caller hands over: the POM keeps it without a copy, so nothing else may
    hold it.  The checks are ``validate_poms`` on a batch of this one POM.
    """
    normalized = validate_poms(PomBatch.of(stack), require_normalized)[0]
    labels = tuple(range(len(stack))) if outcomes is None else tuple(outcomes)
    if len(labels) != len(stack):
        raise OpmeasError("outcome labels and effects differ in length")
    if len(set(labels)) != len(labels):
        raise OpmeasError("outcome labels must be distinct")
    return Pom(outcomes=labels, stack=stack, normalized=bool(normalized))


@dataclass(frozen=True)
class PomBatch:
    """POMs of one dimension: the ``(M, d, d)`` stack of their entries, POM
    after POM, and the number of entries of each.

    A batch of the POMs' Lüders Kraus stacks (``luders.kraus_batch``) has the
    same layout.  ``padded`` lays the entries out as ``(n, Kmax, d, d)``,
    zero past each POM's count.  ``linalg.sum_in_order``
    of it along axis 1 gives each POM the sum of its own stack bit for bit,
    since the zeros come after every entry; ``np.add.reduceat`` adds in
    another order and does not.
    """

    entries: np.ndarray
    counts: np.ndarray

    @classmethod
    def of(cls, stack: np.ndarray) -> PomBatch:
        """The batch of one POM's ``(K, d, d)`` stack."""
        return cls(entries=stack, counts=np.array([len(stack)]))

    @property
    def starts(self) -> np.ndarray:
        """Index of each POM's first entry."""
        return np.cumsum(self.counts) - self.counts

    @property
    def owners(self) -> np.ndarray:
        """Index of the POM of each entry."""
        return np.repeat(np.arange(len(self.counts)), self.counts)

    def padded(self) -> np.ndarray:
        """The entries as a zero-padded ``(n, Kmax, d, d)`` array; a view when
        every POM has Kmax entries."""
        n, kmax = len(self.counts), int(self.counts.max())
        if (self.counts == kmax).all():
            return self.entries.reshape(n, kmax, *self.entries.shape[1:])
        out = np.zeros((n, kmax, *self.entries.shape[1:]), dtype=self.entries.dtype)
        out[np.arange(kmax) < self.counts[:, np.newaxis]] = self.entries
        return out

    def select(self, keep: np.ndarray) -> PomBatch:
        """The batch of the POMs whose entry in the boolean row mask keep is set."""
        return PomBatch(entries=self.entries[np.repeat(keep, self.counts)], counts=self.counts[keep])


def validate_poms(batch: PomBatch, require_normalized: bool) -> np.ndarray:
    """``build_pom``'s checks on every POM of a batch; returns the POMs'
    ``normalized`` flags.

    The first POM that fails raises what ``build_pom`` raises on it:
    ``InvalidEffectError`` with the index of its first invalid entry, else
    ``SumExceedsIdentityError`` when its sum exceeds the identity by more
    than TOL_PSD, else, with ``require_normalized``, ``NotNormalizedError`` when
    the sum is off the identity by more than TOL_EIG.  The entries of all
    POMs are screened as one stack (``_first_invalid``), and the spectra and
    deficits of the sums come from one stacked call each.
    """
    bad = _first_invalid(batch.entries)
    checked = len(batch.counts) if bad is None else batch.owners[bad[0]]
    eye = np.eye(batch.entries.shape[1], dtype=complex)
    totals = sum_in_order(batch.padded()[:checked], axis=1)
    slack = eig_hermitian(eye - totals).eigenvalues[:, 0]
    deficit = op_norms(totals - eye)
    normalized = deficit <= TOL_EIG
    failed = np.flatnonzero((slack < -TOL_PSD) | (require_normalized & ~normalized))
    if len(failed):
        j = failed[0]
        if slack[j] < -TOL_PSD:
            raise SumExceedsIdentityError(f"effect sum exceeds identity by {-slack[j]:.3e}")
        raise NotNormalizedError(f"effect sum differs from identity by {deficit[j]:.3e}")
    if bad is not None:
        i, exc = bad
        raise InvalidEffectError(int(i - batch.starts[checked]), exc) from exc
    return normalized


def validate_effects(stack: np.ndarray) -> None:
    """``validate_effect`` on every matrix of a ``(M, d, d)`` stack: raises what
    it raises on the first invalid one."""
    bad = _first_invalid(stack)
    if bad is not None:
        raise bad[1]


def _first_invalid(stack: np.ndarray) -> tuple[int, OpmeasError] | None:
    """The first entry of a ``(M, d, d)`` stack that ``validate_effect``
    rejects, with its error, or None.  ``validate_effect`` runs only on the
    entries that ``_screen`` cannot clear, in index order."""
    for i in _screen(stack):
        try:
            validate_effect(stack[i])
        except OpmeasError as exc:
            return int(i), exc
    return None


def _as_stack(ops) -> np.ndarray | None:
    """A read-only copy of the entries as one (K, d, d) complex array, or
    None when they are not nonempty square matrices of one size."""
    try:
        stack = np.array(ops, dtype=complex)
    except (TypeError, ValueError):  # entries of different shapes
        return None
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or stack.shape[1] == 0:
        return None
    stack.setflags(write=False)
    return stack


def _screen(stack: np.ndarray) -> list[int]:
    """Indices of the entries that the stacked screen cannot clear as effects.

    The screen runs in blocks of at most ``BLOCK_ENTRIES`` entries.  It
    clears a finite entry E when the Frobenius norm of E - E†, inflated by
    ``BOUND_MARGIN``, is within ``TOL_HERM`` (so its operator norm is), and
    the spectrum of E's Hermitian part, from one batched ``eigvalsh`` per
    block, lies ``_SCREEN_SLACK`` (9.1e-13) inside [-TOL_PSD, 1 + TOL_PSD].
    That is far above the rounding gap to ``eig_hermitian``'s spectrum
    (1.7e-14 on a (256, 16, 16) stack), so ``validate_effect`` decides every
    entry near a limit, and far below ``TOL_PSD``, so a projector's 0 and 1
    clear.
    """
    k, d, _ = stack.shape
    step = max(1, BLOCK_ENTRIES // (d * d))
    suspects: list[int] = []
    for start in range(0, k, step):
        block = stack[start : start + step]
        finite = np.isfinite(block).all(axis=(1, 2))
        with np.errstate(all="ignore"):  # a suspect's own validation reports its faults
            hermitian = frobenius_norms(block - dagger(block)) * (1 + BOUND_MARGIN) <= TOL_HERM
            parts = hermitize(block)
        parts[~finite] = 0.0
        evals = np.linalg.eigvalsh(parts)
        inside = (evals[:, 0] >= -TOL_PSD + _SCREEN_SLACK) & (evals[:, -1] <= 1 + TOL_PSD - _SCREEN_SLACK)
        suspects.extend(start + np.flatnonzero(~(finite & hermitian & inside)))
    return suspects


def effect_of(pom: Pom, subset: Iterable[Outcome]) -> Effect:
    """Sum of the effects over a subset of outcomes, in outcome order.

    The empty set gives the zero effect; the full set gives the identity
    exactly when the POM is normalized.
    """
    wanted = set(subset)
    unknown = wanted.difference(pom.outcomes)
    if unknown:
        raise UnknownOutcomeError(f"unknown outcomes {sorted(map(repr, unknown))}")
    chosen = [label in wanted for label in pom.outcomes]
    return Effect(op=pom.stack[chosen].sum(axis=0))


def is_sharp_pom(pom: Pom, tol: float = TOL_ONE) -> bool:
    """True iff every single-outcome effect is a projection (up to tol)."""
    return all(is_sharp(Effect(op=m), tol) for m in pom.stack)


class CommutativityReport(NamedTuple):
    commutative: bool
    max_commutator: float
    worst_pair: tuple | None


def _commutators(a: np.ndarray, block: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """[a, B] for every matrix B of block, written into out (``pair_bounds``' product)."""
    np.matmul(a, block, out=out)
    np.matmul(block, a, out=tmp)
    return np.subtract(out, tmp, out=out)


def is_commutative(pom: Pom, tol: float = TOL_ONE) -> CommutativityReport:
    """Scan all outcome pairs for the largest commutator norm (``row_commutativity``
    over every row)."""
    return row_commutativity(pom, len(pom), tol)


def row_commutativity(pom: Pom, rows: int, tol: float) -> CommutativityReport:
    """Scan the outcome pairs (x, y), x < y, of the first ``rows`` outcomes x
    for the largest commutator norm: the first pairs of the row-major order.

    Since ``||C||_2 <= ||C||_F``, a pair's Frobenius norm bounds its exact
    operator norm.  ``pair_bounds`` takes the bounds from stacked products
    over the POM's stack.  ``largest_norm`` then walks the pairs in chunks of
    descending bound: it gathers the commutators of the pairs that could
    still be the worst and takes their exact norms in one stacked SVD per
    chunk.  The maximum and the worst pair are those of a plain loop over
    the scanned pairs, bit for bit.  Memory beyond the POM: two 1 MiB product
    buffers while bounding, 32 bytes per pair for the bounds, their order
    and the pair indices, then a few temporaries of at most
    ``BLOCK_ENTRIES`` entries (1 MiB) per chunk.  For a Weyl-orbit POVM,
    ``localization.phase_space_commutativity`` gives the maximum in closed
    form.
    """
    stack = pom.stack
    firsts, seconds = np.triu_indices(len(pom), 1)

    def commutators(ps: np.ndarray) -> np.ndarray:
        left, right = stack[firsts[ps]], stack[seconds[ps]]
        return left @ right - right @ left

    worst, worst_at = largest_norm(pair_bounds(stack[:rows], stack, _commutators), commutators)
    worst_pair = None
    if worst_at >= 0:
        worst_pair = (pom.outcomes[firsts[worst_at]], pom.outcomes[seconds[worst_at]])
    commutative = worst <= tol
    return CommutativityReport(
        commutative=commutative,
        max_commutator=worst,
        worst_pair=None if commutative else worst_pair,
    )
