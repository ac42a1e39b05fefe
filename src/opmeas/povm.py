"""Positive-operator-valued measures on finite outcome sets.

A ``Pom`` assigns one effect to each outcome of a finite, ordered label
set.  The sigma-algebra is the full power set, so additivity over disjoint
subsets holds by construction: the effect of a subset is the sum of its
singleton effects.  Sub-normalized measures (sum strictly below identity)
are first-class; ``normalized`` records whether the total is the identity.

The effects are held as one read-only ``(K, d, d)`` stack, and validation,
subset sums and the commutator scan work on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
    op_norm,
    pair_bounds,
)

Outcome = Hashable


@dataclass(frozen=True)
class Pom:
    """Finite outcome set with one effect per outcome.

    The effects are one read-only complex ``(K, d, d)`` stack, in outcome
    order, that nothing outside the POM holds.  The constructor trusts its
    fields; ``build_pom`` makes POMs and their stacks."""

    outcomes: tuple
    stack: np.ndarray
    normalized: bool

    @cached_property
    def effects(self) -> tuple[Effect, ...]:
        """The effects, as read-only views into the stack (the stack is the
        POM's own, so unlike ``Effect(op=...)`` they take no copy)."""
        return tuple(_view(m) for m in self.stack)

    @property
    def dim(self) -> int:
        return self.stack.shape[1]

    def __len__(self) -> int:
        return len(self.outcomes)


def build_pom(
    effects: Sequence[np.ndarray | Effect] | np.ndarray,
    require_normalized: bool,
    outcomes: Sequence[Outcome] | None = None,
    tol: float = TOL_PSD,
) -> Pom:
    """Validate a list of operators, or one ``(K, d, d)`` array, as a POM.

    Checks each entry is a valid effect and that the total sum stays below
    the identity (within tol).  With ``require_normalized`` the sum must
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
                validate_effect(m, tol)
            except OpmeasError as exc:
                raise InvalidEffectError(i, exc) from exc
        dims = [np.shape(m)[0] for m in ops]
        i = next(i for i, d in enumerate(dims) if d != dims[0])
        raise InvalidEffectError(i, OpmeasError(f"dim {dims[i]} != {dims[0]}"))
    return _stack_pom(stack, require_normalized, outcomes, tol)


def _stack_pom(
    stack: np.ndarray,
    require_normalized: bool,
    outcomes: Sequence[Outcome] | None = None,
    tol: float = TOL_PSD,
) -> Pom:
    """``build_pom`` of a read-only complex ``(K, d, d)`` stack that the
    caller hands over: the POM keeps it without a copy, so nothing else may
    hold it.

    The entries are screened as one stack (``_suspects``); ``validate_effect``
    runs only on those the screen cannot clear, in index order.
    """
    for i in _suspects(stack, tol):
        try:
            validate_effect(stack[i], tol)
        except OpmeasError as exc:
            raise InvalidEffectError(i, exc) from exc
    dim = stack.shape[1]
    total = np.zeros((dim, dim), dtype=complex)
    for m in stack:
        total = total + m
    slack = eig_hermitian(np.eye(dim, dtype=complex) - hermitize(total)).eigenvalues
    if slack[0] < -tol:
        raise SumExceedsIdentityError(f"effect sum exceeds identity by {-slack[0]:.3e}")
    deficit = op_norm(total - np.eye(dim, dtype=complex))
    is_normalized = deficit <= TOL_EIG
    if require_normalized and not is_normalized:
        raise NotNormalizedError(f"effect sum differs from identity by {deficit:.3e}")
    labels = tuple(range(len(stack))) if outcomes is None else tuple(outcomes)
    if len(labels) != len(stack):
        raise OpmeasError("outcome labels and effects differ in length")
    if len(set(labels)) != len(labels):
        raise OpmeasError("outcome labels must be distinct")
    return Pom(outcomes=labels, stack=stack, normalized=is_normalized)


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


def _view(m: np.ndarray) -> Effect:
    """An ``Effect`` on a read-only row of a POM's stack, without the copy
    that ``Effect(op=...)`` takes of an operator from outside."""
    effect = object.__new__(Effect)
    object.__setattr__(effect, "op", m)
    return effect


def _suspects(stack: np.ndarray, tol: float) -> list[int]:
    """Indices of the entries that the stacked screen cannot clear as effects.

    The screen runs in blocks of at most ``BLOCK_ENTRIES`` entries.  It
    clears a finite entry E when the Frobenius norm of E - E†, inflated by
    ``BOUND_MARGIN``, is within ``TOL_HERM`` (so its operator norm is), and
    the spectrum of E's Hermitian part lies in [-tol, 1 + tol].  One batched
    ``eigh`` per block gives the spectra; its eigenvalues are those of
    ``eig_hermitian``, bit for bit, since both decompose the same Hermitian
    part with the same LAPACK routine.
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
        evals = np.linalg.eigh(parts)[0]
        cleared = finite & hermitian & (evals[:, 0] >= -tol) & (evals[:, -1] <= 1 + tol)
        suspects.extend(start + np.flatnonzero(~cleared))
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
    dim = pom.dim
    total = np.zeros((dim, dim), dtype=complex)
    for label, m in zip(pom.outcomes, pom.stack):
        if label in wanted:
            total = total + m
    return Effect(op=total)


def is_sharp_pom(pom: Pom, tol: float = TOL_ONE) -> bool:
    """True iff every single-outcome effect is a projection (up to tol)."""
    return all(is_sharp(e, tol) for e in pom.effects)


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
    """Scan all outcome pairs for the largest commutator norm.

    Since ``||C||_2 <= ||C||_F``, a pair's Frobenius norm bounds its exact
    operator norm.  ``pair_bounds`` takes the bounds from stacked products
    over the POM's stack.  ``largest_norm`` then walks the pairs in chunks of
    descending bound: it gathers the commutators of the pairs that could
    still be the worst, screens them with the tighter Schatten-8 bound, and
    takes the exact norms of the rest in one stacked SVD per chunk.  The
    maximum and the worst pair are those of a plain loop over all pairs, bit
    for bit.  Memory beyond the POM: two 1 MiB product buffers while
    bounding, 32 bytes per pair for the bounds, their order and the pair
    indices, then a few temporaries of at most ``BLOCK_ENTRIES`` entries
    (1 MiB) per chunk.
    """
    stack = pom.stack
    rows, cols = np.triu_indices(len(pom), 1)

    def commutators(ps: np.ndarray) -> np.ndarray:
        left, right = stack[rows[ps]], stack[cols[ps]]
        return left @ right - right @ left

    worst, worst_at = largest_norm(pair_bounds(stack, stack, _commutators), commutators)
    worst_pair = None
    if worst_at >= 0:
        worst_pair = (pom.outcomes[rows[worst_at]], pom.outcomes[cols[worst_at]])
    commutative = worst <= tol
    return CommutativityReport(
        commutative=commutative,
        max_commutator=worst,
        worst_pair=None if commutative else worst_pair,
    )
