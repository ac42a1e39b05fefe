"""Positive-operator-valued measures on finite outcome sets.

A ``Pom`` assigns one effect to each outcome of a finite, ordered label
set.  The sigma-algebra is the full power set, so additivity over disjoint
subsets holds by construction: the effect of a subset is the sum of its
singleton effects.  Sub-normalized measures (sum strictly below identity)
are first-class; ``normalized`` records whether the total is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, NamedTuple, Sequence

import numpy as np

from . import linalg
from .effects import TOL_ONE, Effect, is_sharp, validate_effect
from .errors import (
    InvalidEffectError,
    NotNormalizedError,
    OpmeasError,
    SumExceedsIdentityError,
    UnknownOutcomeError,
)
from .linalg import TOL_EIG, TOL_PSD, commutator_norm, eig_hermitian, op_norm

Outcome = Hashable


@dataclass(frozen=True)
class Pom:
    """Finite outcome set with one effect per outcome."""

    outcomes: tuple
    effects: tuple[Effect, ...]
    normalized: bool

    @property
    def dim(self) -> int:
        return self.effects[0].dim

    def __len__(self) -> int:
        return len(self.outcomes)

    def index(self, outcome: Outcome) -> int:
        try:
            return self.outcomes.index(outcome)
        except ValueError:
            raise UnknownOutcomeError(f"unknown outcome {outcome!r}") from None

    def effect(self, outcome: Outcome) -> Effect:
        return self.effects[self.index(outcome)]


def build_pom(
    effects: Sequence[np.ndarray | Effect],
    require_normalized: bool,
    outcomes: Sequence[Outcome] | None = None,
    tol: float = TOL_PSD,
) -> Pom:
    """Validate a list of operators as a POM.

    Checks each entry is a valid effect and that the total sum stays below
    the identity (within tol).  With ``require_normalized`` the sum must
    equal the identity within TOL_EIG.  The ``normalized`` flag on the
    result records whether the sum is the identity, independently of
    whether that was required.
    """
    if len(effects) == 0:
        raise OpmeasError("a POM needs at least one outcome")
    validated: list[Effect] = []
    for i, raw in enumerate(effects):
        m = raw.op if isinstance(raw, Effect) else raw
        try:
            validated.append(validate_effect(m, tol))
        except OpmeasError as exc:
            raise InvalidEffectError(i, exc) from exc
    dim = validated[0].dim
    for i, e in enumerate(validated):
        if e.dim != dim:
            raise InvalidEffectError(i, OpmeasError(f"dim {e.dim} != {dim}"))
    total = np.zeros((dim, dim), dtype=complex)
    for e in validated:
        total = total + e.op
    slack = eig_hermitian(np.eye(dim, dtype=complex) - linalg.hermitize(total)).eigenvalues
    if slack[0] < -tol:
        raise SumExceedsIdentityError(f"effect sum exceeds identity by {-slack[0]:.3e}")
    deficit = op_norm(total - np.eye(dim, dtype=complex))
    is_normalized = deficit <= TOL_EIG
    if require_normalized and not is_normalized:
        raise NotNormalizedError(f"effect sum differs from identity by {deficit:.3e}")
    labels = tuple(range(len(validated))) if outcomes is None else tuple(outcomes)
    if len(labels) != len(validated):
        raise OpmeasError("outcome labels and effects differ in length")
    if len(set(labels)) != len(labels):
        raise OpmeasError("outcome labels must be distinct")
    return Pom(outcomes=labels, effects=tuple(validated), normalized=is_normalized)


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
    for label, eff in zip(pom.outcomes, pom.effects):
        if label in wanted:
            total = total + eff.op
    return Effect(op=total)


def is_sharp_pom(pom: Pom, tol: float = TOL_ONE) -> bool:
    """True iff every single-outcome effect is a projection (up to tol)."""
    return all(is_sharp(e, tol) for e in pom.effects)


class CommutativityReport(NamedTuple):
    commutative: bool
    max_commutator: float
    worst_pair: tuple | None


# Relative slack on a Frobenius bound before it may prune a pair.  The bound and
# the exact norm are taken of the same commutator, so they round apart by about
# d * 2**-52 relative, which this margin covers with room to spare.
_BOUND_MARGIN = 1e-8
# Complex entries in each of the bound pass's two product buffers (1 MiB each).
_BLOCK_ENTRIES = 1 << 16
# Squares of entries below 2**-511 underflow, so a smaller sum of squares may
# have lost part of itself and bounds nothing.
_TRUSTED_SQUARES = 2.0**-900


def _commutator_bounds(stack: np.ndarray) -> np.ndarray:
    """Frobenius norms of [E_i, E_j] for i < j, in outcome (row-major) order.

    Besides the bounds, the pass holds two product buffers of at most
    ``_BLOCK_ENTRIES`` entries, whatever the number of outcomes.  A nonzero
    commutator whose sum of squares is below ``_TRUSTED_SQUARES`` gets an
    infinite bound, so a zero bound means an exactly zero commutator.
    """
    k, d, _ = stack.shape
    block = max(1, _BLOCK_ENTRIES // (d * d))
    ab = np.empty((min(block, k), d, d), dtype=complex)
    ba = np.empty_like(ab)
    bounds = np.empty(k * (k - 1) // 2)
    start = 0
    for i in range(k - 1):
        for j in range(i + 1, k, block):
            rest = stack[j : j + block]
            m = len(rest)
            np.matmul(stack[i], rest, out=ab[:m])
            np.matmul(rest, stack[i], out=ba[:m])
            c = np.subtract(ab[:m], ba[:m], out=ab[:m]).reshape(m, -1)
            parts = c.view(np.float64)
            squares = np.einsum("ij,ij->i", parts, parts)
            squares[(squares < _TRUSTED_SQUARES) & c.any(axis=1)] = np.inf
            bounds[start : start + m] = np.sqrt(squares)
            start += m
    return bounds


def is_commutative(pom: Pom, tol: float = TOL_ONE) -> CommutativityReport:
    """Scan all outcome pairs for the largest commutator norm.

    Since ``||C||_2 <= ||C||_F``, a pair's Frobenius norm bounds its exact
    operator norm.  The bounds come from stacked products over a
    ``(K, d, d)`` copy of the effects; the exact ``commutator_norm`` then
    runs on pairs in order of descending bound and stops at the first bound
    that is zero or that, inflated by ``_BOUND_MARGIN`` (1e-8 relative) for
    rounding, is below the running maximum.  Every exact norm is the value
    a plain loop over all pairs would compute, so the maximum is that
    loop's, bit for bit.  Ties go to the first pair in outcome order, as in
    the loop.  Memory beyond the POM: the copy of the effects and two
    1 MiB product buffers while bounding, then 32 bytes per pair for the
    bounds, their order and the pair indices.
    """
    k = len(pom)
    bounds = _commutator_bounds(np.stack([e.op for e in pom.effects]))
    rows, cols = np.triu_indices(k, 1)
    worst = 0.0
    worst_at = -1
    for p in np.argsort(bounds)[::-1]:
        if bounds[p] == 0.0 or bounds[p] * (1 + _BOUND_MARGIN) < worst:
            break
        c = commutator_norm(pom.effects[rows[p]].op, pom.effects[cols[p]].op)
        if c > worst or (c == worst and p < worst_at):
            worst, worst_at = c, p
    worst_pair = None
    if worst_at >= 0:
        worst_pair = (pom.outcomes[rows[worst_at]], pom.outcomes[cols[worst_at]])
    commutative = worst <= tol
    return CommutativityReport(
        commutative=commutative,
        max_commutator=worst,
        worst_pair=None if commutative else worst_pair,
    )


def coarse_grain(pom: Pom, partition: Sequence[Iterable[Outcome]]) -> Pom:
    """Merge outcomes along a partition of the outcome set.

    The partition cells must be disjoint and cover every outcome.  The new
    POM has one outcome per cell, labelled by cell index, and inherits the
    normalization flag (the total operator is unchanged).
    """
    cells = [set(cell) for cell in partition]
    seen: set = set()
    for cell in cells:
        if seen & cell:
            raise OpmeasError("partition cells overlap")
        seen |= cell
    if seen != set(pom.outcomes):
        raise OpmeasError("partition does not cover the outcome set")
    merged = [effect_of(pom, cell) for cell in cells]
    return Pom(
        outcomes=tuple(range(len(cells))),
        effects=tuple(merged),
        normalized=pom.normalized,
    )
