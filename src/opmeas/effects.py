"""Effects (operators with spectrum in [0, 1]) and their spectral structure.

An effect represents a yes/no measurement outcome.  Besides validation,
this module exposes the spectral projections onto the
eigenvalue-1 and eigenvalue-0 subspaces, the sharpness test E(I-E) = 0,
and the range-projection reduction that turns statements about products of
effects into statements about products of projections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, NamedTuple

import numpy as np

from . import linalg
from .errors import NotHermitianError, SpectrumOutOfRangeError
from .linalg import TOL_HERM, TOL_PSD, HermitianEigen, as_matrix, eig_hermitian, op_norm

# Clustering tolerance for "eigenvalue equal to 1" / "equal to 0".  Looser
# than TOL_EIG on purpose: the physically meaningful question is proximity
# to the spectral endpoints, not floating-point identity.
TOL_ONE = 1e-8


@dataclass(frozen=True)
class Effect:
    """Hermitian operator with spectrum in [0, 1], stored unmodified."""

    op: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "op", _frozen(self.op))

    @property
    def dim(self) -> int:
        return self.op.shape[0]


@dataclass(frozen=True)
class Projection:
    """Hermitian idempotent (P = P† = P²)."""

    op: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "op", _frozen(self.op))

    @property
    def dim(self) -> int:
        return self.op.shape[0]

    @property
    def rank(self) -> int:
        return int(round(float(np.trace(self.op).real)))


def _frozen(m) -> np.ndarray:
    a = np.array(as_matrix(m))
    a.setflags(write=False)
    return a


def validate_effect(m, tol: float = TOL_PSD) -> Effect:
    """Check Hermiticity and spectrum containment in [-tol, 1 + tol].

    The original matrix is stored as-is; clamping is a validation predicate,
    never a mutation, so serialisation round-trips are exact.
    """
    a = as_matrix(m)
    if not linalg.is_hermitian(a, TOL_HERM):
        raise NotHermitianError("effect candidate is not Hermitian")
    evals = eig_hermitian(a).eigenvalues
    if evals[0] < -tol:
        raise SpectrumOutOfRangeError(evals[0])
    if evals[-1] > 1 + tol:
        raise SpectrumOutOfRangeError(evals[-1])
    return Effect(op=a)


def spectral_projection(e: Effect, which: Literal["one", "zero"], tol: float = TOL_ONE) -> Projection:
    """Orthogonal projection onto the near-1 or near-0 eigenspace of E.

    Returns the zero matrix when no eigenvalue lies within tol of the
    requested endpoint; an empty eigenspace is a value, not an error.
    """
    if which not in ("one", "zero"):
        raise ValueError("which must be 'one' or 'zero'")
    return endpoint_projection(eig_hermitian(e.op), which, tol)


def endpoint_projection(
    eig: HermitianEigen, which: Literal["one", "zero"], tol: float = TOL_ONE
) -> Projection:
    """``spectral_projection`` of an effect from its eigendecomposition, so
    one decomposition serves both endpoints."""
    target = 1.0 if which == "one" else 0.0
    return _span(eig, np.abs(eig.eigenvalues - target) <= tol)


def range_projection(e: Effect, tol: float = TOL_ONE) -> Projection:
    """Projection onto the closure of the range: span of eigenvectors with
    eigenvalue above tol.  Coincides with I minus the eigenvalue-0 projection."""
    eig = eig_hermitian(e.op)
    return _span(eig, eig.eigenvalues > tol)


def _span(eig: HermitianEigen, mask: np.ndarray) -> Projection:
    """Projection onto the eigenvectors that mask selects; zero when it selects none."""
    if not mask.any():
        d = len(mask)
        return Projection(op=np.zeros((d, d), dtype=complex))
    v = eig.eigenvectors[:, mask]
    return Projection(op=linalg.hermitize(v @ v.conj().T))


def is_sharp(e: Effect, tol: float = TOL_ONE) -> bool:
    """True iff E and its complement annihilate: ||E(I-E)|| <= tol.

    Equivalent to ||E² - E|| <= tol, i.e. E is a projection up to tol.
    """
    eye = np.eye(e.dim, dtype=complex)
    return op_norm(e.op @ (eye - e.op)) <= tol


def is_strongly_unsharp(e: Effect, tol: float = TOL_ONE) -> bool:
    """True iff E has no eigenvalue within tol of 1."""
    p1 = spectral_projection(e, "one", tol)
    return p1.rank == 0


class AnnihilationReport(NamedTuple):
    prod_zero: bool
    ranges_orthogonal: bool


def annihilation_equivalence(e1: Effect, e2: Effect, tol: float = TOL_ONE) -> AnnihilationReport:
    """Decide E1 E2 = 0 both directly and via range projections.

    The two answers agree for effects whose spectra stay clear of the
    clustering tolerance: E1 E2 = 0 holds exactly when the projections onto
    the ranges of E1 and E2 are orthogonal.
    """
    linalg.require_same_dim(e1.op, e2.op)
    prod_zero = op_norm(e1.op @ e2.op) <= tol
    p1 = range_projection(e1, tol)
    p2 = range_projection(e2, tol)
    ranges_orthogonal = op_norm(p1.op @ p2.op) <= tol
    return AnnihilationReport(prod_zero=prod_zero, ranges_orthogonal=ranges_orthogonal)
