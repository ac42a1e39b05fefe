"""Dense complex matrix arithmetic and Hermitian spectral analysis.

Everything downstream (effects, observables, instruments, lattice models)
is built on plain ``numpy`` complex arrays.  Operators are small (a few
hundred dimensions at most), so all routines use dense algebra.

Validation happens once, at the boundary: ``as_matrix`` and ``is_hermitian``
here, called by the validators, the wrapper-type constructors and the JSON
loaders.  The kernels (``op_norm``, ``commutator``, ``commutator_norm``,
``eig_hermitian``, ``psd_sqrt``) trust their square complex operands, and a
public entry point taking two operands checks that their dimensions agree.

Operator families are ``(K, d, d)`` stacks.  ``frobenius_norms`` bounds the
operator norm of every matrix of a stack at once, ``pair_bounds`` does so for
the products of every pair of a family, and ``largest_norm`` then takes exact
norms only where a matrix could still be the largest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError, OpmeasError, SpectrumOutOfRangeError

# Project-wide tolerances.  Public predicates accept an override.
TOL_EIG = 1e-10
TOL_HERM = 1e-10
TOL_PSD = 1e-9

# Threshold below which an eigenvector component is treated as zero when
# fixing the overall phase.
_PHASE_EPS = 1e-12

# Relative slack on a Frobenius bound before it may prune.  A bound and the
# exact norm of the same matrix round apart by about d * 2**-52 relative, which
# this margin covers with room to spare.
BOUND_MARGIN = 1e-8
# Squares of entries below 2**-511 underflow, so a smaller sum of squares may
# have lost part of itself and bounds nothing.
_TRUSTED_SQUARES = 2.0**-900
# Complex entries per block of a stacked pass (1 MiB per temporary).
BLOCK_ENTRIES = 1 << 16


def as_matrix(m) -> np.ndarray:
    """Coerce input to a square complex matrix; reject empty, non-square or non-finite."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise OpmeasError("expected a nonempty matrix, got shape (0, 0)")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise OpmeasError("matrix entries must be finite")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    """Adjoint of a matrix, or of every matrix of a (K, d, d) stack."""
    return np.swapaxes(m, -1, -2).conj()


def hermitize(m: np.ndarray) -> np.ndarray:
    """Hermitian part (m + m†)/2, of a matrix or of each matrix of a stack;
    used to scrub rounding skew after products."""
    return (m + dagger(m)) / 2


def require_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimensionMismatchError(f"dimension mismatch: {a.shape} vs {b.shape}")


def is_hermitian(m: np.ndarray, tol: float = TOL_HERM) -> bool:
    """True iff the operator-norm distance between m and its adjoint is <= tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    return op_norm(m - m.conj().T) <= tol


@dataclass(frozen=True)
class HermitianEigen:
    """Spectral decomposition of a Hermitian matrix.

    ``eigenvalues`` are real and ascending; the columns of ``eigenvectors``
    are the matching orthonormal eigenvectors, each with a fixed global
    phase (first significant component real and positive) so repeated runs
    on identical input give identical output.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eig_hermitian(m: np.ndarray) -> HermitianEigen:
    """Eigendecomposition of a Hermitian matrix with deterministic phases.

    The operand is trusted to be Hermitian; its Hermitian part is what gets
    decomposed, so rounding skew from products is harmless.
    """
    evals, vecs = np.linalg.eigh(hermitize(m))
    vecs = _fix_phases(vecs)
    evals = np.asarray(evals, dtype=float)
    evals.setflags(write=False)
    vecs.setflags(write=False)
    return HermitianEigen(eigenvalues=evals, eigenvectors=vecs)


def _fix_phases(vecs: np.ndarray) -> np.ndarray:
    """Rotate each column so its first significant component is real positive.

    Unit columns always have a component above _PHASE_EPS for argmax to find."""
    out = np.array(vecs, dtype=complex)
    rows = np.argmax(np.abs(out) > _PHASE_EPS, axis=0)
    pivots = out[rows, np.arange(out.shape[1])]
    # hypot, not np.abs: the vectorized complex abs can round the last bit differently
    out *= pivots.conj() / np.hypot(pivots.real, pivots.imag)
    return out


def psd_sqrt(m: np.ndarray, tol: float = TOL_PSD) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    Eigenvalues in [-tol, 0) are clamped to zero; anything below -tol is a
    genuine negativity and raises SpectrumOutOfRangeError.
    """
    eig = eig_hermitian(m)
    evals = eig.eigenvalues
    if evals[0] < -tol:
        raise SpectrumOutOfRangeError(evals[0], f"matrix is not PSD: eigenvalue {evals[0]}")
    clamped = np.clip(evals, 0.0, None)
    v = eig.eigenvectors
    return hermitize((v * np.sqrt(clamped)) @ v.conj().T)


def op_norm(m: np.ndarray) -> float:
    """Operator (spectral) norm: the largest singular value."""
    return float(np.linalg.norm(m, 2))


def frobenius_norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a (K, d, d) stack, an upper bound on its operator norm.

    A nonzero matrix whose sum of squares is below ``_TRUSTED_SQUARES`` gets an
    infinite bound, so a zero bound means an exactly zero matrix.
    """
    flat = np.ascontiguousarray(stack, dtype=complex).reshape(len(stack), -1)
    parts = flat.view(np.float64)
    squares = np.einsum("ij,ij->i", parts, parts)
    squares[(squares < _TRUSTED_SQUARES) & flat.any(axis=1)] = np.inf
    return np.sqrt(squares)


def pair_bounds(
    left: np.ndarray,
    right: np.ndarray,
    product: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray],
) -> np.ndarray:
    """Frobenius norms of product(left[x], right[y]) over x < y, in row-major order.

    ``product(a, block, out, tmp)`` writes the products of the matrix a with
    every matrix of the stack block into out and returns it; tmp is scratch
    of out's shape.  Both are slices of two buffers of at most
    ``BLOCK_ENTRIES`` entries, reused for every block, so the pass holds
    2 MiB besides the bounds whatever the size of the family.  A row whose
    left[x] is zero takes no product: its bounds are set to zero, which
    assumes that product is zero when a is.
    """
    k, d, _ = left.shape
    step = max(1, BLOCK_ENTRIES // (d * d))
    out = np.empty((min(step, k), d, d), dtype=complex)
    tmp = np.empty_like(out)
    # empty, not zeros: with glibc, a calloc'ed vector here left the heap laid
    # out so that the family-sweep benchmark peaked 11 MiB higher
    bounds = np.empty(k * (k - 1) // 2)
    start = 0
    for x in range(k - 1):
        if not left[x].any():
            bounds[start : start + k - x - 1] = 0.0
            start += k - x - 1
            continue
        for y in range(x + 1, k, step):
            block = right[y : y + step]
            m = len(block)
            bounds[start : start + m] = frobenius_norms(product(left[x], block, out[:m], tmp[:m]))
            start += m
    return bounds


def largest_norm(bounds: np.ndarray, exact: Callable[[int], float]) -> tuple[float, int]:
    """Largest ``exact(p)`` over the indices p of ``bounds``, where ``bounds[p]``
    is an upper bound on ``exact(p)``.

    ``exact`` runs in order of descending bound and stops at the first bound
    that is zero or that, inflated by ``BOUND_MARGIN`` for rounding, is below
    the running maximum.  The maximum is therefore the one a plain loop over
    every index would find, bit for bit.  Returns it with the first index that
    attains it (ties go to the first index, as with the loop's strict ``>``),
    or ``(0.0, -1)`` when every value is zero.
    """
    worst, worst_at = 0.0, -1
    for p in np.argsort(bounds)[::-1]:
        if bounds[p] == 0.0 or bounds[p] * (1 + BOUND_MARGIN) < worst:
            break
        value = exact(p)
        if value > worst or (value == worst and p < worst_at):
            worst, worst_at = value, int(p)
    return worst, worst_at


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def commutator_norm(a: np.ndarray, b: np.ndarray) -> float:
    """Operator norm of the commutator ab - ba."""
    return op_norm(commutator(a, b))


def outer(v: np.ndarray) -> np.ndarray:
    """Rank-one projector |v><v| for a vector v (not normalized here)."""
    w = np.asarray(v, dtype=complex).reshape(-1)
    return np.outer(w, w.conj())
