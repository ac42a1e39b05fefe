"""Dense complex matrix arithmetic and Hermitian spectral analysis.

Everything downstream (effects, observables, instruments, lattice models)
is built on plain ``numpy`` complex arrays.  Operators are small (a few
hundred dimensions at most), so all routines use dense algebra.

Validation happens once, at the boundary: ``as_matrix`` and ``is_hermitian``
here, called by the validators, the wrapper-type constructors and the JSON
loaders.  The kernels (``op_norms``, ``op_norm``, ``commutator``,
``commutator_norm``, ``eig_hermitian``, ``psd_sqrt``) trust their square
complex operands, and a public entry point taking two operands checks that
their dimensions agree.

Operator families are ``(K, d, d)`` stacks.  ``dagger``, ``hermitize``,
``eig_hermitian``, ``spectral_map`` and ``psd_sqrt`` take one matrix or a
stack, and give each matrix of a stack the one-matrix call's result, bit for
bit.  ``spectral_map`` is the one coding of V f(Λ) V†: square roots,
spectral projections, propagators and the generators' diagonal operators
all go through it.  ``op_norms`` is the one exact-norm kernel: one stacked
SVD for a whole stack (``op_norm`` is its one-matrix call).
``frobenius_norms`` bounds the operator norm of every matrix of a stack at
once, and ``pair_bounds`` does so for the products of every pair of a
family.  ``largest_norm`` then finds the largest exact norm: it walks the
bounds in descending order in chunks and takes the exact norms of each
chunk's survivors with one ``op_norms`` call.  A chunk holds at most
``BLOCK_ENTRIES`` entries (1 MiB per temporary), whatever the size of the
family.
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

# Relative slack on a Frobenius bound before it may prune.  A bound and the
# exact norm of the same matrix round apart by about d * 2**-52 relative, which
# this margin covers with room to spare.
BOUND_MARGIN = 1e-8
# Squares of entries below 2**-511 underflow, so a smaller sum of squares may
# have lost part of itself and bounds nothing.
_TRUSTED_SQUARES = 2.0**-900
# Complex entries per block of a stacked pass, and per chunk of exact norms
# in ``largest_norm`` (1 MiB per temporary).
BLOCK_ENTRIES = 1 << 16
# Largest operator dimension accepted from outside the program: lattice sites
# and ensemble dimensions.  One dense complex matrix of it takes 256 MiB and
# the commands hold stacks of them; far larger sizes fail inside numpy, as an
# unaddressable shape or a MemoryError, instead of as an input error.
MAX_DIM = 1 << 12


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
    """Adjoint of a matrix, or of each matrix of a stack."""
    return m.swapaxes(-1, -2).conj()


def hermitize(m: np.ndarray) -> np.ndarray:
    """Hermitian part (m + m†)/2, of a matrix or of each matrix of a stack;
    used to scrub rounding skew after products."""
    return (m + dagger(m)) / 2


def sum_in_order(stack: np.ndarray, axis: int) -> np.ndarray:
    """Sum of a complex array along an axis other than the last, term after
    term in index order, whatever the shape.  It sums the real and imaginary
    parts as floats, whose last axis numpy walks innermost; a complex sum
    walks a (K, 1, 1) stack's K axis innermost and sums it pairwise instead."""
    return np.ascontiguousarray(stack).view(np.float64).sum(axis=axis).view(complex)


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
    """Spectral decomposition of a Hermitian matrix, or of each of a stack.

    ``eigenvalues`` are real and ascending along the last axis; the columns
    of ``eigenvectors`` are the matching orthonormal eigenvectors, with
    whatever global phases LAPACK gives them: V f(Λ) V† and |v⟩⟨v| do not
    depend on them.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eig_hermitian(m: np.ndarray) -> HermitianEigen:
    """Eigendecomposition of a Hermitian matrix, or of each of a stack.

    The operand is trusted to be Hermitian; its Hermitian part is what gets
    decomposed, so rounding skew from products is harmless.
    """
    evals, vecs = np.linalg.eigh(hermitize(m))
    evals.setflags(write=False)
    vecs.setflags(write=False)
    return HermitianEigen(eigenvalues=evals, eigenvectors=vecs)


def psd_sqrt(m: np.ndarray, tol: float = TOL_PSD) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix, or of each of a stack.

    Eigenvalues in [-tol, 0) are clamped to zero; anything below -tol is a
    genuine negativity and raises SpectrumOutOfRangeError (for a stack, as a
    loop would: for the first matrix that has one).
    """
    eig = eig_hermitian(m)
    lowest = eig.eigenvalues[..., 0].reshape(-1)
    low = lowest[(lowest < -tol).argmax()]  # the first below -tol, if any
    if low < -tol:
        raise SpectrumOutOfRangeError(low, f"matrix is not PSD: eigenvalue {low}")
    return hermitize(spectral_map(eig.eigenvectors, np.sqrt(np.clip(eig.eigenvalues, 0.0, None))))


def spectral_map(v: np.ndarray, f: np.ndarray) -> np.ndarray:
    """V diag(f) V† of a (d, k) matrix V and k values f, or of each of a
    stack, formed as (V f) V†; for real f, bit for bit ``V @ diag(f) @ V†``.
    A boolean f selects columns, which gives a projection for orthonormal V.
    """
    return (v * f[..., np.newaxis, :]) @ dagger(v)


def op_norms(stack: np.ndarray) -> np.ndarray:
    """Operator (spectral) norm of each matrix of a (K, d, d) stack: its
    largest singular value, from one stacked SVD."""
    return np.linalg.svd(stack, compute_uv=False)[:, 0]


def op_norm(m: np.ndarray) -> float:
    """Operator (spectral) norm: the largest singular value."""
    return float(op_norms(m[np.newaxis])[0])


def _sum_squares(stack: np.ndarray) -> np.ndarray:
    """Sum of the squared moduli of the entries of each matrix of a (K, d, d)
    stack, or of each vector of a (K, d) stack."""
    parts = np.ascontiguousarray(stack, dtype=complex).reshape(len(stack), -1).view(np.float64)
    return np.einsum("ij,ij->i", parts, parts)


def frobenius_norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a (K, d, d) stack, an upper bound on its operator norm.

    A nonzero matrix whose sum of squares is below ``_TRUSTED_SQUARES`` gets an
    infinite bound, so a zero bound means an exactly zero matrix.
    """
    squares = _sum_squares(stack)
    squares[(squares < _TRUSTED_SQUARES) & stack.reshape(len(stack), -1).any(axis=1)] = np.inf
    return np.sqrt(squares)


def pair_bounds(
    left: np.ndarray,
    right: np.ndarray,
    product: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray],
) -> np.ndarray:
    """Frobenius norms of product(left[x], right[y]) over x < y, in row-major order.

    ``left`` may be shorter than ``right``: the pairs are then those of its
    rows x in range(len(left)), the first rows of the full pair order.
    ``product(a, block, out, tmp)`` writes the products of the matrix a with
    every matrix of the stack block into out and returns it; tmp is scratch
    of out's shape.  Both are slices of two buffers of at most
    ``BLOCK_ENTRIES`` entries, reused for every block, so the pass holds
    2 MiB besides the bounds whatever the size of the family.  A row whose
    left[x] is zero takes no product: its bounds are set to zero, which
    assumes that product is zero when a is.
    """
    r, (k, d, _) = len(left), right.shape
    step = max(1, BLOCK_ENTRIES // (d * d))
    out = np.empty((min(step, k), d, d), dtype=complex)
    tmp = np.empty_like(out)
    # empty, not zeros: with glibc, a calloc'ed vector here left the heap laid
    # out so that the family-sweep benchmark peaked 11 MiB higher
    bounds = np.empty(r * (2 * k - r - 1) // 2)
    start = 0
    for x in range(min(r, k - 1)):
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


def largest_norm(
    bounds: np.ndarray, matrices: Callable[[np.ndarray], np.ndarray]
) -> tuple[float, int]:
    """Largest operator norm of the matrices of a family, where ``bounds[p]``
    is an upper bound on the norm of matrix p and ``matrices(ps)`` returns
    the ``(len(ps), d, d)`` stack of the matrices at an index array.

    The indices are walked in order of descending bound, in chunks that start
    at one index and double up to ``BLOCK_ENTRIES // d**2`` matrices.  A chunk
    stops the walk at the first bound that is zero or that, inflated by
    ``BOUND_MARGIN`` for rounding, is below the running maximum.  The exact
    norms of the matrices of the indices before it come from one
    ``op_norms`` call.
    Only matrices whose norm is below the final maximum are skipped, so the
    maximum is the one a plain loop over every index would find, bit for bit.
    Returns it with the first index that attains it (ties go to the first
    index, as with the loop's strict ``>``), or ``(0.0, -1)`` when every
    value is zero.
    """
    worst, worst_at = 0.0, -1
    order = np.argsort(bounds)[::-1]
    start, size, cap = 0, 1, 1
    while start < len(order):
        ps = order[start : start + size]
        start += size
        top = bounds[ps]
        cut = np.flatnonzero((top == 0.0) | (top * (1 + BOUND_MARGIN) < worst))
        if len(cut):
            ps, start = ps[: cut[0]], len(order)
        if len(ps):
            stack = matrices(ps)
            cap = max(1, BLOCK_ENTRIES // stack[0].size)
            for p, value in zip(ps, op_norms(stack)):
                if value > worst or (value == worst and p < worst_at):
                    worst, worst_at = float(value), int(p)
        size = min(2 * size, cap)
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
