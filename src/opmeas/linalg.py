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

Operator families are ``(K, d, d)`` stacks.  ``op_norms`` is the one exact-norm
kernel: one stacked SVD for a whole stack (``op_norm`` is its one-matrix
call).  ``frobenius_norms`` bounds the operator norm of every matrix of a
stack at once, and ``pair_bounds`` does so for the products of every pair of
a family.  For the commutators of a family that is rank one up to rounding,
``rank_one_bounds`` gives tighter bounds from one K x K Gram matrix of top
eigenvectors: the closed form of a rank-one commutator, plus the measured
residuals and an absolute rounding slack.  It returns None, so that the
caller falls back to ``pair_bounds``, when a residual is not tiny or when
the family commutes up to rounding.  ``largest_norm`` then finds the largest
exact norm in two tiers: it walks the bounds in descending order in chunks,
screens each chunk's survivors with the tighter Schatten-8 bound
(``schatten8_norms``), and takes the exact norms of what is left with one
``op_norms`` call per chunk.  A chunk holds at most ``BLOCK_ENTRIES``
entries (1 MiB per temporary), whatever the size of the family.
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
# Complex entries per block of a stacked pass, and per chunk of exact norms
# in ``largest_norm`` (1 MiB per temporary).
BLOCK_ENTRIES = 1 << 16
# Absolute rounding slack of ``rank_one_bounds``, in units of d * 2**-52: the
# Gram entries, the squared lengths and the commutator products each round by
# a few d * eps, which this covers with room to spare.
_GRAM_SLACK = 16


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


def schatten8_norms(stack: np.ndarray) -> np.ndarray:
    """Schatten 8-norm ``||(M†M)^2||_F^(1/4)`` of each matrix M of a (K, d, d)
    stack, an upper bound on its operator norm.

    It is never above the Frobenius norm and is much closer to the operator
    norm when few singular values share the top: for a rank-two matrix with
    equal singular values it is 2**(1/8) times the norm, against sqrt(2).
    Where the sum of squares of (M†M)^2 is below ``_TRUSTED_SQUARES``,
    underflow may have eaten part of it; where it is not finite, it has
    overflowed.  Either way the matrix gets its Frobenius bound instead.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gram = dagger(stack) @ stack
        squares = _sum_squares(gram @ gram)
    bounds = squares**0.125
    untrusted = ~((squares >= _TRUSTED_SQUARES) & (squares < np.inf))
    if untrusted.any():
        bounds[untrusted] = frobenius_norms(stack[untrusted])
    return bounds


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


def rank_one_bounds(
    stack: np.ndarray, values: np.ndarray, vectors: np.ndarray
) -> np.ndarray | None:
    """Upper bounds on ``||[E_a, E_b]||_2`` over a < b, in row-major order as
    ``pair_bounds`` gives them, for a (K, d, d) stack whose matrices are rank
    one up to rounding; None when they are not, or when the bounds would be
    no use.

    ``values[a]`` and ``vectors[a]`` are an eigenpair (λ_a, v_a) of E_a, the
    top one of its Hermitian part.  With the residual
    ``r_a = ||E_a - λ_a v_a v_a†||_F`` and the Gram entry ``g_ab = <v_a|v_b>``,
    ``E_a = λ_a v_a v_a† + R_a`` gives, since the rank-one commutator has
    norm ``|g| sqrt(|v_a|²|v_b|² - |g|²)``,

        ||[E_a, E_b]|| <= |λ_a λ_b g_ab| s_ab + 2(|λ_a| r_b + |λ_b| r_a + r_a r_b)
                          + u ||E_a||_F ||E_b||_F,
        s_ab = sqrt(max(0, |v_a|²|v_b|² - |g_ab|²) + u),  u = _GRAM_SLACK d eps.

    The u inside s_ab covers the rounding of the difference, which cancels as
    |g| tends to 1 (a duplicated effect); the last term covers the rounding
    of the commutator that the exact tier forms.  The residual is measured
    against E_a itself, so it also covers a skew part and any eigensolver
    error; the middle term takes ||v_a v_a†|| as 1, which holds for unit
    vectors up to a relative rounding that ``BOUND_MARGIN`` covers.  The
    bounds take one K x K Gram matrix and O(K d²) residual work instead of
    ``pair_bounds``' O(K² d³) products.

    None when a residual exceeds u ||E_a||_F (the matrices are not rank one),
    when a bound is not finite (norms that under- or overflow), or when every
    closed form ``|λ_a λ_b g_ab| sqrt(max(0, ...))`` is within the rest of
    its bound.  That last family commutes up to rounding, such as rank-one
    projections onto basis vectors, and ``pair_bounds`` serves it better: its
    bounds are exact zeros, where these would send every pair to an exact
    norm.
    """
    k, d, _ = stack.shape
    unit = _GRAM_SLACK * d * np.finfo(float).eps
    fro = frobenius_norms(stack)
    residuals = np.empty(k)
    step = max(1, BLOCK_ENTRIES // (d * d))
    for start in range(0, k, step):
        block = slice(start, start + step)
        v = vectors[block]
        tops = v[:, :, np.newaxis] * v[:, np.newaxis].conj()
        tops *= values[block, np.newaxis, np.newaxis]
        residuals[block] = frobenius_norms(stack[block] - tops)
    if not np.all(residuals <= unit * fro):
        return None
    rows, cols = np.triu_indices(k, 1)
    # einsum, not a matrix product: a (K, d) x (d, K) product is large enough
    # for a threaded BLAS, whose idle threads then spin through the rest of
    # the scan and double its CPU time
    gram = np.abs(np.einsum("ad,bd->ab", vectors.conj(), vectors))[rows, cols]
    lengths = _sum_squares(vectors)
    weights = np.abs(values)
    with np.errstate(over="ignore", invalid="ignore"):  # a bound that is not finite means None
        closed = weights[rows] * weights[cols] * gram
        perp = np.maximum(0.0, lengths[rows] * lengths[cols] - gram * gram)
        bounds = closed * np.sqrt(perp + unit)
        closed *= np.sqrt(perp)
        bounds += 2 * (weights[rows] * residuals[cols] + weights[cols] * residuals[rows])
        bounds += 2 * residuals[rows] * residuals[cols] + unit * fro[rows] * fro[cols]
    if not np.all(np.isfinite(bounds)) or np.all(2 * closed <= bounds):
        return None
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
    ``BOUND_MARGIN`` for rounding, is below the running maximum.  The matrices
    of the indices before it are screened with their Schatten-8 bound (same
    test), and the survivors' exact norms come from one ``op_norms`` call.
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
            keep = ~(schatten8_norms(stack) * (1 + BOUND_MARGIN) < worst)
            if keep.any():
                for p, value in zip(ps[keep], op_norms(stack[keep])):
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
