"""Dense complex matrix arithmetic and Hermitian spectral analysis.

Everything downstream (effects, observables, instruments, lattice models)
is built on plain ``numpy`` complex arrays.  Operators are small (a few
hundred dimensions at most), so all routines use dense algebra.

Validation happens once, at the boundary: ``as_matrix`` and ``is_hermitian``
here, called by the validators, the wrapper-type constructors and the JSON
loaders.  The kernels (``op_norm``, ``commutator``, ``commutator_norm``,
``eig_hermitian``, ``psd_sqrt``) trust their square complex operands, and a
public entry point taking two operands checks that their dimensions agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, OpmeasError, SpectrumOutOfRangeError

# Project-wide tolerances.  Public predicates accept an override.
TOL_EIG = 1e-10
TOL_HERM = 1e-10
TOL_PSD = 1e-9

# Threshold below which an eigenvector component is treated as zero when
# fixing the overall phase.
_PHASE_EPS = 1e-12


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
    return m.conj().T


def hermitize(m: np.ndarray) -> np.ndarray:
    """Hermitian part (m + m†)/2; used to scrub rounding skew after products."""
    return (m + m.conj().T) / 2


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

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


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


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def commutator_norm(a: np.ndarray, b: np.ndarray) -> float:
    """Operator norm of the commutator ab - ba."""
    return op_norm(commutator(a, b))


def outer(v: np.ndarray) -> np.ndarray:
    """Rank-one projector |v><v| for a vector v (not normalized here)."""
    w = np.asarray(v, dtype=complex).reshape(-1)
    return np.outer(w, w.conj())
