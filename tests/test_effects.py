"""Effect calculus: validation, spectral projections, sharpness, annihilation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opmeas.effects import (
    annihilation_equivalence,
    is_sharp,
    is_strongly_unsharp,
    range_projection,
    spectral_projection,
    validate_effect,
)
from opmeas.errors import NotHermitianError, OpmeasError, SpectrumOutOfRangeError
from opmeas.linalg import hermitize, op_norm


def diag(*entries) -> np.ndarray:
    return np.diag(np.asarray(entries, dtype=complex))


def test_validate_accepts_and_stores_unmodified():
    m = diag(1.0, 0.25)
    e = validate_effect(m)
    assert np.array_equal(e.op, m)


def test_validate_rejects_nonhermitian():
    with pytest.raises(NotHermitianError):
        validate_effect(np.array([[0.5, 0.3], [0.0, 0.5]]))


def test_validate_rejects_empty_matrix():
    with pytest.raises(OpmeasError):
        validate_effect(np.zeros((0, 0)))


def test_validate_rejects_out_of_range_spectrum():
    with pytest.raises(SpectrumOutOfRangeError) as exc:
        validate_effect(diag(1.5, 0.0))
    assert exc.value.eigenvalue == pytest.approx(1.5)
    with pytest.raises(SpectrumOutOfRangeError):
        validate_effect(diag(-0.2, 0.5))


def test_validate_tolerates_eigenvalues_within_tol():
    validate_effect(diag(1.0 + 1e-10, 0.0))
    validate_effect(diag(1.0, -1e-10))


def test_sharpness_invariant_under_complement():
    def complement(e):
        return validate_effect(np.eye(e.dim) - e.op)

    assert is_sharp(complement(validate_effect(diag(1.0, 0.0))))
    e = validate_effect(diag(0.5, 0.5))
    assert is_sharp(e) == is_sharp(complement(e))


def test_endpoint_projections_are_orthogonal_and_below_range():
    e = validate_effect(diag(1.0, 0.5, 0.0, 1.0))
    p1 = spectral_projection(e, "one")
    p0 = spectral_projection(e, "zero")
    pr = range_projection(e)
    assert op_norm(p1.op @ p0.op) == 0.0
    assert op_norm(p1.op @ (np.eye(4) - pr.op)) < 1e-12  # P1 <= range


def test_sharp_effect_equals_its_unit_eigenspace_projection():
    v = np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2)
    e = validate_effect(np.outer(v, v.conj()))
    p1 = spectral_projection(e, "one")
    assert op_norm(p1.op - e.op) < 1e-10


def test_spectral_projections_split_eigenspaces():
    e = validate_effect(diag(1.0, 0.5, 0.0))
    p1 = spectral_projection(e, "one")
    p0 = spectral_projection(e, "zero")
    assert p1.rank == 1 and p0.rank == 1
    assert np.allclose(p1.op, diag(1, 0, 0))
    assert np.allclose(p0.op, diag(0, 0, 1))


def test_spectral_projection_clusters_near_one():
    e = validate_effect(diag(1.0 - 1e-9, 0.5))
    assert spectral_projection(e, "one").rank == 1
    e2 = validate_effect(diag(1.0 - 1e-6, 0.5))
    assert spectral_projection(e2, "one").rank == 0


def test_spectral_projection_empty_eigenspace_is_zero_matrix():
    e = validate_effect(diag(0.5, 0.5))
    p1 = spectral_projection(e, "one")
    assert p1.rank == 0
    assert np.array_equal(p1.op, np.zeros((2, 2), dtype=complex))


def test_range_projection_complements_kernel_projection():
    rng = np.random.default_rng(2)
    g = rng.standard_normal((4, 2))
    m = hermitize(g @ g.T)  # rank 2 PSD
    e = validate_effect(0.5 * m / np.linalg.eigvalsh(m).max())
    pr = range_projection(e)
    p0 = spectral_projection(e, "zero")
    assert pr.rank == 2
    assert op_norm(pr.op + p0.op - np.eye(4)) < 1e-10


def test_is_sharp_on_projections_and_not_on_blurred():
    assert is_sharp(validate_effect(diag(1.0, 0.0, 1.0)))
    assert not is_sharp(validate_effect(diag(0.5, 0.5)))
    # non-diagonal projection
    v = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    assert is_sharp(validate_effect(np.outer(v, v.conj())))


def test_strongly_unsharp_means_no_unit_eigenvalue():
    assert is_strongly_unsharp(validate_effect(diag(0.9, 0.2)))
    assert not is_strongly_unsharp(validate_effect(diag(1.0, 0.2)))
    # sharp effects are never strongly unsharp (except 0)
    assert not is_strongly_unsharp(validate_effect(diag(1.0, 0.0)))


def test_annihilation_equivalence_orthogonal_supports():
    e1 = validate_effect(diag(0.8, 0.0, 0.0))
    e2 = validate_effect(diag(0.0, 0.3, 0.9))
    rep = annihilation_equivalence(e1, e2)
    assert rep.prod_zero and rep.ranges_orthogonal


def test_annihilation_equivalence_overlapping_supports():
    e1 = validate_effect(diag(0.8, 0.5, 0.0))
    e2 = validate_effect(diag(0.0, 0.3, 0.9))
    rep = annihilation_equivalence(e1, e2)
    assert not rep.prod_zero and not rep.ranges_orthogonal


@given(st.integers(0, 10_000), st.integers(2, 6))
@settings(max_examples=50, deadline=None)
def test_annihilation_booleans_always_agree(seed, dim):
    # product-vanishing reduces to orthogonality of the range projections
    rng = np.random.default_rng(seed)
    if rng.uniform() < 0.5 and dim >= 2:
        u, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        k = int(rng.integers(1, dim))
        a = u[:, :k] @ np.diag(rng.uniform(0.1, 1, k).astype(complex)) @ u[:, :k].conj().T
        b = u[:, k:] @ np.diag(rng.uniform(0.1, 1, dim - k).astype(complex)) @ u[:, k:].conj().T
        e1, e2 = validate_effect(hermitize(a)), validate_effect(hermitize(b))
    else:
        eye = np.eye(dim, dtype=complex)

        def draw():
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            m = hermitize(g.conj().T @ g)
            return validate_effect(hermitize(0.05 * eye + 0.9 * m / np.linalg.eigvalsh(m).max()))

        e1, e2 = draw(), draw()
    rep = annihilation_equivalence(e1, e2)
    assert rep.prod_zero == rep.ranges_orthogonal


@given(st.integers(0, 10_000), st.integers(1, 6))
@settings(max_examples=50, deadline=None)
def test_sharpness_iff_idempotent(seed, dim):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = hermitize(g.conj().T @ g)
    e = validate_effect(m / np.linalg.eigvalsh(m).max() * rng.uniform(0.3, 1.0))
    assert is_sharp(e) == (op_norm(e.op @ e.op - e.op) <= 1e-8)
