"""Matrix-core tests: eigendecomposition against independent oracles."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_calls
from opmeas import linalg, localization
from opmeas.errors import DimensionMismatchError, OpmeasError, SpectrumOutOfRangeError
from opmeas.linalg import (
    as_matrix,
    commutator_norm,
    dagger,
    eig_hermitian,
    frobenius_norms,
    hermitize,
    is_hermitian,
    largest_norm,
    op_norm,
    op_norms,
    outer,
    pair_bounds,
    psd_sqrt,
    require_same_dim,
    spectral_map,
)
from opmeas.causality import singleton_conditions
from opmeas.localization import (
    check_covariance,
    coherent_state_povm,
    gaussian_fiducial,
    make_model,
    propagator,
    sharp_position_map,
    smeared_position_map,
    three_point_kernel,
)
from opmeas.povm import build_pom, is_commutative


def _rand_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return hermitize(g + g.conj().T)


def test_as_matrix_rejects_nonsquare_and_nonfinite():
    with pytest.raises(OpmeasError):
        as_matrix(np.zeros((2, 3)))
    with pytest.raises(OpmeasError):
        as_matrix(np.array([[np.nan, 0], [0, 1]]))
    with pytest.raises(OpmeasError):
        as_matrix(np.zeros((0, 0)))


def test_require_same_dim():
    with pytest.raises(DimensionMismatchError):
        require_same_dim(np.eye(2), np.eye(3))


def test_is_hermitian():
    assert is_hermitian(np.array([[1.0, 1j], [-1j, 2.0]]))
    assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigenvalues_dim2_closed_form():
    # eigenvalues of [[a, b], [conj(b), c]] are (a+c)/2 +- sqrt(((a-c)/2)^2 + |b|^2)
    rng = np.random.default_rng(7)
    for _ in range(50):
        a, c = rng.standard_normal(2)
        b = complex(*rng.standard_normal(2))
        m = np.array([[a, b], [np.conj(b), c]])
        mid, rad = (a + c) / 2, np.hypot((a - c) / 2, abs(b))
        got = eig_hermitian(m).eigenvalues
        assert np.allclose(got, [mid - rad, mid + rad], atol=1e-12)


def test_eigenvalues_dim3_against_char_poly_roots():
    # np.roots factors the characteristic polynomial via a companion matrix:
    # a fully independent code path from the Hermitian solver.
    rng = np.random.default_rng(11)
    for _ in range(25):
        m = _rand_hermitian(rng, 3)
        tr = np.trace(m).real
        # coefficients of lambda^3 - tr l^2 + c1 l - det
        c1 = ((np.trace(m) ** 2 - np.trace(m @ m)) / 2).real
        det = np.linalg.det(m).real
        roots = np.sort(np.roots([1.0, -tr, c1, -det]).real)
        assert np.allclose(eig_hermitian(m).eigenvalues, roots, atol=1e-8)


@given(st.integers(0, 10_000), st.integers(2, 8))
@settings(max_examples=60, deadline=None)
def test_eigen_reconstruction_and_orthonormality(seed, dim):
    m = _rand_hermitian(np.random.default_rng(seed), dim)
    eig = eig_hermitian(m)
    assert np.all(np.diff(eig.eigenvalues) >= -1e-12)
    v = eig.eigenvectors
    assert np.allclose(v.conj().T @ v, np.eye(dim), atol=1e-12)
    assert op_norm((v * eig.eigenvalues) @ v.conj().T - m) <= 1e-10 * max(1.0, op_norm(m))


def _hermitian_of(kind: str, rng: np.random.Generator, dim: int) -> np.ndarray:
    """A Hermitian matrix of one of the shapes that stress a stacked
    eigendecomposition: generic, diagonal, degenerate, or block-diagonal (the
    leading components of the lower block's eigenvectors are exact zeros)."""
    if kind == "random":
        return _rand_hermitian(rng, dim)
    if kind == "diagonal":
        return np.diag(rng.standard_normal(dim)).astype(complex)
    if kind == "degenerate":
        q, _ = np.linalg.qr(_rand_hermitian(rng, dim))
        return hermitize(q @ np.diag(rng.integers(0, 3, dim).astype(complex)) @ q.conj().T)
    m = np.zeros((dim, dim), dtype=complex)
    k = dim // 2
    m[:k, :k] = np.diag(rng.integers(0, 2, k).astype(complex))
    m[k:, k:] = _rand_hermitian(rng, dim - k)
    return m


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint8), b.view(np.uint8))


_KINDS = st.lists(st.sampled_from(["random", "diagonal", "degenerate", "block"]), min_size=1, max_size=6)


@given(st.integers(0, 2**32 - 1), st.integers(1, 8), _KINDS)
@settings(max_examples=120, deadline=None)
def test_stacked_eig_hermitian_matches_each_matrix_bit_for_bit(seed, dim, kinds):
    rng = np.random.default_rng(seed)
    stack = np.array([_hermitian_of(kind, rng, dim) for kind in kinds])
    got = eig_hermitian(stack)
    assert got.eigenvalues.shape == (len(kinds), dim)
    assert got.eigenvectors.shape == (len(kinds), dim, dim)
    for m, values, vectors in zip(stack, got.eigenvalues, got.eigenvectors):
        one = eig_hermitian(m)
        assert _same_bytes(values, one.eigenvalues) and _same_bytes(vectors, one.eigenvectors)


def _psd_sqrt_loop(stack: np.ndarray):
    """Reference: ``psd_sqrt`` of each matrix in turn; the first failure's
    type, eigenvalue and message, or the roots."""
    roots = []
    for m in stack:
        try:
            roots.append(psd_sqrt(m))
        except SpectrumOutOfRangeError as exc:
            return type(exc), exc.eigenvalue, str(exc)
    return roots


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 8),
    _KINDS,
    st.lists(st.sampled_from([0.0, 0.0, 1e-12, 1e-6, 1.0]), min_size=6, max_size=6),
)
@settings(max_examples=120, deadline=None)
def test_stacked_psd_sqrt_matches_the_loop(seed, dim, kinds, shifts):
    rng = np.random.default_rng(seed)
    # squares are PSD; shifting one down by its lowest eigenvalue and more makes it not
    stack = np.array([hermitize(h @ h) for h in (_hermitian_of(kind, rng, dim) for kind in kinds)])
    for m, shift in zip(stack, shifts):
        if shift:
            m -= (eig_hermitian(m).eigenvalues[0] + shift) * np.eye(dim)
    want = _psd_sqrt_loop(stack)
    try:
        got = psd_sqrt(stack)
    except SpectrumOutOfRangeError as exc:
        assert (type(exc), exc.eigenvalue, str(exc)) == want
        return
    assert isinstance(want, list) and got.shape == stack.shape
    assert all(_same_bytes(root, one) for root, one in zip(got, want))


@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 8))
@settings(max_examples=80, deadline=None)
def test_spectral_map_matches_the_dense_products(seed, dim, cols):
    """``spectral_map`` of a stack, and of each matrix alone, equals the
    dense ``V @ diag(f) @ V†`` of the generator references bit for bit for
    real values, and in value for a boolean mask (the projections; a zero of
    the dense product can carry the other sign).  For unit phases it equals
    the propagator's former ``(V * f) @ V†`` bit for bit on every lattice
    (d >= 2; numpy multiplies a (1, 1) array by a (1,) one in another loop
    than by a (1, 1) one, and the two can round apart).  V takes the first
    cols columns of a unitary, so it is not square when cols < dim (the
    orthogonal-support pair's columns)."""
    rng = np.random.default_rng(seed)
    cols = min(cols, dim)
    g = rng.standard_normal((5, dim, dim)) + 1j * rng.standard_normal((5, dim, dim))
    v = np.linalg.qr(g)[0][:, :, :cols]
    real, mask = rng.uniform(0.0, 1.0, (5, cols)), rng.uniform(size=(5, cols)) < 0.5
    phases = np.exp(-1j * rng.standard_normal((5, cols)))

    def dense(u, f):
        return u @ np.diag(f.astype(complex)) @ u.conj().T

    cases = [(real, dense, _same_bytes), (mask, dense, np.array_equal)]
    if dim >= 2:
        cases.append((phases, lambda u, f: (u * f) @ u.conj().T, _same_bytes))
    for f, reference, same in cases:
        stacked = spectral_map(v, f)
        for i in range(len(v)):
            want = reference(v[i], f[i])
            assert same(stacked[i], want) and same(spectral_map(v[i], f[i]), want)


def _count_calls(monkeypatch, name: str) -> list:
    """Wrap every opmeas binding of linalg.<name> so each call's arguments are recorded."""
    return count_calls(monkeypatch, linalg, name)


def _count_exact_norms(monkeypatch) -> list:
    """Record the stack of every ``op_norms`` call.  It is the one exact-norm
    kernel (``op_norm`` is its one-matrix call), so the number of matrices
    recorded is the number of exact norms taken."""
    return _count_calls(monkeypatch, "op_norms")


def _matrices(calls: list) -> int:
    return sum(len(stack) for (stack,) in calls)


def test_kernels_trust_validated_operands(monkeypatch):
    m = _rand_hermitian(np.random.default_rng(17), 6)
    povm = coherent_state_povm(make_model(8), gaussian_fiducial(8))
    norms = _count_exact_norms(monkeypatch)
    coercions = _count_calls(monkeypatch, "as_matrix")
    eig_hermitian(m)
    assert norms == []  # no Hermiticity SVD inside the eigendecomposition
    assert not is_commutative(povm).commutative
    assert norms  # the pair scan's norms pass through the wrapper, so it is live
    assert coercions == []  # no operand is coerced again inside the pair scan


def _random_fiducial(n: int) -> np.ndarray:
    rng = np.random.default_rng(1)
    eta = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return eta / np.linalg.norm(eta)


# A plain loop makes 1.0 exact norm per pair, 32,640 at N = 16.  With the
# Frobenius bounds of ``pair_bounds`` the N = 16 POVMs take 3,328 (Gaussian)
# and 5,376 (random) exact norms: the commutators of rank-one effects have two
# equal singular values, so their Frobenius bound sits sqrt(2) above the norm
# and every pair within that factor of the maximum goes to an SVD.
def test_pair_scan_takes_exact_norms_only_where_a_pair_could_win(monkeypatch):
    norms = _count_exact_norms(monkeypatch)
    products = _count_calls(monkeypatch, "pair_bounds")
    for fiducial, ceiling in [(gaussian_fiducial, 3328), (_random_fiducial, 5376)]:
        povm = coherent_state_povm(make_model(16), fiducial(16))
        norms.clear()
        assert not is_commutative(povm).commutative
        assert 0 < _matrices(norms) <= ceiling, fiducial.__name__
    assert len(products) == 2  # one bounding pass per POVM


def test_pair_scan_on_a_commuting_rank_one_family_takes_no_exact_norm(monkeypatch):
    # every commutator is exactly zero, and so is its Frobenius bound
    point = np.zeros(16)
    point[0] = 1.0
    povm = coherent_state_povm(make_model(16), point)  # 16 copies of each |x><x| / 16
    base = sharp_position_map(make_model(32)).base_pom
    norms = _count_exact_norms(monkeypatch)
    products = _count_calls(monkeypatch, "pair_bounds")
    for pom in (povm, base):
        assert is_commutative(pom).max_commutator == 0.0
    assert norms == [] and len(products) == 2


def test_pair_scan_takes_no_exact_norm_on_a_commuting_pom(monkeypatch):
    weights = np.random.default_rng(5).uniform(0.0, 1.0, (64, 8))
    pom = build_pom([np.diag(w).astype(complex) for w in weights / weights.sum(axis=0)], True)
    norms = _count_exact_norms(monkeypatch)
    assert is_commutative(pom).max_commutator == 0.0
    assert norms == []  # every Frobenius bound is zero, so no pair can raise the maximum


def test_singleton_scan_on_the_sharp_map_takes_no_exact_norm(monkeypatch):
    lmap = sharp_position_map(make_model(32))
    norms = _count_exact_norms(monkeypatch)
    eigs = _count_calls(monkeypatch, "eig_hermitian")
    bounded = _count_calls(monkeypatch, "pair_bounds")
    shifts = count_calls(monkeypatch, localization, "check_covariance")
    table = singleton_conditions(lmap)
    assert all(row.holds and row.worst_residual == 0.0 for row in table.rows)
    assert norms == []  # every gap and product is exactly zero (1,984 norms for a plain loop)
    decomposed = sum(len(m) if m.ndim == 3 else 1 for (m,) in eigs)
    assert decomposed == 32  # one decomposition per singleton (96 when each projection decomposes)
    # exactly covariant: no shift is checked, and each row bounds the 31 orbit pairs (0, d), not 496
    assert shifts == []
    assert [(len(left), len(right)) for left, right, _ in bounded] == [(1, 32), (1, 32)]


def test_build_pom_takes_no_exact_norm_but_the_deficit(monkeypatch):
    model, eta = make_model(16), gaussian_fiducial(16)
    norms = _count_exact_norms(monkeypatch)
    assert len(coherent_state_povm(model, eta)) == 256
    assert _matrices(norms) <= 1  # the normalization deficit (257 with one Hermiticity SVD per effect)


def test_covariance_check_on_a_covariant_map_takes_no_exact_norm(monkeypatch):
    lmap = smeared_position_map(make_model(16), three_point_kernel(16))
    norms = _count_exact_norms(monkeypatch)
    assert all(check_covariance(lmap, a).residual == 0.0 for a in range(16))
    assert norms == []  # every rolled gap is exactly zero, so its bound is too


def _stack_of(kind: str, rng: np.random.Generator, k: int, dim: int) -> np.ndarray:
    if kind == "random":
        return rng.standard_normal((k, dim, dim)) + 1j * rng.standard_normal((k, dim, dim))
    if kind == "zero":
        return np.zeros((k, dim, dim), dtype=complex)
    if kind == "rank-one":
        a = rng.standard_normal((k, dim, 1)) + 1j * rng.standard_normal((k, dim, 1))
        b = rng.standard_normal((k, 1, dim)) + 1j * rng.standard_normal((k, 1, dim))
        return a @ b
    one = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return np.repeat(one[np.newaxis], k, axis=0)  # duplicated


@given(
    st.integers(0, 10_000),
    st.integers(1, 33),
    st.integers(1, 5),
    st.sampled_from(["random", "zero", "rank-one", "duplicated"]),
)
@settings(max_examples=120, deadline=None)
def test_op_norms_match_the_one_matrix_norm_bit_for_bit(seed, dim, k, kind):
    stack = _stack_of(kind, np.random.default_rng(seed), k, dim)
    got = op_norms(stack)
    want = np.array([np.linalg.norm(m, 2) for m in stack])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert [op_norm(m) for m in stack] == list(want)


def _largest_norm_loop(stack: np.ndarray) -> tuple[float, int]:
    """Reference: every matrix through op_norm; strict > keeps the first of tied matrices."""
    worst, worst_at = 0.0, -1
    for p, m in enumerate(stack):
        value = op_norm(m)
        if value > worst:
            worst, worst_at = value, p
    return worst, worst_at


@given(st.integers(0, 10_000), st.sampled_from([2, 8, 64]), st.integers(1, 80))
@settings(max_examples=60, deadline=None)
def test_largest_norm_matches_the_plain_loop_across_chunks(seed, dim, k):
    # a palette of six matrices, repeated: exact ties everywhere, in bound and
    # in norm alone (diag(1, 0) and diag(1, 1/2) share the norm 1 but not the
    # bound), spread over the chunks of 1, 2, 4, ... matrices (16 at d = 64)
    rng = np.random.default_rng(seed)
    palette = np.zeros((6, dim, dim), dtype=complex)
    palette[1] = palette[2] = np.eye(dim)
    palette[2, 0, 0] = 0.5
    palette[3, 0, 0] = 1.0
    palette[4] = _stack_of("rank-one", rng, 1, dim)[0]
    palette[4] /= op_norm(palette[4])
    palette[5] = 0.5 * _stack_of("random", rng, 1, dim)[0] / np.sqrt(dim)
    stack = palette[rng.integers(0, 6, k)]
    got = largest_norm(frobenius_norms(stack), lambda ps: stack[ps])
    assert got == _largest_norm_loop(stack)


def test_largest_norm_ties_straddle_a_doubling_boundary():
    # diag(1, 1/2) at 3, 5, 7 and diag(1, 0) at 0, 4, 6 all have the norm 1,
    # but the first have the larger Frobenius bound, so they fill the chunks
    # of one and two matrices and the second come in the chunk of four: the
    # first index that attains the norm, 0, is walked after 3, 5 and 7
    stack = np.zeros((8, 2, 2), dtype=complex)
    stack[[3, 5, 7]] = np.diag([1.0, 0.5])
    stack[[0, 4, 6]] = np.diag([1.0, 0.0])
    stack[[1, 2]] = np.diag([0.5, 0.25])
    chunks: list = []

    def matrices(ps):
        chunks.append(sorted(ps))
        return stack[ps]

    got = largest_norm(frobenius_norms(stack), matrices)
    assert got == _largest_norm_loop(stack) == (1.0, 0)
    assert sorted(chunks[0] + chunks[1]) == [3, 5, 7] and chunks[2:] == [[0, 4, 6]]


@pytest.mark.parametrize("commutators", [False, True])
def test_pair_bounds_match_plain_products_across_blocks(commutators):
    # d = 64 puts 16 matrices in a block, so rows of 39 pairs span three blocks
    rng = np.random.default_rng(23)
    left = np.array([_rand_hermitian(rng, 64) for _ in range(40)])
    right = np.array([_rand_hermitian(rng, 64) for _ in range(40)])
    left[[0, 7]] = 0.0  # zero rows take no product

    def plain(a, b):
        return a @ b - b @ a if commutators else a @ b

    def product(a, block, out, tmp):
        np.matmul(a, block, out=out)
        if commutators:
            out -= np.matmul(block, a, out=tmp)
        return out

    rows, cols = np.triu_indices(40, 1)
    bounds = pair_bounds(left, right, product)
    expected = [np.linalg.norm(plain(left[x], right[y])) for x, y in zip(rows, cols)]
    assert bounds.shape == (40 * 39 // 2,)
    assert np.allclose(bounds, expected, rtol=1e-12, atol=0.0)
    assert np.array_equal(bounds == 0.0, np.isin(rows, [0, 7]))
    for r in (1, 2, 9, 39):  # a shorter left stack: its rows, the first of the pair order
        first = pair_bounds(left[:r], right, product)
        assert np.array_equal(first, bounds[: len(first)]) and len(first) == np.sum(rows < r)


def test_propagator_diagonalizes_h_once_per_model(monkeypatch):
    model = make_model(8)
    eigs = _count_calls(monkeypatch, "eig_hermitian")
    for step in range(10):
        propagator(model, 0.5 * step)
    assert len(eigs) == 1


def test_psd_sqrt_2x2_closed_form():
    # sqrt(M) = (M + sqrt(det) I) / sqrt(tr + 2 sqrt(det)) for 2x2 PSD M
    rng = np.random.default_rng(3)
    for _ in range(50):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        m = hermitize(g.conj().T @ g)
        sd = np.sqrt(max(np.linalg.det(m).real, 0.0))
        expected = (m + sd * np.eye(2)) / np.sqrt(np.trace(m).real + 2 * sd)
        assert op_norm(psd_sqrt(m) - expected) < 1e-10


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(5)
    for dim in (2, 3, 5):
        g = rng.standard_normal((dim, dim))
        m = hermitize(g.T @ g)
        r = psd_sqrt(m)
        assert op_norm(r @ r - m) < 1e-10


def test_psd_sqrt_clamps_tiny_negative_but_rejects_real_negative():
    assert np.allclose(psd_sqrt(np.diag([1.0, -1e-12])), np.diag([1.0, 0.0]))
    with pytest.raises(SpectrumOutOfRangeError):
        psd_sqrt(np.diag([1.0, -1e-3]))


def test_commutator_norm_rank_one_formula():
    # ||[P_a, P_b]|| = s sqrt(1 - s^2) with s = |<a|b>| for unit vectors
    rng = np.random.default_rng(13)
    for _ in range(20):
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        s = abs(np.vdot(a, b))
        got = commutator_norm(outer(a), outer(b))
        assert got == pytest.approx(s * np.sqrt(1 - s**2), abs=1e-12)


def test_dagger_and_hermitize():
    m = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    assert np.array_equal(dagger(m), m.conj().T)
    assert is_hermitian(hermitize(m))
