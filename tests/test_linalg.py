"""Matrix-core tests: eigendecomposition against independent oracles."""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opmeas import linalg
from opmeas.errors import DimensionMismatchError, OpmeasError, SpectrumOutOfRangeError
from opmeas.linalg import (
    _PHASE_EPS,
    BOUND_MARGIN,
    _fix_phases,
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
    rank_one_bounds,
    require_same_dim,
    schatten8_norms,
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


def test_eigenvector_phase_is_deterministic_and_positive():
    m = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    e1 = eig_hermitian(m)
    e2 = eig_hermitian(m.copy())
    assert np.array_equal(e1.eigenvectors, e2.eigenvectors)
    for col in e1.eigenvectors.T:
        lead = col[np.abs(col) > 1e-12][0]
        assert lead.real > 0 and abs(lead.imag) <= 1e-12


def _fix_phases_loop(vecs: np.ndarray) -> np.ndarray:
    """Reference: the per-column loop that the argmax form replaced."""
    out = np.array(vecs, dtype=complex)
    for j in range(out.shape[1]):
        col = out[:, j]
        idx = np.flatnonzero(np.abs(col) > _PHASE_EPS)
        if idx.size == 0:
            continue
        pivot = col[idx[0]]
        out[:, j] = col * (pivot.conj() / abs(pivot))
    return out


@given(
    st.integers(0, 10_000),
    st.integers(1, 32),
    st.sampled_from(["random", "diagonal", "degenerate", "block"]),
)
@settings(max_examples=120, deadline=None)
def test_fix_phases_matches_loop_bit_for_bit(seed, dim, kind):
    rng = np.random.default_rng(seed)
    if kind == "random":
        m = _rand_hermitian(rng, dim)
    elif kind == "diagonal":
        m = np.diag(rng.standard_normal(dim)).astype(complex)
    elif kind == "degenerate":
        q, _ = np.linalg.qr(_rand_hermitian(rng, dim))
        m = hermitize(q @ np.diag(rng.integers(0, 3, dim).astype(complex)) @ q.conj().T)
    else:  # leading components of the lower block's eigenvectors are exact zeros
        m = np.zeros((dim, dim), dtype=complex)
        k = dim // 2
        m[:k, :k] = np.diag(rng.integers(0, 2, k).astype(complex))
        m[k:, k:] = _rand_hermitian(rng, dim - k)
    _, vecs = np.linalg.eigh(m)
    got = _fix_phases(vecs)
    want = _fix_phases_loop(vecs)
    assert np.array_equal(got.view(np.uint8), want.view(np.uint8))


def _count_calls(monkeypatch, name: str) -> list:
    """Wrap every opmeas binding of linalg.<name> so each call's arguments are recorded."""
    original = getattr(linalg, name)
    calls: list = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("opmeas") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls


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


# A plain loop makes 1.0 exact norm per pair.  With Frobenius bounds from
# ``pair_bounds`` and the Schatten-8 screen the N = 16 POVMs took 2,304
# (Gaussian) and 768 (random) exact norms: the commutators of rank-one effects
# have two equal singular values, so the Schatten-8 bound sits 2**(1/8) above
# the norm and every pair within 9% of the maximum went to an SVD.  The Gram
# tier's bounds are within rounding of the norm, so only pairs that tie the
# maximum remain: the Gaussian fiducial is parity symmetric and whole orbits
# of the Weyl group tie there (512 pairs), the random one ties on 256.
def test_pair_scan_takes_exact_norms_only_where_a_pair_could_win(monkeypatch):
    norms = _count_exact_norms(monkeypatch)
    products = _count_calls(monkeypatch, "pair_bounds")
    for fiducial, ceiling in [(gaussian_fiducial, 512), (_random_fiducial, 256)]:
        povm = coherent_state_povm(make_model(16), fiducial(16))
        norms.clear()
        assert not is_commutative(povm).commutative
        assert 0 < _matrices(norms) <= ceiling, fiducial.__name__
    assert products == []  # the rank-one POVMs take their bounds from the Gram tier


def test_pair_scan_on_a_commuting_rank_one_family_takes_no_exact_norm(monkeypatch):
    # the Gram bounds of a family that commutes up to rounding are all slack,
    # so the scan falls back to the Frobenius bounds, which are exact zeros
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
    table = singleton_conditions(lmap)
    assert all(row.holds and row.worst_residual == 0.0 for row in table.rows)
    assert norms == []  # every gap and product is exactly zero (1,984 norms for a plain loop)
    assert len(eigs) == 32  # one decomposition per singleton (96 when each projection decomposes)


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


@given(
    st.integers(0, 10_000),
    st.integers(1, 24),
    st.sampled_from([1.0, 1e-3, 1e-80, 1e-170, 1e80]),
    st.sampled_from(["random", "rank-one", "duplicated"]),
)
@settings(max_examples=120, deadline=None)
def test_schatten8_bound_is_never_below_the_exact_norm(seed, dim, scale, kind):
    stack = scale * _stack_of(kind, np.random.default_rng(seed), 3, dim)
    exact = op_norms(stack)
    bounds = schatten8_norms(stack)
    assert np.all(bounds >= exact / (1 + BOUND_MARGIN))
    assert np.all(bounds <= frobenius_norms(stack) * (1 + BOUND_MARGIN))
    if scale not in (1.0, 1e-3):  # (M†M)^2's sum of squares under- or overflows: Frobenius
        assert np.array_equal(bounds, frobenius_norms(stack))


def test_schatten8_bound_of_a_rank_two_commutator():
    # the pair scan's commutators have two equal singular values
    rng = np.random.default_rng(29)
    a, b = (outer(rng.standard_normal(6) + 1j * rng.standard_normal(6)) for _ in range(2))
    c = (a @ b - b @ a)[np.newaxis]
    exact = op_norms(c)
    assert frobenius_norms(c) == pytest.approx(np.sqrt(2) * exact, rel=1e-12)
    assert schatten8_norms(c) == pytest.approx(2**0.125 * exact, rel=1e-12)


def _rank_one_family(kind: str, rng: np.random.Generator, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Weights w and vectors v of rank-one matrices w v v†: two random ones, so
    that the family does not commute, and six of the kind."""

    def vectors(k):
        return rng.standard_normal((k, dim)) + 1j * rng.standard_normal((k, dim))

    v, w = vectors(8), rng.uniform(0.0, 1.0, 8)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    if kind == "duplicated":  # weight 1, three copies of each
        v[2:], w[2:] = np.repeat(v[2:4], 3, axis=0)[:6], 1.0
    elif kind == "near-duplicate":
        v[5:] = v[2:5] + 1e-9 * vectors(3)
    elif kind == "orthogonal":  # columns of a random unitary, none a basis vector
        q = np.linalg.qr(vectors(dim).T)[0]
        v[2 : 2 + dim] = q.T[:6]
    return w, v


@given(
    st.integers(0, 10_000),
    st.integers(2, 12),
    st.sampled_from(["random", "duplicated", "near-duplicate", "orthogonal"]),
    st.sampled_from([1.0, 1e-160, 1e150]),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_rank_one_bounds_are_never_below_the_exact_norm(seed, dim, kind, scale, given_pairs):
    # given_pairs passes the generating (w, v), whose residuals are exact
    # zeros, so only the absolute slack covers the commutators' rounding
    w, v = _rank_one_family(kind, np.random.default_rng(seed), dim)
    values = scale * w
    stack = values[:, np.newaxis, np.newaxis] * (v[:, :, np.newaxis] * v[:, np.newaxis].conj())
    if not given_pairs:
        evals, evecs = np.linalg.eigh(hermitize(stack))
        values, v = evals[:, -1], evecs[:, :, -1]
    bounds = rank_one_bounds(stack, values, v)
    if scale == 1e-160:  # the sums of squares underflow: no finite bound, no tier
        assert bounds is None
        return
    rows, cols = np.triu_indices(len(stack), 1)
    exact = op_norms(stack[rows] @ stack[cols] - stack[cols] @ stack[rows])
    assert bounds is not None and bounds.shape == exact.shape
    assert np.all(bounds * (1 + BOUND_MARGIN) >= exact)


def test_rank_one_bounds_step_aside_for_full_rank_and_commuting_families():
    rng = np.random.default_rng(31)
    full = np.array([h @ h for h in (_rand_hermitian(rng, 4) for _ in range(5))])
    w, v = _rank_one_family("random", rng, 4)
    rank_one = w[:, np.newaxis, np.newaxis] * (v[:, :, np.newaxis] * v[:, np.newaxis].conj())
    nearly = rank_one + 1e-6 * np.eye(4)  # residual far above rounding, closed forms too
    basis = np.eye(4, dtype=complex)[:, :, np.newaxis] * np.eye(4)[:, np.newaxis]
    for stack in (full, nearly, basis, np.zeros((3, 4, 4), dtype=complex)):
        evals, evecs = np.linalg.eigh(stack)
        assert rank_one_bounds(stack, evals[:, -1], evecs[:, :, -1]) is None
    evals, evecs = np.linalg.eigh(rank_one)
    assert rank_one_bounds(rank_one, evals[:, -1], evecs[:, :, -1]) is not None


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
