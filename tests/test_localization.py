"""Lattice localization maps: covariance, localizability, local commutativity."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.special import jv

from opmeas.causality import singleton_conditions
from opmeas.effects import Effect, is_strongly_unsharp, spectral_projection
from opmeas.errors import GeometryError, NotHermitianError, OpmeasError
from opmeas.linalg import commutator_norm, eig_hermitian, op_norm
from opmeas.localization import (
    LatticeModel,
    LocalizationMap,
    SpatialSet,
    check_covariance,
    check_local_commutativity,
    coherent_state_povm,
    cyclic_distance,
    effect_for,
    gaussian_fiducial,
    hopping_hamiltonian,
    make_model,
    phase_space_commutativity,
    position_marginal,
    propagator,
    shift_matrix,
    sharp_position_map,
    smeared_position_map,
    spacelike_separated,
    three_point_kernel,
    zero_hamiltonian,
)
from opmeas.povm import build_pom, is_commutative


def hopping_map(n: int) -> LocalizationMap:
    return sharp_position_map(make_model(n))


def localizability_rows(lmap: LocalizationMap):
    """The strict and weak localizability rows of the singleton table."""
    _, strict, weak = singleton_conditions(lmap).rows
    return strict, weak


def static_map(n: int) -> LocalizationMap:
    return sharp_position_map(make_model(n, hamiltonian=zero_hamiltonian(n)))


def test_shift_matrix_is_unitary_cyclic():
    t = shift_matrix(5)
    assert op_norm(t @ t.conj().T - np.eye(5)) < 1e-15
    assert np.allclose(np.linalg.matrix_power(t, 5), np.eye(5))
    v = np.zeros(5)
    v[2] = 1.0
    assert (t @ v)[3] == 1.0  # |x> -> |x+1>


def test_hopping_hamiltonian_shape():
    h = hopping_hamiltonian(6)
    assert np.allclose(h, h.conj().T)
    assert h[1, 0] == pytest.approx(-0.5)
    assert h[0, 5] == pytest.approx(-0.5)  # wraps around
    assert np.trace(h) == pytest.approx(0.0)
    # group velocity of -cos k dispersion is bounded by 1
    assert np.abs(np.linalg.eigvalsh(h)).max() <= 1.0 + 1e-12


def test_make_model_validation():
    with pytest.raises(OpmeasError):
        make_model(1)
    with pytest.raises(OpmeasError):
        make_model(4, light_speed=0.0)
    with pytest.raises(OpmeasError):
        make_model(4, hamiltonian=np.array([[0, 1], [0, 0]], dtype=complex))
    # the constructor owns the Hermiticity check, so a direct build hits it too
    with pytest.raises(NotHermitianError, match="Hamiltonian must be Hermitian"):
        LatticeModel(
            n_sites=2,
            hamiltonian=np.array([[0, 1], [0, 0]], dtype=complex),
            light_speed=1.0,
            time_step=1.0,
        )


def test_cyclic_distance_wraps():
    assert cyclic_distance(8, 0, 3) == 3
    assert cyclic_distance(8, 0, 7) == 1
    assert cyclic_distance(8, 2, 6) == 4


def test_spacelike_separation_geometry():
    model = make_model(32)
    assert spacelike_separated(SpatialSet({0}), SpatialSet({5}, time_slice=1), model)
    assert not spacelike_separated(SpatialSet({0}), SpatialSet({1}, time_slice=2), model)
    # equal-time disjoint sets are always spacelike
    assert spacelike_separated(SpatialSet({0}), SpatialSet({1}), model)
    assert not spacelike_separated(SpatialSet({0}), SpatialSet({0}), model)


def test_propagator_matches_dense_expm():
    model = make_model(8, time_step=0.7)
    u = propagator(model, 1.3)
    eig = eig_hermitian(model.hamiltonian)
    direct = eig.eigenvectors @ np.diag(np.exp(-1j * eig.eigenvalues * 0.91)) @ eig.eigenvectors.conj().T
    assert op_norm(u - direct) < 1e-12
    assert op_norm(u @ u.conj().T - np.eye(8)) < 1e-12


def test_propagator_hopping_is_bessel():
    # <x| exp(-iHt) |y> = i^d J_d(t) for the cyclic hopping model when the
    # wrap-around contribution is negligible (d << N).
    model = make_model(32)
    u = propagator(model, 1.0)
    for d in range(4):
        expected = (1j**d) * jv(d, 1.0)
        assert u[d, 0] == pytest.approx(expected, abs=1e-10)


def test_sharp_map_exactly_covariant_and_localizable():
    lmap = hopping_map(16)
    for a in (1, 3, 7):
        rep = check_covariance(lmap, a)
        assert rep.holds and rep.residual == 0.0
    strict, weak = localizability_rows(lmap)
    assert strict.holds and strict.worst_residual == 0.0
    assert weak.holds and weak.worst_residual <= 1e-12


def test_covariance_detects_broken_map():
    model = make_model(6)
    effects = [np.zeros((6, 6), dtype=complex) for _ in range(6)]
    for x in range(6):
        effects[x][x, x] = 1.0
    effects[2], effects[3] = effects[3], effects[2]  # swap two sites
    broken = LocalizationMap(
        base_pom=build_pom(effects, require_normalized=True), model=model
    )
    rep = check_covariance(broken, 1)
    assert not rep.holds and rep.residual > 0.5


def test_smeared_kernel_validation():
    model = make_model(8)
    with pytest.raises(OpmeasError):
        smeared_position_map(model, np.full(4, 0.25))  # wrong length
    bad = np.zeros(8)
    bad[0], bad[1] = 1.5, -0.5
    with pytest.raises(OpmeasError):
        smeared_position_map(model, bad)  # negative entry
    with pytest.raises(OpmeasError):
        smeared_position_map(model, np.full(8, 0.2))  # sums to 1.6


def test_delta_kernel_reproduces_sharp_map():
    model = make_model(8)
    delta = np.zeros(8)
    delta[0] = 1.0
    smeared = smeared_position_map(model, delta)
    sharp = sharp_position_map(model)
    for x in range(8):
        assert np.array_equal(smeared.base_pom.stack[x], sharp.base_pom.stack[x])


def test_three_point_kernel_and_window_eigenvalue():
    k = three_point_kernel(8)
    assert k[0] == 0.5 and k[1] == 0.25 and k[-1] == 0.25 and k[2:7].sum() == 0.0

    model = make_model(8)
    lmap = smeared_position_map(model, k)
    # E_0 is diagonal with entries k[(0 - y) mod 8]; singleton max eig = 0.5
    e0 = lmap.base_pom.stack[0]
    assert e0[0, 0] == pytest.approx(0.5)
    assert e0[1, 1] == pytest.approx(0.25) and e0[7, 7] == pytest.approx(0.25)
    assert np.linalg.eigvalsh(e0).max() == pytest.approx(0.5)
    # a width-3 window catches all the kernel mass around its centre:
    # max eigenvalue of E_{x-1} + E_x + E_{x+1} is exactly 1 - 0 = 1 here,
    # while a width-2 window tops out at 1 - side.
    w2 = e0 + lmap.base_pom.stack[1]
    assert np.linalg.eigvalsh(w2).max() == pytest.approx(0.75)


def test_smeared_singletons_strongly_unsharp():
    lmap = smeared_position_map(make_model(8), three_point_kernel(8))
    for m in lmap.base_pom.stack:
        e = Effect(op=m)
        assert is_strongly_unsharp(e)
        assert spectral_projection(e, "one").rank == 0


def test_smeared_strict_fails_weak_holds():
    lmap = smeared_position_map(make_model(8), three_point_kernel(8))
    strict, weak = localizability_rows(lmap)
    assert not strict.holds
    # neighbours overlap most: E_0 E_1 has 1/2 * 1/4 on sites 0 and 1
    assert strict.worst_residual == pytest.approx(0.125) and strict.worst_case == "sites {0},{1}"
    assert weak.holds and weak.worst_residual <= 1e-12
    stack = lmap.base_pom.stack
    # kernels at sites 0 and 2 both put weight 1/4 on site 1...
    assert op_norm(stack[0] @ stack[2]) == pytest.approx(0.0625)
    # ...while sites farther apart than the kernel reach still annihilate
    assert op_norm(stack[0] @ stack[4]) == 0.0


def test_localizability_geometry_errors():
    lmap = hopping_map(8)
    with pytest.raises(GeometryError):
        effect_for(lmap, SpatialSet({99}))
    with pytest.raises(GeometryError):
        effect_for(lmap, SpatialSet(set()))


def test_weak_localizability_trivial_for_normalized_pom():
    # For any normalized POM, certainty on d1 forces probability zero on a
    # disjoint d2, so the weak variant holds even for the smeared map.
    lmap = smeared_position_map(make_model(12), three_point_kernel(12))
    _, weak = localizability_rows(lmap)
    assert weak.holds


def test_gaussian_fiducial_unit_norm_peaked():
    eta = gaussian_fiducial(16)
    assert np.linalg.norm(eta) == pytest.approx(1.0)
    assert eta[0] == eta.max()
    assert eta[1] == pytest.approx(eta[-1])  # symmetric under x -> -x


def test_coherent_povm_resolves_identity():
    model = make_model(6)
    povm = coherent_state_povm(model, gaussian_fiducial(6))
    assert len(povm) == 36
    total = povm.stack.sum(axis=0)
    assert op_norm(total - np.eye(6)) < 1e-12
    for m in povm.stack:
        assert np.linalg.matrix_rank(m, tol=1e-10) == 1
        assert np.trace(m).real == pytest.approx(1.0 / 6.0)


def _coherent_stack_loop(n: int, eta: np.ndarray) -> tuple[np.ndarray, list]:
    """Reference: one outer product per phase-space point, X^q Z^p eta by np.roll."""
    omega = np.exp(2j * np.pi * np.arange(n) / n)
    stack = np.empty((n * n, n, n), dtype=complex)
    outcomes = []
    for q in range(n):
        for p in range(n):
            vec = np.roll((omega**p) * eta, q)
            stack[len(outcomes)] = np.outer(vec, vec.conj()) / n
            outcomes.append((q, p))
    return stack, outcomes


@pytest.mark.parametrize("n", [2, 3, 7, 8, 13, 16])
def test_coherent_povm_stack_matches_the_outer_product_loop_byte_for_byte(n):
    # a broadcast omega**p would round differently (it moves bytes at n = 7)
    rng = np.random.default_rng(n)
    random = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for eta in (gaussian_fiducial(n), random / np.linalg.norm(random)):
        povm = coherent_state_povm(make_model(n), eta)
        stack, outcomes = _coherent_stack_loop(n, eta)
        assert povm.stack.tobytes() == stack.tobytes()
        assert povm.outcomes == tuple(outcomes)


def test_coherent_povm_rejects_unnormalized_fiducial():
    model = make_model(6)
    with pytest.raises(OpmeasError):
        coherent_state_povm(model, np.ones(6))


@pytest.mark.parametrize("build", [coherent_state_povm, position_marginal, phase_space_commutativity])
def test_fiducial_norm_is_checked_against_the_normalization_tolerance(build):
    # |eta|^2 within TOL_EIG = 1e-10 of 1: scale 1 +- 4e-11 passes, 1 +- 6e-11 does not
    model, eta = make_model(8), gaussian_fiducial(8)
    for scale in (1 - 4e-11, 1 + 4e-11):
        build(model, eta * scale)
    for scale in (1 - 6e-11, 1 + 6e-11):
        with pytest.raises(OpmeasError, match="^fiducial must be a unit vector$"):
            build(model, eta * scale)
    with pytest.raises(OpmeasError, match="fiducial length 7 != n_sites 8"):
        build(model, eta[:7])


@pytest.mark.parametrize("n", [2, 3, 8, 13])
def test_smeared_stack_matches_the_diagonal_loop_byte_for_byte(n):
    kernel = np.random.default_rng(n).uniform(0.0, 1.0, n)
    kernel /= kernel.sum()
    loop = np.array([np.diag([kernel[(x - y) % n] for y in range(n)]) for x in range(n)], dtype=complex)
    assert smeared_position_map(make_model(n), kernel).base_pom.stack.tobytes() == loop.tobytes()


def test_smeared_kernel_sum_is_checked_against_the_normalization_tolerance():
    model = make_model(8)
    kernel = three_point_kernel(8)
    smeared_position_map(model, kernel * (1 + 5e-11))
    with pytest.raises(OpmeasError) as info:
        smeared_position_map(model, kernel * (1 + 2e-10))
    assert str(info.value) == f"kernel must sum to 1, got {float(np.sum(kernel * (1 + 2e-10)))!r}"
    assert "np.float64" not in str(info.value)


@pytest.mark.parametrize("fiducial", ["gaussian", "random"])
def test_position_marginal_matches_the_povm_sum(fiducial, povm_marginal):
    rng = np.random.default_rng(13)
    for n in range(2, 33):
        model = make_model(n)
        if fiducial == "gaussian":
            eta = gaussian_fiducial(n)
        else:
            eta = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            eta /= np.linalg.norm(eta)
        closed = position_marginal(model, eta)
        reference = povm_marginal(coherent_state_povm(model, eta), model)
        assert np.abs(closed.base_pom.stack - reference.base_pom.stack).max() <= 1e-15, n
        diagonal = np.arange(n)
        off = closed.base_pom.stack.copy()
        off[:, diagonal, diagonal] = 0.0
        assert not off.any(), n
        assert closed.base_pom.normalized
        for a in range(n):
            assert check_covariance(closed, a).residual == 0.0, (n, a)


def _fiducial(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "gaussian":
        return gaussian_fiducial(n)
    if kind == "flat":
        return np.full(n, 1 / np.sqrt(n), dtype=complex)
    eta = np.zeros(n, dtype=complex)
    eta[0] = 1.0
    noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if kind == "random":
        eta = noise
    elif kind == "near-delta":  # |g| within 1e-9 of 1, where sqrt(1 - |g|^2) cancels
        eta = eta + 1e-9 * noise
    return eta / np.linalg.norm(eta)


@pytest.mark.parametrize("kind", ["gaussian", "random", "delta", "near-delta", "flat"])
def test_phase_space_commutativity_matches_the_povm_scan(kind):
    rng = np.random.default_rng(17)
    for n in range(2, 17):
        model, eta = make_model(n), _fiducial(kind, n, rng)
        closed = phase_space_commutativity(model, eta)
        povm = coherent_state_povm(model, eta)
        reference = is_commutative(povm)
        assert abs(closed.max_commutator - reference.max_commutator) <= 1e-16, n
        assert closed.commutative == reference.commutative, n
        if closed.commutative:
            assert closed.worst_pair is None
            continue
        origin, b = closed.worst_pair  # the pair against the orbit origin attains the maximum
        assert origin == (0, 0) and b != (0, 0)
        g0, gb = povm.stack[0], povm.stack[povm.outcomes.index(b)]
        assert abs(commutator_norm(g0, gb) - closed.max_commutator) <= 1e-16, n
    if kind == "delta":  # every orbit vector is a basis vector up to a phase
        assert closed.max_commutator == 0.0


def test_coherent_marginal_is_smeared_sharp():
    # Marginal over momentum: E_q = diag(|eta(x - q)|^2) — a smeared
    # position map with kernel |eta|^2.
    model = make_model(8)
    eta = gaussian_fiducial(8)
    marg = position_marginal(model, eta)
    for q in range(8):
        expected = np.diag([abs(eta[(x - q) % 8]) ** 2 for x in range(8)])
        assert np.allclose(marg.base_pom.stack[q], expected, atol=1e-12)
    assert is_commutative(marg.base_pom).commutative


def test_coherent_marginal_point_fiducial_is_sharp():
    model = make_model(4)
    point = np.zeros(4)
    point[0] = 1.0
    marg = position_marginal(model, point)
    sharp = sharp_position_map(model)
    for q in range(4):
        assert np.allclose(marg.base_pom.stack[q], sharp.base_pom.stack[q], atol=1e-14)


def test_coherent_povm_noncommutative_but_marginal_commutes(povm_marginal):
    model = make_model(8)
    povm = coherent_state_povm(model, gaussian_fiducial(8))
    rep = is_commutative(povm)
    assert not rep.commutative and rep.max_commutator > 1e-6
    marg = povm_marginal(povm, model)
    assert is_commutative(marg.base_pom).max_commutator <= 1e-10
    assert is_commutative(position_marginal(model, gaussian_fiducial(8)).base_pom).max_commutator == 0.0


def test_local_commutativity_equal_time_sharp_is_exact():
    lmap = hopping_map(8)
    rep = check_local_commutativity(lmap, SpatialSet({0}), SpatialSet({3}))
    assert rep.applicable and rep.holds and rep.commutator == 0.0


def test_local_commutativity_rank_one_bessel_oracle():
    # [|0><0|, U|d><d|U*] for rank-1 projections has norm s*sqrt(1-s^2)
    # with s = |<0|U|d>| = |J_d(t)| for hopping evolution.
    n, d, t = 32, 2, 1.0
    lmap = hopping_map(n)
    rep = check_local_commutativity(lmap, SpatialSet({0}), SpatialSet({d}, time_slice=int(t)))
    s = abs(jv(d, t))
    expected = s * np.sqrt(1.0 - s * s)
    assert rep.applicable  # dist 2 > c*tau*|dt| = 1
    assert rep.holds is False
    assert rep.commutator == pytest.approx(expected, abs=1e-10)
    assert rep.commutator > 1e-3


def test_local_commutativity_static_model_holds():
    lmap = static_map(16)
    rep = check_local_commutativity(lmap, SpatialSet({0}), SpatialSet({5}, time_slice=2))
    assert rep.applicable and rep.holds and rep.commutator <= 1e-12


def test_local_commutativity_timelike_has_no_verdict():
    lmap = hopping_map(16)
    rep = check_local_commutativity(lmap, SpatialSet({0}), SpatialSet({1}, time_slice=3))
    assert not rep.applicable and rep.holds is None
    assert rep.commutator >= 0.0


def test_effect_for_evolves_in_heisenberg_picture():
    lmap = hopping_map(8)
    d = SpatialSet({2, 3}, time_slice=2)
    u = propagator(lmap.model, 2)
    base = lmap.base_pom.stack[2] + lmap.base_pom.stack[3]
    assert np.allclose(effect_for(lmap, d).op, u.conj().T @ base @ u, atol=1e-12)
