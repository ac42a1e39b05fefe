"""Light-cone inflation, leakage curves, causal chains, and the model scan."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jv

from opmeas import povm as povm_module
from opmeas.causality import (
    ConditionRow,
    builtin_model_family,
    inflated_set,
    leakage_scan,
    schlieder_scan,
    singleton_conditions,
    strong_causality_chain,
)
from opmeas.effects import spectral_projection
from opmeas.ensembles import random_pom, random_projective_pom
from opmeas.errors import GeometryError, OpmeasError
from opmeas.linalg import eig_hermitian, op_norm
from opmeas.localization import (
    LocalizationMap,
    SpatialSet,
    check_covariance,
    coherent_state_povm,
    gaussian_fiducial,
    make_model,
    position_marginal,
    sharp_position_map,
    shift_matrix,
    smeared_position_map,
    three_point_kernel,
    zero_hamiltonian,
)
from opmeas.povm import build_pom


def hopping_map(n):
    return sharp_position_map(make_model(n))


def static_map(n):
    return sharp_position_map(make_model(n, hamiltonian=zero_hamiltonian(n)))


def test_inflated_set_examples():
    model = make_model(32)
    grown = inflated_set(SpatialSet({3}), 2.0, model)
    assert grown.sites == {1, 2, 3, 4, 5}
    assert grown.time_slice == 2

    same = inflated_set(SpatialSet({3, 4}), 0.0, model)
    assert same.sites == {3, 4} and same.time_slice == 0

    # fractional times floor: radius 0 until t reaches 1/c
    frac = inflated_set(SpatialSet({3}), 0.9, model)
    assert frac.sites == {3} and frac.time_slice == 0

    # saturation: radius >= N/2 covers the ring
    sat = inflated_set(SpatialSet({0}), 16.0, model)
    assert sat.sites == set(range(32))

    with pytest.raises(GeometryError):
        inflated_set(SpatialSet({0}), -1.0, model)


@given(st.integers(0, 12), st.integers(0, 12))
@settings(max_examples=30, deadline=None)
def test_inflated_set_monotone(t1, t2):
    model = make_model(16)
    d = SpatialSet({2, 9})
    lo, hi = sorted((t1, t2))
    assert inflated_set(d, float(lo), model).sites <= inflated_set(d, float(hi), model).sites


def test_leakage_zero_hamiltonian_is_identically_zero():
    lmap = static_map(32)
    phi = np.zeros(32)
    phi[0] = 1.0
    series = leakage_scan(lmap, phi, SpatialSet({0}), [0.0, 0.5, 1.0, 2.0, 4.0])
    assert np.all(np.abs(series.leakage) <= 1e-10)


def test_leakage_hopping_matches_bessel_sum():
    # For phi = |0> under hopping, P(inflated set at t) = sum_{|d|<=floor(t)}
    # J_d(t)^2 up to wrap-around, so leakage(t) = 1 - that sum.
    lmap = hopping_map(32)
    phi = np.zeros(32)
    phi[0] = 1.0
    times = [0.0, 0.5, 1.0, 2.0, 4.0]
    series = leakage_scan(lmap, phi, SpatialSet({0}), times)
    assert abs(series.leakage[0]) <= 1e-10
    for t, leak in zip(times[1:], series.leakage[1:]):
        r = int(np.floor(t + 1e-9))
        inside = jv(0, t) ** 2 + 2 * sum(jv(d, t) ** 2 for d in range(1, r + 1))
        assert leak == pytest.approx(1.0 - inside, abs=1e-8)
        assert leak > 0.0


def test_leakage_bounded_and_warns_on_delocalized_state():
    lmap = hopping_map(16)
    phi = np.full(16, 0.25)  # spread out, p0 = 1/16
    with pytest.warns(UserWarning, match="initial localization probability"):
        series = leakage_scan(lmap, phi, SpatialSet({0}), [0.0, 1.0])
    assert np.all(series.leakage >= -1e-10)
    assert np.all(series.leakage <= 1.0 + 1e-10)


def test_leakage_input_validation():
    lmap = hopping_map(8)
    phi = np.zeros(8)
    phi[0] = 1.0
    with pytest.raises(OpmeasError):
        leakage_scan(lmap, 2.0 * phi, SpatialSet({0}), [0.0])
    with pytest.raises(OpmeasError):
        leakage_scan(lmap, np.ones(4) / 2.0, SpatialSet({0}), [0.0])
    with pytest.raises(GeometryError):
        leakage_scan(lmap, phi, SpatialSet({0}), [-0.5])


def test_leakage_state_norm_is_checked_against_the_normalization_tolerance():
    # |phi|^2 within TOL_EIG = 1e-10 of 1, as for a fiducial: scale 1 +- 4e-11 passes, 1 +- 8e-11 does not
    lmap = hopping_map(8)
    phi = np.zeros(8)
    phi[0] = 1.0
    for scale in (1 - 4e-11, 1 + 4e-11):
        leakage_scan(lmap, phi * scale, SpatialSet({0}), [0.0])
    for scale in (1 - 8e-11, 1 + 8e-11):
        with pytest.raises(OpmeasError, match="^initial state must be a unit vector$"):
            leakage_scan(lmap, phi * scale, SpatialSet({0}), [0.0])


def test_chain_static_sharp_holds_exactly():
    lmap = static_map(16)
    rep = strong_causality_chain(lmap, SpatialSet({0}), SpatialSet({8}), t=2.0)
    assert rep.premise_holds and rep.chain_holds
    assert max(rep.residuals) <= 1e-12


def test_chain_hopping_first_link_breaks():
    # Under hopping the strictly-localized state spreads beyond any sharp
    # window faster than the naive chain allows: r1 > 0 while the purely
    # kinematic links r2, r3 stay exact.
    lmap = hopping_map(32)
    rep = strong_causality_chain(lmap, SpatialSet({0}), SpatialSet({16}), t=2.0)
    assert rep.premise_holds and not rep.chain_holds
    r1, r2, r3 = rep.residuals
    assert r1 > 0.1 and r2 <= 1e-10 and r3 <= 1e-10


def test_chain_vacuous_for_strongly_unsharp_map():
    lmap = smeared_position_map(make_model(16), three_point_kernel(16))
    rep = strong_causality_chain(lmap, SpatialSet({0}), SpatialSet({8}), t=1.0)
    assert not rep.premise_holds and rep.chain_holds and rep.residuals is None


def test_chain_projection_ranks_follow_tol():
    # E_{0} has the eigenvalue 1 - 1e-6: a unit eigenvalue at tol 1e-5, none at 1e-8
    kernel = np.zeros(16)
    kernel[[0, 1]] = [1 - 1e-6, 1e-6]
    lmap = smeared_position_map(make_model(16), kernel)
    d1, d2 = SpatialSet({0}), SpatialSet({8})
    assert not strong_causality_chain(lmap, d1, d2, t=1.0, tol=1e-8).premise_holds
    rep = strong_causality_chain(lmap, d1, d2, t=1.0, tol=1e-5)
    assert rep.premise_holds and rep.residuals[0] > 0.1


def test_singleton_projection_ranks_follow_tol():
    # E_0 = (1 - 1e-6)|0><0| and E_1 = 1e-4|w><w| with |<0|w>|^2 = 1e-3.  The
    # weak row scores ||P1(E_0)(I - P0(E_1))||: P1(E_0) is |0><0| from tol 1e-6
    # on, and |w> leaves I - P0(E_1) from tol 1e-4 on, so only in between is
    # the residual |<0|w>|.
    w = np.array([np.sqrt(1e-3), np.sqrt(1 - 1e-3), 0.0], dtype=complex)
    e0 = np.diag([1 - 1e-6, 0.0, 0.0]).astype(complex)
    e1 = 1e-4 * np.outer(w, w.conj())
    lmap = LocalizationMap(build_pom([e0, e1, np.eye(3) - e0 - e1], True), make_model(3))

    def weak(tol):
        return singleton_conditions(lmap, tol).rows[2]

    assert weak(1e-8) == ConditionRow("weak localizability", True, 0.0, "none")
    row = weak(1e-5)
    assert not row.holds and row.worst_case == "sites {0},{1}"
    assert row.worst_residual == pytest.approx(np.sqrt(1e-3), rel=1e-9)
    row = weak(1e-3)
    assert row.holds and row.worst_residual < 1e-5


def test_chain_geometry_errors():
    lmap = hopping_map(16)
    with pytest.raises(GeometryError):
        strong_causality_chain(lmap, SpatialSet({0}, time_slice=1), SpatialSet({8}), t=1.0)
    with pytest.raises(GeometryError):
        # inflated {0} at t=3 covers sites within distance 3, so {3} at
        # slice 3 overlaps it — not spacelike
        strong_causality_chain(lmap, SpatialSet({0}), SpatialSet({3}, time_slice=3), t=3.0)


def test_schlieder_scan_sharp_hopping_verdict():
    rep = schlieder_scan(hopping_map(16), max_t=2, label="sharp/hopping")
    assert rep.verdict == "commutativity_violated"
    assert rep.condition_row("covariance").holds
    assert rep.condition_row("localizability").holds
    assert rep.condition_row("weak localizability").holds
    assert not rep.condition_row("local commutativity").holds
    assert not rep.strongly_unsharp
    assert rep.nontrivial_dynamics
    assert rep.findings == ()


def test_schlieder_scan_sharp_static_verdict():
    rep = schlieder_scan(static_map(16), max_t=2, label="sharp/static")
    assert rep.verdict == "sharp_and_localizable"
    assert all(row.holds for row in rep.conditions)
    assert not rep.nontrivial_dynamics
    assert rep.findings == ()


def test_schlieder_scan_smeared_verdict():
    lmap = smeared_position_map(make_model(16), three_point_kernel(16))
    rep = schlieder_scan(lmap, max_t=2, label="smeared/hopping")
    assert rep.verdict == "strongly_unsharp"
    assert rep.strongly_unsharp
    assert not rep.condition_row("localizability").holds  # strict fails
    assert rep.condition_row("weak localizability").holds
    assert rep.findings == ()
    # the singleton window tops out at the kernel centre weight, and a
    # width-3 window captures all the mass
    table = dict(rep.max_eigenvalues)
    assert table["window[0:1]"] == pytest.approx(0.5)
    assert table["window[0:3]"] == pytest.approx(1.0)
    assert rep.unit_window == "window[0:3]"


def test_schlieder_scan_coherent_marginal_verdict():
    model = make_model(16)
    marg = position_marginal(model, gaussian_fiducial(16))
    rep = schlieder_scan(marg, max_t=2, label="coherent/hopping")
    assert rep.verdict == "strongly_unsharp"
    assert rep.findings == ()


def test_schlieder_scan_geometry_precondition():
    with pytest.raises(GeometryError):
        schlieder_scan(hopping_map(8), max_t=4)  # horizon 4 >= N/2


def test_schlieder_scan_deterministic():
    a = schlieder_scan(hopping_map(16), max_t=2, label="x")
    b = schlieder_scan(hopping_map(16), max_t=2, label="x")
    assert a == b


def test_builtin_model_family_shape():
    family = builtin_model_family(sizes=(8, 16))
    labels = [label for label, _ in family]
    assert len(family) == 12  # 3 constructions x 2 Hamiltonians x 2 sizes
    assert len(set(labels)) == 12
    for label, lmap in family:
        construction, ham, size = label.split("/")
        assert construction in ("sharp", "smeared", "coherent-marginal")
        assert ham in ("static", "hopping")
        assert lmap.model.n_sites == int(size.removeprefix("N="))


def test_family_consistency_assertion_never_fires():
    # No builtin construction satisfies covariance + weak localizability +
    # local commutativity while keeping a unit eigenvalue on a bounded
    # proper subset under nontrivial dynamics.
    for label, lmap in builtin_model_family(sizes=(8, 16)):
        rep = schlieder_scan(lmap, max_t=2, label=label)
        assert rep.findings == (), f"{label}: {rep.findings}"


def test_builtin_model_family_builds_no_povm(monkeypatch):
    screened, screen = [], povm_module._screen

    def recording(stack, tol):  # every POM, of any construction, passes the screen once
        screened.append(len(stack))
        return screen(stack, tol)

    monkeypatch.setattr(povm_module, "_screen", recording)
    family = dict(builtin_model_family(sizes=(4, 6)))
    assert screened and set(screened) == {4, 6}  # N outcomes per POM, never the N^2 of a POVM
    for n in (4, 6):
        static, hopping = family[f"coherent-marginal/static/N={n}"], family[f"coherent-marginal/hopping/N={n}"]
        assert np.array_equal(static.base_pom.stack, hopping.base_pom.stack)
        assert static.model.n_sites == hopping.model.n_sites == n


def _check_covariance_loop(lmap, a, tol=1e-12):
    """Reference: conjugate each singleton by the a-fold shift matrix, one SVD per site."""
    n = lmap.model.n_sites
    ta = np.linalg.matrix_power(shift_matrix(n), a % n)
    worst = 0.0
    for x in range(n):
        shifted = ta @ lmap.base_pom.effects[x].op @ ta.conj().T
        worst = max(worst, op_norm(shifted - lmap.base_pom.effects[(x + a) % n].op))
    return worst <= tol, worst


def _singleton_conditions_loop(lmap, tol=1e-8):
    """Reference: every shift and every singleton pair in turn, three decompositions per site."""
    n = lmap.model.n_sites
    cov_worst, cov_case = 0.0, "shift 0"
    for a in range(1, n):
        _, residual = _check_covariance_loop(lmap, a, tol)
        if residual > cov_worst:
            cov_worst, cov_case = residual, f"shift {a}"
    strict_worst, strict_case = 0.0, "none"
    weak_worst, weak_case = 0.0, "none"
    singles = lmap.base_pom.effects
    p1s = [spectral_projection(e, "one") for e in singles]
    p0s = [spectral_projection(e, "zero") for e in singles]
    eye = np.eye(n, dtype=complex)
    for x in range(n):
        for y in range(x + 1, n):
            s = op_norm(singles[x].op @ singles[y].op)
            if s > strict_worst:
                strict_worst, strict_case = s, f"sites {{{x}}},{{{y}}}"
            w = op_norm(p1s[x].op @ (eye - p0s[y].op))
            if w > weak_worst:
                weak_worst, weak_case = w, f"sites {{{x}}},{{{y}}}"
    max_eig = max(float(eig_hermitian(e.op).eigenvalues[-1]) for e in singles)
    rows = (
        ConditionRow("covariance", cov_worst <= tol, cov_worst, cov_case),
        ConditionRow("localizability", strict_worst <= tol, strict_worst, strict_case),
        ConditionRow("weak localizability", weak_worst <= tol, weak_worst, weak_case),
    )
    return rows, max_eig, max_eig <= 1.0 - tol


def _assert_singletons_match_loops(lmap, tol=1e-8):
    table = singleton_conditions(lmap, tol)
    assert (table.rows, table.max_eigenvalue, table.strongly_unsharp) == _singleton_conditions_loop(
        lmap, tol
    )
    for a in range(-1, lmap.model.n_sites + 1):
        assert tuple(check_covariance(lmap, a, tol)) == _check_covariance_loop(lmap, a, tol)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 8),
    st.sampled_from(["random", "projective", "duplicated", "broken", "covariant"]),
)
@settings(max_examples=120, deadline=None)
def test_singleton_conditions_match_loops_exactly(seed, n, kind):
    rng = np.random.default_rng(seed)
    if kind == "random":  # no symmetry at all
        effects = [e.op for e in random_pom(rng, n, n).effects]
    elif kind == "projective":  # unit eigenvalues, so the weak row has projections to compare
        effects = [e.op for e in random_projective_pom(rng, n, int(rng.integers(1, n + 1))).effects]
        effects += [np.zeros((n, n), dtype=complex)] * (n - len(effects))
    elif kind == "duplicated":  # equal effects make exactly tied pairs and shifts
        half = [e.op / 2 for e in random_pom(rng, n, (n + 1) // 2).effects]
        effects = [m for m in half for _ in range(2)][:n]
    else:  # smeared by a random kernel: covariant exactly, or broken at two sites
        k = rng.uniform(0.0, 1.0, n)
        k /= k.sum()
        effects = [np.diag([k[(x - y) % n] for y in range(n)]).astype(complex) for x in range(n)]
        if kind == "broken":  # swap two sites, and shrink one by about the tolerance
            x = int(rng.integers(n))
            effects[x], effects[(x + 1) % n] = effects[(x + 1) % n], effects[x]
            effects[x] = effects[x] * (1 - rng.uniform(0.0, 2e-8))
    lmap = LocalizationMap(base_pom=build_pom(effects, require_normalized=False), model=make_model(n))
    _assert_singletons_match_loops(lmap)


@pytest.mark.parametrize("n", [8, 16])
def test_singleton_conditions_match_loops_on_builtin_maps(n, povm_marginal):
    for _, lmap in builtin_model_family(sizes=(n,))[3:]:  # the hopping half: same POMs as static
        _assert_singletons_match_loops(lmap)
    rng = np.random.default_rng(n)
    eta = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    model = make_model(n)
    povm = coherent_state_povm(model, eta / np.linalg.norm(eta))
    _assert_singletons_match_loops(povm_marginal(povm, model))
    _assert_singletons_match_loops(position_marginal(model, eta / np.linalg.norm(eta)))
