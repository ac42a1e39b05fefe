"""Light-cone inflation, leakage curves, causal chains, and the model scan."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jv

from conftest import _povm_marginal, count_calls
from opmeas import localization
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
from opmeas.cli import _default_horizon
from opmeas.effects import Effect, spectral_projection
from opmeas.ensembles import random_pom, random_projective_pom
from opmeas.errors import GeometryError, OpmeasError
from opmeas.linalg import eig_hermitian, op_norm
from opmeas.localization import (
    LocalizationMap,
    SpatialSet,
    check_covariance,
    check_local_commutativity,
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
from opmeas.povm import build_pom, is_commutative, row_commutativity


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


def test_leakage_reads_the_time_step():
    # at tau = 0.5 the state evolves for tau * t and the window grows by
    # floor(c * tau * t), so the series at t is the tau = 1 series at t / 2
    half = sharp_position_map(make_model(32, time_step=0.5))
    phi = np.zeros(32)
    phi[0] = 1.0
    times = [0.0, 1.0, 2.0, 3.0, 4.0, 8.0]
    series = leakage_scan(half, phi, SpatialSet({0}), times)
    unit = leakage_scan(hopping_map(32), phi, SpatialSet({0}), [t / 2 for t in times])
    np.testing.assert_allclose(series.leakage, unit.leakage, rtol=0, atol=1e-12)
    for t, leak in zip(times, series.leakage):
        s = t / 2
        inside = jv(0, s) ** 2 + 2 * sum(jv(d, s) ** 2 for d in range(1, int(np.floor(s + 1e-9)) + 1))
        assert leak == pytest.approx(1.0 - inside, abs=1e-8)
    # t = 2: the window is {31, 0, 1}, not {30, ..., 2}, which would leave about 7e-4
    assert series.leakage[2] > 0.02


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


def test_chain_reads_the_time_step():
    # at tau = 0.5 and t = 2 the inflated set is {31, 0, 1}: the chain is the
    # tau = 1 chain at t = 1, and {2} on slice 2 is spacelike to it
    half, unit = sharp_position_map(make_model(32, time_step=0.5)), hopping_map(32)
    rep = strong_causality_chain(half, SpatialSet({0}), SpatialSet({16}), t=2.0)
    want = strong_causality_chain(unit, SpatialSet({0}), SpatialSet({16}), t=1.0)
    assert rep.premise_holds and not rep.chain_holds
    np.testing.assert_allclose(rep.residuals, want.residuals, rtol=0, atol=1e-12)
    assert rep.residuals[0] > 0.1
    static = sharp_position_map(make_model(32, hamiltonian=zero_hamiltonian(32), time_step=0.5))
    rep = strong_causality_chain(static, SpatialSet({0}), SpatialSet({2}, time_slice=2), t=2.0)
    assert rep.premise_holds and rep.chain_holds and max(rep.residuals) <= 1e-12
    with pytest.raises(GeometryError):
        strong_causality_chain(static, SpatialSet({0}), SpatialSet({1}, time_slice=2), t=2.0)


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
        shifted = ta @ lmap.base_pom.stack[x] @ ta.conj().T
        worst = max(worst, op_norm(shifted - lmap.base_pom.stack[(x + a) % n]))
    return worst <= tol, worst


def _singleton_pairs_loop(lmap, tol=1e-8):
    """Reference: the strict and weak values of every singleton pair in turn,
    three decompositions per site; two dicts keyed (x, y), x < y, in row-major order."""
    n = lmap.model.n_sites
    singles = [Effect(op=m) for m in lmap.base_pom.stack]
    p1s = [spectral_projection(e, "one", tol) for e in singles]
    p0s = [spectral_projection(e, "zero", tol) for e in singles]
    eye = np.eye(n, dtype=complex)
    strict, weak = {}, {}
    for x in range(n):
        for y in range(x + 1, n):
            strict[x, y] = op_norm(singles[x].op @ singles[y].op)
            weak[x, y] = op_norm(p1s[x].op @ (eye - p0s[y].op))
    return strict, weak


def _first_max(values: dict) -> tuple[float, str]:
    """The loop's strict > walk: the largest value and the first pair that attains it."""
    worst, case = 0.0, "none"
    for (x, y), value in values.items():
        if value > worst:
            worst, case = value, f"sites {{{x}}},{{{y}}}"
    return worst, case


def _singleton_conditions_loop(lmap, tol=1e-8):
    """Reference: every shift and every singleton pair in turn."""
    n = lmap.model.n_sites
    cov_worst, cov_case = 0.0, "shift 0"
    for a in range(1, n):
        _, residual = _check_covariance_loop(lmap, a, tol)
        if residual > cov_worst:
            cov_worst, cov_case = residual, f"shift {a}"
    strict, weak = _singleton_pairs_loop(lmap, tol)
    strict_worst, strict_case = _first_max(strict)
    weak_worst, weak_case = _first_max(weak)
    max_eig = max(float(eig_hermitian(m).eigenvalues[-1]) for m in lmap.base_pom.stack)
    rows = (
        ConditionRow("covariance", cov_worst <= tol, cov_worst, cov_case),
        ConditionRow("localizability", strict_worst <= tol, strict_worst, strict_case),
        ConditionRow("weak localizability", weak_worst <= tol, weak_worst, weak_case),
    )
    return rows, max_eig, max_eig <= 1.0 - tol


def _exactly_covariant(lmap) -> bool:
    """E_{x+a} = T^a E_x T^-a entry for entry, for every site x and shift a."""
    n, effects = lmap.model.n_sites, lmap.base_pom.stack
    t = shift_matrix(n)
    return all(np.array_equal(t @ effects[x] @ t.T, effects[(x + 1) % n]) for x in range(n))


def _assert_singletons_match_loops(lmap, tol=1e-8):
    """The table against the loop: exactly when the map is not exactly
    covariant; otherwise within N * 2**-52 relative, with an orbit
    representative ({0}, {d}) as the worst case whose own loop value is that
    close to the maximum.

    The orbit pair's product sums its N terms in another order than the pair
    the loop finds worst, and the SVD of a permuted matrix rounds apart, so
    the two values may differ by about N ulps: 1.4e-15 relative was seen at
    N = 12 on a summed marginal, whose effects carry off-diagonal rounding
    noise.  Diagonal maps have matched exactly.
    """
    rtol = lmap.model.n_sites * 2.0**-52
    table = singleton_conditions(lmap, tol)
    rows, max_eig, unsharp = _singleton_conditions_loop(lmap, tol)
    assert (table.max_eigenvalue, table.strongly_unsharp) == (max_eig, unsharp)
    for a in range(-1, lmap.model.n_sites + 1):
        assert tuple(check_covariance(lmap, a, tol)) == _check_covariance_loop(lmap, a, tol)
    if not _exactly_covariant(lmap):
        assert table.rows == rows
        return
    assert table.rows[0] == rows[0] == ConditionRow("covariance", 0.0 <= tol, 0.0, "shift 0")
    for got, want, values in zip(table.rows[1:], rows[1:], _singleton_pairs_loop(lmap, tol)):
        assert got.worst_residual == pytest.approx(want.worst_residual, rel=rtol, abs=0.0)
        assert got.holds == (got.worst_residual <= tol)
        if want.worst_residual == 0.0:
            assert got.worst_case == "none"
            continue
        x, d = map(int, got.worst_case.removeprefix("sites {").removesuffix("}").split("},{"))
        assert x == 0 and values[0, d] == pytest.approx(want.worst_residual, rel=rtol, abs=0.0)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 8),
    st.sampled_from(["random", "projective", "duplicated", "broken"]),
)
@settings(max_examples=120, deadline=None)
def test_singleton_conditions_match_loops_exactly(seed, n, kind):
    rng = np.random.default_rng(seed)
    if kind == "random":  # no symmetry at all
        effects = list(random_pom(rng, n, n).stack)
    elif kind == "projective":  # unit eigenvalues, so the weak row has projections to compare
        effects = list(random_projective_pom(rng, n, int(rng.integers(1, n + 1))).stack)
        effects += [np.zeros((n, n), dtype=complex)] * (n - len(effects))
    elif kind == "duplicated":  # equal effects make exactly tied pairs and shifts
        half = list(random_pom(rng, n, (n + 1) // 2).stack / 2)
        effects = [m for m in half for _ in range(2)][:n]
    else:  # smeared by a random kernel, then covariance broken at two sites
        effects = _kernel_effects(rng, n)
        x = int(rng.integers(n))  # swap two sites, and shrink one by about the tolerance
        effects[x], effects[(x + 1) % n] = effects[(x + 1) % n], effects[x]
        effects[x] = effects[x] * (1 - rng.uniform(0.0, 2e-8))
    lmap = LocalizationMap(base_pom=build_pom(effects, require_normalized=False), model=make_model(n))
    _assert_singletons_match_loops(lmap)


def _kernel_effects(rng, n: int, sparse: bool = False) -> list:
    """The diagonal effects of a map smeared by a random kernel: exactly covariant.
    A sparse kernel puts 1/m on m random offsets, m = 1..3: unit and zero
    eigenvalues for the weak row, and exactly tied pairs."""
    if sparse:
        k = np.zeros(n)
        m = int(rng.integers(1, min(3, n) + 1))
        k[rng.choice(n, m, replace=False)] = 1.0 / m
    else:
        k = rng.uniform(0.0, 1.0, n)
        k /= k.sum()
    return [np.diag([k[(x - y) % n] for y in range(n)]).astype(complex) for x in range(n)]


@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 16),
    st.sampled_from(["kernel", "sparse kernel", "summed marginal", "marginal"]),
)
@settings(max_examples=80, deadline=None)
def test_singleton_orbit_table_matches_the_loop_on_covariant_maps(seed, n, kind):
    rng = np.random.default_rng(seed)
    model = make_model(n)
    if kind.endswith("kernel"):
        effects = _kernel_effects(rng, n, sparse=kind == "sparse kernel")
        lmap = LocalizationMap(base_pom=build_pom(effects, require_normalized=False), model=model)
    else:
        eta = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        eta /= np.linalg.norm(eta)
        if kind == "marginal":
            lmap = position_marginal(model, eta)
        else:
            lmap = _povm_marginal(coherent_state_povm(model, eta), model)
    assert _exactly_covariant(lmap)
    _assert_singletons_match_loops(lmap)


@given(st.integers(0, 2**32 - 1), st.integers(2, 16), st.sampled_from(["rank-one orbit", "marginal", "kernel"]))
@settings(max_examples=80, deadline=None)
def test_base_commutativity_orbit_scan_matches_all_pairs(seed, n, kind):
    """On an exactly covariant map the pairs (0, d) carry every commutator norm
    of the base POM: the orbit scan's maximum is the all-pairs maximum of
    ``is_commutative`` within 1e-15, with the same verdict.  The rank-one
    orbit E_x = T^x |eta><eta| T^-x does not commute."""
    rng = np.random.default_rng(seed)
    model = make_model(n)
    eta = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    eta /= np.linalg.norm(eta)
    if kind == "rank-one orbit":
        effects = np.array([np.roll(np.outer(eta, eta.conj()), (x, x), axis=(0, 1)) for x in range(n)])
        effects /= eig_hermitian(effects.sum(axis=0)).eigenvalues[-1]
        lmap = LocalizationMap(base_pom=build_pom(effects, require_normalized=False), model=model)
    elif kind == "marginal":
        lmap = position_marginal(model, eta)
    else:
        lmap = LocalizationMap(base_pom=build_pom(_kernel_effects(rng, n), require_normalized=False), model=model)
    assert singleton_conditions(lmap).covariant and _exactly_covariant(lmap)
    for tol in (1e-8, 0.1):
        orbit, reference = row_commutativity(lmap.base_pom, 1, tol), is_commutative(lmap.base_pom, tol)
        assert abs(orbit.max_commutator - reference.max_commutator) <= 1e-15
        assert orbit.commutative == reference.commutative
    if kind == "rank-one orbit":
        assert not is_commutative(lmap.base_pom).commutative


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


def _local_commutativity_loop(lmap, max_t, tol=1e-8) -> list:
    """Reference: ``check_local_commutativity`` on every origin-anchored pair
    ({0}@0, {d}@t), d = 1..N/2, skipping timelike ones; entry t is the row's
    (value, worst case) for the horizon t."""
    n = lmap.model.n_sites
    worst, case, by_horizon = 0.0, "none", []
    for t in range(max_t + 1):
        for d in range(1, n // 2 + 1):
            rep = check_local_commutativity(lmap, SpatialSet({0}), SpatialSet({d}, time_slice=t), tol)
            if rep.applicable and rep.commutator > worst:
                worst, case = rep.commutator, f"{{0}}@0 vs {{{d}}}@{t}"
        by_horizon.append((worst, case))
    return by_horizon


def _assert_local_commutativity_matches_loop(lmap, max_t, tol=1e-8):
    for t, (worst, case) in enumerate(_local_commutativity_loop(lmap, max_t, tol)):
        row = schlieder_scan(lmap, t, tol).condition_row("local commutativity")
        assert row == ConditionRow("local commutativity", worst <= tol, worst, case), t


@pytest.mark.parametrize("n", [8, 16, 32])
def test_local_commutativity_row_matches_the_pair_loop_on_builtin_maps(n):
    for _, lmap in builtin_model_family(sizes=(n,)):
        _assert_local_commutativity_matches_loop(lmap, _default_horizon(None, n, lmap.model))


@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 12),
    st.sampled_from([0.1, 0.3, 0.7, 1.0, 1.7]),
    st.sampled_from([0.3, 1.0, 3.0]),
    st.sampled_from(["sharp", "kernel", "random"]),
    st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_local_commutativity_row_matches_the_pair_loop_under_a_random_hamiltonian(
    seed, n, light_speed, time_step, kind, static
):
    # static: H = 0 repeats slice 0's commutators at every slice, so the
    # worst case must stay at the first slice that attains the maximum
    rng = np.random.default_rng(seed)
    h = np.zeros((n, n)) if static else rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    model = make_model(n, hamiltonian=h + h.conj().T, light_speed=light_speed, time_step=time_step)
    if kind == "sharp":
        lmap = sharp_position_map(model)
    else:
        effects = _kernel_effects(rng, n) if kind == "kernel" else list(random_pom(rng, n, n).stack)
        lmap = LocalizationMap(base_pom=build_pom(effects, require_normalized=False), model=model)
    max_t = 0  # the largest horizon that stays inside the cycle, at most 6
    while max_t < 6 and (max_t + 1) * light_speed * time_step < n / 2:
        max_t += 1
    _assert_local_commutativity_matches_loop(lmap, max_t)


def test_family_sweep_evolves_one_stack_per_slice(monkeypatch):
    pairs = count_calls(monkeypatch, localization, "check_local_commutativity")
    propagators = count_calls(monkeypatch, localization, "propagator")
    for label, lmap in builtin_model_family():
        horizon = _default_horizon(None, lmap.model.n_sites, lmap.model)
        propagators.clear()
        schlieder_scan(lmap, horizon, label=label)
        assert 0 < len(propagators) <= horizon, label  # one per slice t >= 1, none at t = 0
    assert pairs == []
