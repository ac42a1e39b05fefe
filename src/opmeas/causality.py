"""Dynamical causality diagnostics on lattice localization models.

Three instruments around one question — how localization behaves under
time evolution:

* ``leakage_scan`` tracks how much probability escapes a light-cone-
  inflated region as an initially localized state evolves.
* ``strong_causality_chain`` tests the projection chain
  P1(D1) <= P1(D1 inflated, t) <= P0(D2) <= I - P1(D2) for spacelike
  geometry, reporting one residual per inequality.  The premise needs a
  strictly localizable state (a unit eigenvalue on D1); for strongly
  unsharp maps it is vacuous, and the checker says so instead of
  manufacturing a verdict.
* ``schlieder_scan`` tabulates covariance, localizability (both forms),
  and local commutativity for one map, records per-window maximal
  eigenvalues, and enforces the consistency assertion that no map with
  nontrivial dynamics passes covariance + weak localizability + local
  commutativity while keeping a unit eigenvalue on a bounded proper
  subset.  Violations become findings, never silent passes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .effects import TOL_ONE, endpoint_projection, spectral_projection
from .errors import GeometryError, OpmeasError
from .linalg import eig_hermitian, frobenius_norms, largest_norm, op_norm, pair_bounds
from .localization import (
    LatticeModel,
    LocalizationMap,
    SpatialSet,
    _require_unit,
    check_covariance,
    cone_radius,
    cyclic_distance,
    effect_for,
    evolve_effect,
    gaussian_fiducial,
    heisenberg,
    hopping_hamiltonian,
    make_model,
    position_marginal,
    propagator,
    sharp_position_map,
    smeared_position_map,
    spacelike_separated,
    three_point_kernel,
    zero_hamiltonian,
)
from .povm import effect_of

EPS_INIT = 1e-6

_T_EPS = 1e-9


def inflated_set(d: SpatialSet, t: float, model: LatticeModel) -> SpatialSet:
    """Grow a set by the light-cone radius floor(c*tau*t) of ``cone_radius``,
    the radius ``spacelike_separated`` reads.

    t counts time steps of length tau.  The result sits at slice
    time_slice + floor(t); at t = 0 it is d itself.  Monotone in t,
    saturating to the whole lattice once the radius reaches N/2.
    """
    if t < 0:
        raise GeometryError("inflation time must be nonnegative")
    radius = int(math.floor(cone_radius(model, t) + _T_EPS))
    n = model.n_sites
    grown = {
        x
        for x in range(n)
        if min(cyclic_distance(n, x, y) for y in d.sites) <= radius
    }
    return SpatialSet(grown, time_slice=d.time_slice + int(math.floor(t + _T_EPS)))


@dataclass(frozen=True)
class LeakageSeries:
    """Escape probability from inflated sets along a time grid."""

    times: np.ndarray
    leakage: np.ndarray

    def __post_init__(self):
        for name in ("times", "leakage"):
            a = np.asarray(getattr(self, name))
            a.setflags(write=False)
            object.__setattr__(self, name, a)


def leakage_scan(
    lmap: LocalizationMap,
    phi,
    d: SpatialSet,
    times,
) -> LeakageSeries:
    """leakage(t) = 1 - <phi_t| E_(inflated d, t) |phi_t>, phi_t = exp(-iHt tau) phi.

    The initial state should be localized in d: if its detection
    probability at t = 0 falls below 1 - 1e-6 a warning is emitted and the
    scan proceeds (the series is still well defined, its baseline is just
    not zero).
    """
    model = lmap.model
    v = np.asarray(phi, dtype=complex).reshape(-1)
    if v.shape[0] != model.n_sites:
        raise OpmeasError("state length does not match the lattice")
    _require_unit(v, "initial state")
    ts = np.asarray(times, dtype=float).reshape(-1)
    if (ts < 0).any():
        raise GeometryError("leakage times must be nonnegative")
    p0 = float(np.real(v.conj() @ effect_of(lmap.base_pom, d.sites).op @ v))
    if p0 < 1.0 - EPS_INIT:
        warnings.warn(
            f"initial localization probability {p0:.6f} < {1 - EPS_INIT}; "
            "leakage baseline will not be zero",
            stacklevel=2,
        )
    out = np.empty_like(ts)
    for i, t in enumerate(ts):
        grown = inflated_set(d, float(t), model)
        e = effect_of(lmap.base_pom, grown.sites).op
        vt = propagator(model, float(t)) @ v
        out[i] = 1.0 - float(np.real(vt.conj() @ e @ vt))
    return LeakageSeries(times=ts, leakage=out)


@dataclass(frozen=True)
class ChainReport:
    premise_holds: bool
    chain_holds: bool
    residuals: tuple[float, float, float] | None


def strong_causality_chain(
    lmap: LocalizationMap,
    d1: SpatialSet,
    d2: SpatialSet,
    t: float,
    tol: float = TOL_ONE,
) -> ChainReport:
    """Projection chain for a localized state staying inside its light cone.

    Premise: some state is strictly localized in d1 (P1(E_d1) nonzero).
    When it holds, the three inequalities are scored by residuals
    ||P (I - Q)||; a projection inequality P <= Q holds iff that product
    vanishes.  When the premise fails the chain is vacuous and residuals
    are None.  P1 and P0 are the eigenspaces within tol of 1 and 0, the same
    tol that scores the residuals.
    """
    if d1.time_slice != 0:
        raise GeometryError("chain expects d1 on slice 0")
    grown = inflated_set(d1, t, lmap.model)
    if not spacelike_separated(grown, d2, lmap.model):
        raise GeometryError("d2 is not spacelike separated from the inflated d1")
    e1 = effect_for(lmap, d1)
    p1_d1 = spectral_projection(e1, "one", tol)
    if p1_d1.rank == 0:
        return ChainReport(premise_holds=False, chain_holds=True, residuals=None)
    e1_t = evolve_effect(lmap.model, effect_of(lmap.base_pom, grown.sites), t)
    p1_grown = spectral_projection(e1_t, "one", tol)
    e2 = effect_for(lmap, d2)
    p0_d2 = spectral_projection(e2, "zero", tol)
    p1_d2 = spectral_projection(e2, "one", tol)
    eye = np.eye(e1.dim, dtype=complex)
    r1 = op_norm(p1_d1.op @ (eye - p1_grown.op))
    r2 = op_norm(p1_grown.op @ (eye - p0_d2.op))
    r3 = op_norm(p0_d2.op @ p1_d2.op)
    residuals = (r1, r2, r3)
    return ChainReport(
        premise_holds=True,
        chain_holds=max(residuals) <= tol,
        residuals=residuals,
    )


# ---------------------------------------------------------------------------
# combined condition scan


@dataclass(frozen=True)
class ConditionRow:
    condition: str
    holds: bool
    worst_residual: float
    worst_case: str


@dataclass(frozen=True)
class ScanReport:
    label: str
    n_sites: int
    nontrivial_dynamics: bool
    conditions: tuple[ConditionRow, ...]
    max_eigenvalues: tuple[tuple[str, float], ...]
    strongly_unsharp: bool
    unit_window: str | None
    verdict: str
    findings: tuple[str, ...]

    def condition_row(self, name: str) -> ConditionRow:
        for row in self.conditions:
            if row.condition == name:
                return row
        raise KeyError(name)


@dataclass(frozen=True)
class SingletonTable:
    """Conditions read off the single-site effects of a localization map."""

    rows: tuple[ConditionRow, ConditionRow, ConditionRow]  # covariance, strict, weak
    max_eigenvalue: float
    strongly_unsharp: bool
    covariant: bool  # exactly: E_{x+1} is E_x rolled one site along both axes


def singleton_conditions(lmap: LocalizationMap, tol: float = TOL_ONE) -> SingletonTable:
    """Covariance over all shifts, strict and weak localizability over all
    disjoint singleton pairs at slice 0, and the largest singleton eigenvalue.

    The map is strongly unsharp when that eigenvalue stays below 1 - tol.
    The weak row's P1 and P0 are the eigenspaces within tol of 1 and 0.

    When E_{x+1} is E_x rolled one site along both axes, entry for entry,
    covariance is exact: every shift's gap is zero, and no shift is checked.
    Then E_x E_y = T^x (E_0 E_{y-x}) T^-x, and likewise for the weak row's
    projections, so only the pairs ({0}, {d}), d = 1..N-1, are scanned and
    the worst case is such an orbit representative.  The product of a
    permuted pair sums its terms in another order, so a value can differ by
    a few ulps from the one that the full pair scan, which every other map
    takes, would find on the same map.
    """
    n = lmap.model.n_sites
    stack = lmap.base_pom.stack
    cov_worst, cov_case = 0.0, "shift 0"
    # exactly covariant: E_{x+1} is E_x rolled one site along both axes, entry for entry
    covariant = np.array_equal(np.roll(stack, (1, 1), axis=(1, 2)), np.roll(stack, -1, axis=0))
    for a in range(1, 1 if covariant else n):  # no shift has a gap to check when it is
        rep = check_covariance(lmap, a, tol)
        if rep.residual > cov_worst:
            cov_worst, cov_case = rep.residual, f"shift {a}"

    # one stacked decomposition gives every singleton's P1, P0 and largest eigenvalue
    eigs = eig_hermitian(stack)
    p1 = endpoint_projection(eigs, "one", tol)
    not_p0 = np.eye(n, dtype=complex) - endpoint_projection(eigs, "zero", tol)
    rows, cols = np.triu_indices(n, 1)  # an orbit scan takes the first row, pairs (0, d)
    left = 1 if covariant else n

    def case(at: int) -> str:
        return f"sites {{{rows[at]}}},{{{cols[at]}}}" if at >= 0 else "none"

    strict_worst, strict_at = largest_norm(
        pair_bounds(stack[:left], stack, _products), lambda ps: stack[rows[ps]] @ stack[cols[ps]]
    )
    weak_worst, weak_at = largest_norm(
        pair_bounds(p1[:left], not_p0, _products), lambda ps: p1[rows[ps]] @ not_p0[cols[ps]]
    )
    max_eig = float(eigs.eigenvalues[:, -1].max())
    return SingletonTable(
        rows=(
            ConditionRow("covariance", cov_worst <= tol, cov_worst, cov_case),
            ConditionRow("localizability", strict_worst <= tol, strict_worst, case(strict_at)),
            ConditionRow("weak localizability", weak_worst <= tol, weak_worst, case(weak_at)),
        ),
        max_eigenvalue=max_eig,
        strongly_unsharp=max_eig <= 1.0 - tol,
        covariant=covariant,
    )


def _products(a: np.ndarray, block: np.ndarray, out: np.ndarray, _tmp: np.ndarray) -> np.ndarray:
    """a B for every matrix B of block, written into out (``pair_bounds``' product)."""
    return np.matmul(a, block, out=out)


def _scan_windows(n: int) -> list[tuple[int, ...]]:
    widths = sorted({1, 2, 3, max(1, n // 8), max(1, n // 4)})
    return [tuple(range(w)) for w in widths if w < n]


def schlieder_scan(
    lmap: LocalizationMap,
    max_t: int,
    tol: float = TOL_ONE,
    label: str = "",
) -> ScanReport:
    """Tabulate covariance, localizability, commutativity, and unit eigenvalues.

    Scanned family: covariance and localizability as ``singleton_conditions``
    scans them; origin-anchored pairs ({0}@0, {d}@t) for d = 1..N/2,
    t = 0..max_t, restricted to spacelike geometry, for local
    commutativity; contiguous windows of widths {1, 2, 3, N/8, N/4} for
    the per-set maximal eigenvalue, from one stacked decomposition.

    Local commutativity takes one stacked pass per slice t: the singletons
    E_d at the distances spacelike from {0}@0 (as ``spacelike_separated``
    decides) are evolved by one propagator (``heisenberg``; none at t = 0),
    and ``largest_norm`` finds the largest ||[E_0, E_d(t)]||.  Timelike pairs
    are never evolved.  Value and worst case are those of a loop of
    ``check_local_commutativity`` over the pairs, bit for bit.

    The consistency assertion — covariance + weak localizability + local
    commutativity + a unit eigenvalue on a bounded proper subset +
    nontrivial dynamics never hold together — is re-checked on every run;
    a violation is appended to ``findings`` with a full dump.  The dynamics
    count as nontrivial when the scanned evolution moves the base effect:
    ||E_0(t) - E_0|| > tol at some t = 1..max_t, E_0(t) evolved in the
    stack of its slice, until the first t at which it has moved.  Covariance is a premise of the assertion, so E_0
    stands for every singleton.  H itself does not decide it: a nonzero H
    over a time step that rounds exp(-iHt tau) to the identity, or a scan
    with max_t = 0, samples no evolved pair.
    """
    model = lmap.model
    n = model.n_sites
    if max_t < 0:
        raise GeometryError("max_t must be nonnegative")
    if max_t * model.light_speed * model.time_step >= n / 2:
        raise GeometryError(
            f"scan horizon {max_t} reaches around the cycle (need max_t*c*tau < {n / 2})"
        )

    table = singleton_conditions(lmap, tol)
    rows = list(table.rows)

    # local commutativity on spacelike origin-anchored pairs, one slice at a time
    comm_worst, comm_case = 0.0, "none"
    stack = lmap.base_pom.stack
    dists = np.arange(1, n // 2 + 1)
    moved = False  # whether E_0(t) leaves E_0 by more than tol at some scanned t >= 1
    for t in range(0, max_t + 1):
        ds = dists[dists > cone_radius(model, t)]
        probe = t > 0 and not moved  # E_0(t) rides in the slice's stack until it has moved
        evolved = heisenberg(model, stack[np.r_[0, ds] if probe else ds], t)
        if probe:  # largest |entry| <= ||gap|| <= ||gap||_F: an SVD only between the two
            gap, evolved = evolved[:1] - stack[:1], evolved[1:]
            moved = np.abs(gap).max() > tol or (frobenius_norms(gap)[0] > tol and op_norm(gap[0]) > tol)
        if not len(ds):
            continue
        comms = stack[0] @ evolved - evolved @ stack[0]
        worst, at = largest_norm(frobenius_norms(comms), lambda ps: comms[ps])
        if worst > comm_worst:
            comm_worst, comm_case = worst, f"{{0}}@0 vs {{{ds[at]}}}@{t}"
    rows.append(ConditionRow("local commutativity", comm_worst <= tol, comm_worst, comm_case))

    # per-window maximal eigenvalues on bounded proper subsets
    eig_table = []
    unit_window = None
    windows = _scan_windows(n)
    # reshaped, so that a lattice too small for any window (N = 1) gives an empty stack
    ops = np.array([effect_of(lmap.base_pom, window).op for window in windows]).reshape(-1, n, n)
    for window, top in zip(windows, eig_hermitian(ops).eigenvalues[:, -1]):
        desc = f"window[0:{len(window)}]"
        eig_table.append((desc, float(top)))
        if unit_window is None and top > 1.0 - tol:
            unit_window = desc

    by_name = {r.condition: r for r in rows}
    findings: list[str] = []
    if (
        by_name["covariance"].holds
        and by_name["weak localizability"].holds
        and by_name["local commutativity"].holds
        and unit_window is not None
        and moved
    ):
        findings.append(
            "consistency assertion violated: "
            f"label={label!r} n={n} unit eigenvalue on {unit_window} "
            f"(max eig {dict(eig_table)[unit_window]:.12f}) while covariance residual "
            f"{by_name['covariance'].worst_residual:.3e}, weak localizability residual "
            f"{by_name['weak localizability'].worst_residual:.3e}, commutator "
            f"{by_name['local commutativity'].worst_residual:.3e} all within {tol}"
        )

    if table.strongly_unsharp:
        verdict = "strongly_unsharp"
    elif not by_name["local commutativity"].holds:
        verdict = "commutativity_violated"
    elif (
        by_name["covariance"].holds
        and by_name["localizability"].holds
        and by_name["weak localizability"].holds
    ):
        verdict = "sharp_and_localizable"
    else:
        verdict = "mixed"

    return ScanReport(
        label=label,
        n_sites=n,
        nontrivial_dynamics=moved,
        conditions=tuple(rows),
        max_eigenvalues=tuple(eig_table),
        strongly_unsharp=table.strongly_unsharp,
        unit_window=unit_window,
        verdict=verdict,
        findings=tuple(findings),
    )


def builtin_model_family(sizes=(8, 16, 32)) -> list[tuple[str, LocalizationMap]]:
    """The stock sweep: {sharp, smeared, coherent-marginal} x {static, hopping} x sizes."""
    family = []
    for n in sizes:
        fiducial = gaussian_fiducial(n)
        for ham_name, ham in (("static", zero_hamiltonian(n)), ("hopping", hopping_hamiltonian(n))):
            model = make_model(n, hamiltonian=ham)
            family.append((f"sharp/{ham_name}/N={n}", sharp_position_map(model)))
            family.append(
                (
                    f"smeared/{ham_name}/N={n}",
                    smeared_position_map(model, three_point_kernel(n)),
                )
            )
            family.append(
                (f"coherent-marginal/{ham_name}/N={n}", position_marginal(model, fiducial))
            )
    return family
