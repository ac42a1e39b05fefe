"""Translation-covariant localization on a cyclic lattice.

Space is the cyclic group Z_N, so the shift unitary gives *exact*
translation covariance; time is a real parameter driving Heisenberg
evolution under a fixed Hamiltonian.  A ``LocalizationMap`` assigns to
every site set and time slice an effect

    E_Delta(t) = exp(+iHt tau) (sum_{x in Delta} E_x) exp(-iHt tau),

built from a base POM over the sites at slice zero.  Three constructions
are provided — sharp position, kernel-smeared position, and the position
marginal of a discrete Weyl-covariant phase-space POVM — together with
checkers for covariance, spacelike separation, and local commutativity.
Strict and weak localizability are read off the singleton effects by
``causality.singleton_conditions``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from .effects import TOL_ONE, Effect
from .errors import GeometryError, NotHermitianError, OpmeasError
from .linalg import (
    HermitianEigen,
    as_matrix,
    commutator_norm,
    eig_hermitian,
    frobenius_norms,
    hermitize,
    is_hermitian,
    largest_norm,
)
from .povm import Pom, _stack_pom, build_pom, effect_of


def shift_matrix(n: int) -> np.ndarray:
    """Cyclic shift unitary: T|x> = |x+1 mod n>."""
    t = np.zeros((n, n), dtype=complex)
    for x in range(n):
        t[(x + 1) % n, x] = 1.0
    return t


def hopping_hamiltonian(n: int) -> np.ndarray:
    """Nearest-neighbour hopping, H = -(T + T†)/2.

    Eigenvalues -cos(2 pi k / n), so the group velocity |dE/dk| is at most
    one site per unit time; with light_speed 1 the model's light cones
    are physically meaningful.
    """
    t = shift_matrix(n)
    return hermitize(-(t + t.conj().T) / 2.0)


def zero_hamiltonian(n: int) -> np.ndarray:
    return np.zeros((n, n), dtype=complex)


@dataclass(frozen=True)
class LatticeModel:
    """Cyclic lattice Z_N with a Hermitian Hamiltonian (checked here, so
    ``propagator`` can trust it) and light-cone geometry.  Translation is
    the cyclic shift ``shift_matrix(n_sites)``."""

    n_sites: int
    hamiltonian: np.ndarray
    light_speed: float
    time_step: float

    def __post_init__(self):
        h = np.array(as_matrix(self.hamiltonian))
        if not is_hermitian(h):
            raise NotHermitianError("Hamiltonian must be Hermitian")
        h.setflags(write=False)
        object.__setattr__(self, "hamiltonian", h)

    @cached_property
    def spectrum(self) -> HermitianEigen:
        """Eigendecomposition of H, computed on first use; the frozen model makes it read-only."""
        return eig_hermitian(self.hamiltonian)


def make_model(
    n_sites: int,
    hamiltonian: np.ndarray | None = None,
    light_speed: float = 1.0,
    time_step: float = 1.0,
) -> LatticeModel:
    """Validated model; the Hamiltonian defaults to nearest-neighbour hopping."""
    if n_sites < 2:
        raise OpmeasError("need at least two sites")
    if light_speed <= 0 or time_step <= 0:
        raise OpmeasError("light_speed and time_step must be positive")
    h = hopping_hamiltonian(n_sites) if hamiltonian is None else as_matrix(hamiltonian)
    if h.shape[0] != n_sites:
        raise OpmeasError(f"Hamiltonian dim {h.shape[0]} != n_sites {n_sites}")
    return LatticeModel(
        n_sites=n_sites,
        hamiltonian=h,
        light_speed=light_speed,
        time_step=time_step,
    )


def cyclic_distance(n: int, x: int, y: int) -> int:
    d = abs(x % n - y % n)
    return min(d, n - d)


@dataclass(frozen=True)
class SpatialSet:
    """Subset of Z_N pinned to an integer time slice."""

    sites: frozenset[int]
    time_slice: int = 0

    def __init__(self, sites: Iterable[int], time_slice: int = 0):
        object.__setattr__(self, "sites", frozenset(int(x) for x in sites))
        object.__setattr__(self, "time_slice", int(time_slice))


def _check_sites(model: LatticeModel, d: SpatialSet) -> None:
    if not d.sites:
        raise GeometryError("spatial set is empty")
    bad = [x for x in d.sites if not (0 <= x < model.n_sites)]
    if bad:
        raise GeometryError(f"sites {bad} outside Z_{model.n_sites}")


def set_distance(n: int, a: Iterable[int], b: Iterable[int]) -> int:
    return min(cyclic_distance(n, x, y) for x in a for y in b)


def spacelike_separated(d1: SpatialSet, d2: SpatialSet, model: LatticeModel) -> bool:
    """Minimum cyclic distance strictly exceeds c * tau * |t1 - t2|."""
    _check_sites(model, d1)
    _check_sites(model, d2)
    dist = set_distance(model.n_sites, d1.sites, d2.sites)
    dt = abs(d1.time_slice - d2.time_slice)
    return dist > model.light_speed * model.time_step * dt


@dataclass(frozen=True)
class LocalizationMap:
    """Base POM over sites at slice zero plus the model that evolves it."""

    base_pom: Pom
    model: LatticeModel

    def __post_init__(self):
        if self.base_pom.dim != self.model.n_sites:
            raise OpmeasError("base POM dimension must equal n_sites")
        if self.base_pom.outcomes != tuple(range(self.model.n_sites)):
            raise OpmeasError("base POM outcomes must be the sites 0..N-1")


def propagator(model: LatticeModel, t: float) -> np.ndarray:
    """exp(-i H t tau) from the model's cached spectrum of H."""
    eig = model.spectrum
    phases = np.exp(-1j * eig.eigenvalues * (t * model.time_step))
    return (eig.eigenvectors * phases) @ eig.eigenvectors.conj().T


def evolve_effect(model: LatticeModel, e: Effect, t: float) -> Effect:
    """Heisenberg evolution U(t)† E U(t), U(t) = exp(-iHt tau); E itself at t = 0."""
    if t == 0:
        return e
    u = propagator(model, t)
    return Effect(op=hermitize(u.conj().T @ e.op @ u))


def effect_for(lmap: LocalizationMap, d: SpatialSet) -> Effect:
    """Heisenberg effect of a spatial set at its time slice."""
    _check_sites(lmap.model, d)
    return evolve_effect(lmap.model, effect_of(lmap.base_pom, d.sites), d.time_slice)


# ---------------------------------------------------------------------------
# constructions


def sharp_position_map(model: LatticeModel) -> LocalizationMap:
    """E_x = |x><x|: sharp, normalized, exactly shift-covariant; the
    smeared map of the point kernel."""
    return smeared_position_map(model, np.eye(model.n_sites)[0])


def smeared_position_map(model: LatticeModel, kernel) -> LocalizationMap:
    """Convolve the sharp map with a probability kernel on Z_N.

    E_x = sum_y kernel[(x - y) mod N] |y><y|.  All effects are diagonal, so
    the map is commutative; it is shift-covariant because the construction
    is convolutional; and whenever the kernel has two or more nonzero
    entries, every singleton effect has maximal eigenvalue
    max(kernel) < 1, i.e. the map is strongly unsharp.
    """
    n = model.n_sites
    k = np.asarray(kernel, dtype=float).reshape(-1)
    if k.shape[0] != n:
        raise OpmeasError(f"kernel length {k.shape[0]} != n_sites {n}")
    if (k < 0).any():
        raise OpmeasError("kernel entries must be nonnegative")
    if abs(k.sum() - 1.0) > 1e-12:
        raise OpmeasError(f"kernel must sum to 1, got {k.sum()!r}")
    effects = []
    for x in range(n):
        diag = np.array([k[(x - y) % n] for y in range(n)], dtype=complex)
        effects.append(np.diag(diag))
    return LocalizationMap(base_pom=build_pom(effects, require_normalized=True), model=model)


def three_point_kernel(n: int, center: float = 0.5, side: float = 0.25) -> np.ndarray:
    """Kernel with weight at offsets -1, 0, +1 and zeros elsewhere."""
    if n < 3:
        raise OpmeasError("three-point kernel needs n >= 3")
    if abs(center + 2 * side - 1.0) > 1e-12:
        raise OpmeasError("center + 2*side must equal 1")
    k = np.zeros(n)
    k[0] = center
    k[1] = side
    k[-1] = side
    return k


def gaussian_fiducial(n: int, width: float | None = None) -> np.ndarray:
    """Periodic discrete Gaussian centred at site 0, unit norm.

    Width defaults to n/8.  Amplitudes fall off with cyclic distance, so
    the vector wraps smoothly.
    """
    sigma = n / 8.0 if width is None else float(width)
    if sigma <= 0:
        raise OpmeasError("width must be positive")
    amp = np.array(
        [math.exp(-cyclic_distance(n, x, 0) ** 2 / (4.0 * sigma**2)) for x in range(n)]
    )
    v = amp.astype(complex)
    return v / np.linalg.norm(v)


def coherent_state_povm(model: LatticeModel, fiducial) -> Pom:
    """Discrete Weyl orbit POVM on phase space Z_N x Z_N.

    G(q, p) = (1/N) |eta_qp><eta_qp| with eta_qp = X^q Z^p eta, where X is
    the cyclic shift and Z the modulation Z|x> = exp(2 pi i x / N)|x>.
    The orbit resolves the identity, so the result is a normalized POM
    with N^2 rank-one effects, generically noncommutative.
    """
    n = model.n_sites
    eta = np.asarray(fiducial, dtype=complex).reshape(-1)
    if eta.shape[0] != n:
        raise OpmeasError(f"fiducial length {eta.shape[0]} != n_sites {n}")
    if abs(np.linalg.norm(eta) - 1.0) > 1e-10:
        raise OpmeasError("fiducial must be a unit vector")
    omega = np.exp(2j * np.pi * np.arange(n) / n)
    # one power per p: a broadcast omega**p rounds differently
    mods = np.array([(omega**p) * eta for p in range(n)])  # row p is Z^p eta
    sites = np.arange(n)
    # X^q: amplitude at x comes from x - q; row q * n + p is X^q Z^p eta
    vecs = mods[:, (sites[np.newaxis] - sites[:, np.newaxis]) % n].swapaxes(0, 1).reshape(n * n, n)
    stack = np.multiply(vecs[:, :, np.newaxis], vecs.conj()[:, np.newaxis])
    stack /= n
    stack.setflags(write=False)
    outcomes = [(q, p) for q in range(n) for p in range(n)]
    return _stack_pom(stack, require_normalized=True, outcomes=outcomes)


def position_marginal(povm: Pom, model: LatticeModel) -> LocalizationMap:
    """Collapse a phase-space POM to its position coordinate.

    E_q = sum_p G(q, p); the outcome grid must be exactly
    {(q, p) : q, p in Z_N}.  For Weyl-orbit POVMs the marginal is diagonal
    in the position basis, hence commutative.
    """
    n = model.n_sites
    expected = {(q, p) for q in range(n) for p in range(n)}
    if set(povm.outcomes) != expected:
        raise OpmeasError("outcome grid is not Z_N x Z_N for this model")
    effects = [effect_of(povm, {(q, p) for p in range(n)}).op for q in range(n)]
    return LocalizationMap(
        base_pom=build_pom(effects, require_normalized=povm.normalized),
        model=model,
    )


# ---------------------------------------------------------------------------
# condition checkers


class CovarianceReport(NamedTuple):
    holds: bool
    residual: float


def check_covariance(lmap: LocalizationMap, a: int, tol: float = 1e-12) -> CovarianceReport:
    """Conjugation by the a-fold shift versus relabelling by a.

    residual = max over sites x of || T^a E_x T^-a  -  E_{x+a} ||.  The
    shift permutes the basis, so T^a E T^-a is E rolled by a along both
    axes, entry for entry; the gaps of all sites come from rolling the
    stack, and ``largest_norm`` takes exact norms only of gaps whose
    Frobenius bound could still be the largest.
    """
    stack = lmap.base_pom.stack
    gaps = np.roll(stack, (a, a), axis=(1, 2)) - np.roll(stack, -a, axis=0)
    worst, _ = largest_norm(frobenius_norms(gaps), lambda xs: gaps[xs])
    return CovarianceReport(holds=worst <= tol, residual=worst)


class LocalCommutativityReport(NamedTuple):
    applicable: bool
    holds: bool | None
    commutator: float


def check_local_commutativity(
    lmap: LocalizationMap,
    d1: SpatialSet,
    d2: SpatialSet,
    tol: float = TOL_ONE,
) -> LocalCommutativityReport:
    """Commutator of the Heisenberg-evolved effects for two set/slice pairs.

    Only spacelike-separated pairs carry a verdict; for timelike ones the
    commutator is still reported but holds is None.
    """
    applicable = spacelike_separated(d1, d2, lmap.model)
    c = commutator_norm(effect_for(lmap, d1).op, effect_for(lmap, d2).op)
    return LocalCommutativityReport(
        applicable=applicable,
        holds=(c <= tol) if applicable else None,
        commutator=c,
    )
