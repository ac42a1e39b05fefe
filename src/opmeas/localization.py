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
The marginal is a smeared map in closed form, and
``phase_space_commutativity`` finds the POVM's largest commutator in closed
form; neither builds the POVM's N^2 effects.  Strict and weak
localizability are read off the singleton effects by
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
    TOL_EIG,
    HermitianEigen,
    _sum_squares,
    as_matrix,
    commutator_norm,
    dagger,
    eig_hermitian,
    frobenius_norms,
    hermitize,
    is_hermitian,
    largest_norm,
    spectral_map,
)
from .povm import CommutativityReport, Pom, _stack_pom, effect_of


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
    return dist > cone_radius(model, abs(d1.time_slice - d2.time_slice))


def cone_radius(model: LatticeModel, dt: float) -> float:
    """c * tau * dt: sets at time separation dt (in time steps) are spacelike
    when their distance strictly exceeds it."""
    return model.light_speed * model.time_step * dt


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
    return spectral_map(eig.eigenvectors, np.exp(-1j * eig.eigenvalues * (t * model.time_step)))


def heisenberg(model: LatticeModel, ops: np.ndarray, t: float) -> np.ndarray:
    """Hermitian part of U(t)† X U(t), U(t) = exp(-iHt tau), for one operator
    or for each of a (K, d, d) stack from one propagator; ops itself at t = 0.

    A stack's per-matrix results equal the one-matrix calls bit for bit.
    """
    if t == 0:
        return ops
    u = propagator(model, t)
    return hermitize(dagger(u) @ ops @ u)


def evolve_effect(model: LatticeModel, e: Effect, t: float) -> Effect:
    """Heisenberg evolution of an effect (``heisenberg``); E itself at t = 0."""
    return e if t == 0 else Effect(op=heisenberg(model, e.op, t))


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
    entries, every singleton effect has maximal eigenvalue max(kernel) < 1,
    i.e. the map is strongly unsharp.  The kernel sums to 1 within TOL_EIG.
    """
    n = model.n_sites
    k = np.asarray(kernel, dtype=float).reshape(-1)
    if k.shape[0] != n:
        raise OpmeasError(f"kernel length {k.shape[0]} != n_sites {n}")
    if (k < 0).any():
        raise OpmeasError("kernel entries must be nonnegative")
    if abs(k.sum() - 1.0) > TOL_EIG:
        raise OpmeasError(f"kernel must sum to 1, got {float(k.sum())!r}")
    sites = np.arange(n)
    stack = np.zeros((n, n, n), dtype=complex)
    stack[:, sites, sites] = k[(sites[:, np.newaxis] - sites) % n]  # row x: k[(x - y) mod N]
    stack.setflags(write=False)
    return LocalizationMap(base_pom=_stack_pom(stack, require_normalized=True), model=model)


def three_point_kernel(n: int) -> np.ndarray:
    """Kernel with weight 1/2 at offset 0, 1/4 at offsets -1 and +1, and zeros elsewhere."""
    if n < 3:
        raise OpmeasError("three-point kernel needs n >= 3")
    k = np.zeros(n)
    k[0] = 0.5
    k[1] = 0.25
    k[-1] = 0.25
    return k


def gaussian_fiducial(n: int) -> np.ndarray:
    """Periodic discrete Gaussian of width n/8 centred at site 0, unit norm.

    Amplitudes fall off with cyclic distance, so the vector wraps smoothly.
    """
    sigma = n / 8.0
    amp = np.array(
        [math.exp(-cyclic_distance(n, x, 0) ** 2 / (4.0 * sigma**2)) for x in range(n)]
    )
    v = amp.astype(complex)
    return v / np.linalg.norm(v)


def _require_unit(v: np.ndarray, what: str) -> np.ndarray:
    """v, checked for ||v||^2 = 1 within TOL_EIG, the normalization tolerance
    of a POM; the error names it as ``what``."""
    if abs(float(np.sum(np.abs(v) ** 2)) - 1.0) > TOL_EIG:
        raise OpmeasError(f"{what} must be a unit vector")
    return v


def _unit_fiducial(model: LatticeModel, fiducial) -> np.ndarray:
    """The fiducial as a complex n_sites-vector, checked for ||eta||^2 = 1 within TOL_EIG."""
    n = model.n_sites
    eta = np.asarray(fiducial, dtype=complex).reshape(-1)
    if eta.shape[0] != n:
        raise OpmeasError(f"fiducial length {eta.shape[0]} != n_sites {n}")
    return _require_unit(eta, "fiducial")


def _weyl_orbit(eta: np.ndarray) -> np.ndarray:
    """The (N^2, N) Weyl orbit vectors X^q Z^p eta of ``coherent_state_povm``,
    row q * N + p; row 0 is eta itself."""
    n = eta.shape[0]
    omega = np.exp(2j * np.pi * np.arange(n) / n)
    # one power per p: a broadcast omega**p rounds differently
    mods = np.array([(omega**p) * eta for p in range(n)])  # row p is Z^p eta
    sites = np.arange(n)
    # X^q: amplitude at x comes from x - q
    return mods[:, (sites[np.newaxis] - sites[:, np.newaxis]) % n].swapaxes(0, 1).reshape(n * n, n)


def coherent_state_povm(model: LatticeModel, fiducial) -> Pom:
    """Discrete Weyl orbit POVM on phase space Z_N x Z_N.

    G(q, p) = (1/N) |eta_qp><eta_qp| with eta_qp = X^q Z^p eta, where X is
    the cyclic shift and Z the modulation Z|x> = exp(2 pi i x / N)|x>.
    The orbit resolves the identity, so the result is a normalized POM
    with N^2 rank-one effects, generically noncommutative.
    """
    n = model.n_sites
    vecs = _weyl_orbit(_unit_fiducial(model, fiducial))
    stack = np.multiply(vecs[:, :, np.newaxis], vecs.conj()[:, np.newaxis])
    stack /= n
    stack.setflags(write=False)
    outcomes = [(q, p) for q in range(n) for p in range(n)]
    return _stack_pom(stack, require_normalized=True, outcomes=outcomes)


def phase_space_commutativity(
    model: LatticeModel, fiducial, tol: float = TOL_ONE
) -> CommutativityReport:
    """``is_commutative(coherent_state_povm(model, fiducial), tol)`` in closed
    form, without building the POVM.

    The Weyl operators W_a = X^q Z^p compose up to a phase, so conjugating by
    W_a^-1 carries the pair (G_a, G_b) to (G_0, G_c) for some c != 0 and
    keeps its commutator norm: the largest one is among the pairs against
    the origin (0, 0).  Each effect is rank one, so with g_b = <eta|eta_b>

        ||[G_0, G_b]|| = |g_b| ||eta|| ||eta_b - (g_b / ||eta||^2) eta|| / N^2.

    The component of eta_b orthogonal to eta is formed as a vector, not as
    sqrt(1 - |g_b|^2), which cancels to rounding noise as |g_b| tends to 1.
    The worst pair is ((0, 0), b) for the first b, in the POVM's outcome
    order, that attains the maximum.  Memory: the (N^2, N) orbit vectors and
    one array of their size.
    """
    n = model.n_sites
    vecs = _weyl_orbit(_unit_fiducial(model, fiducial))
    eta = vecs[0]
    length = np.einsum("d,d->", eta.conj(), eta).real  # ||eta||^2
    # einsum, not a matrix product: with a matrix product the threaded BLAS's
    # idle threads spin through the rest of the run and double its CPU time
    overlaps = np.einsum("d,bd->b", eta.conj(), vecs[1:])
    perp = vecs[1:] - (overlaps / length)[:, np.newaxis] * eta
    norms = np.abs(overlaps) * np.sqrt(length) * np.sqrt(_sum_squares(perp)) / n**2
    at = int(np.argmax(norms))
    worst = float(norms[at])
    commutative = worst <= tol
    return CommutativityReport(
        commutative=commutative,
        max_commutator=worst,
        worst_pair=None if commutative else ((0, 0), divmod(at + 1, n)),
    )


def position_marginal(model: LatticeModel, fiducial) -> LocalizationMap:
    """Position marginal of ``coherent_state_povm(model, fiducial)``, in
    closed form, without building the POVM.

    sum_p Z^p |eta><eta| Z^-p = N diag(|eta|^2), so E_q = sum_p G(q, p) =
    diag(|eta(x - q)|^2): the smeared map with kernel k[j] = |eta(-j)|^2.
    It is diagonal, hence commutative, and exactly shift-covariant.
    """
    n = model.n_sites
    eta = _unit_fiducial(model, fiducial)
    return smeared_position_map(model, np.abs(eta[-np.arange(n) % n]) ** 2)


# ---------------------------------------------------------------------------
# condition checkers


class CovarianceReport(NamedTuple):
    holds: bool
    residual: float


def check_covariance(lmap: LocalizationMap, a: int, tol: float = TOL_ONE) -> CovarianceReport:
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
