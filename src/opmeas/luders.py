"""Lüders instruments and the three operational equivalences.

Central object: the Lüders instrument of a normalized POM, with Kraus
operators sqrt(E_i), selective operations rho -> sqrt(E_i) rho sqrt(E_i)
and their trace-preserving sum.  Everything here works in the Heisenberg
picture or on the Kraus operators themselves.  On top of it sit three
checkers:

* ``nondisturbance`` — measuring A nonselectively leaves the statistics of
  an effect B unchanged for *every* input state iff B is a fixed point of
  the Heisenberg dual of the channel, so the "for all rho" quantifier
  collapses to a single operator identity.
* ``proposition1_verify`` — nondisturbance against commutativity of B with
  the POM's effects.
* ``objectivity_check`` / ``causality_check_C`` — commutation of selective
  operations for two POMs, and mutual nondisturbance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .effects import TOL_ONE, Effect
from .errors import NotNormalizedError
from .linalg import (
    BLOCK_ENTRIES,
    as_matrix,
    eig_hermitian,
    hermitize,
    op_norms,
    outer,
    psd_sqrt,
    require_same_dim,
)
from .povm import Pom


@dataclass(frozen=True)
class State:
    """Density matrix: Hermitian, PSD, unit trace."""

    rho: np.ndarray

    def __post_init__(self):
        a = np.array(as_matrix(self.rho))
        a.setflags(write=False)
        object.__setattr__(self, "rho", a)

    @property
    def dim(self) -> int:
        return self.rho.shape[0]


@dataclass(frozen=True)
class LudersInstrument:
    """Normalized source POM with its Kraus operators sqrt(E_i), one read-only stack."""

    source: Pom
    kraus: np.ndarray

    @classmethod
    def from_pom(cls, pom: Pom) -> LudersInstrument:
        if not pom.normalized:
            raise NotNormalizedError("Luders instrument requires a normalized POM")
        kraus = psd_sqrt(pom.stack)
        kraus.setflags(write=False)
        return cls(source=pom, kraus=kraus)

    @property
    def dim(self) -> int:
        return self.source.dim


def heisenberg_dual(instr: LudersInstrument, b: Effect) -> Effect:
    """Dual map on effects: B -> Hermitian part of sum sqrt(E_i) B sqrt(E_i).

    ``Effect`` coerces the result, but its spectrum is not checked again:
    the dual of a Luders channel maps effects to effects.
    """
    require_same_dim(instr.kraus[0], b.op)
    return Effect(op=_duals(instr.kraus, b.op[np.newaxis])[0])


def _duals(kraus: np.ndarray, effects: np.ndarray) -> np.ndarray:
    """Hermitian part of sum_i K_i B K_i for each B of a (M, d, d) stack,
    from one broadcast product over the (K, d, d) Kraus stack."""
    k = kraus[:, np.newaxis]
    return hermitize((k @ effects @ k).sum(axis=0))


def _deviations(evals: np.ndarray) -> np.ndarray:
    """||D|| of each Hermitian D from its ascending eigenvalues: the larger of
    |lowest| and |highest|."""
    return np.maximum(abs(evals[..., 0]), abs(evals[..., -1]))


class NondisturbanceReport(NamedTuple):
    holds: bool
    deviation: float
    witness: State | None


def nondisturbance(instr: LudersInstrument, b: Effect, tol: float = TOL_ONE) -> NondisturbanceReport:
    """Fixed-point test for the Heisenberg dual.

    deviation = ||dual(B) - B||_op.  Since tr[rho (dual(B) - B)] ranges over
    the numerical range of the deviation operator as rho ranges over all
    states, the statistics of B are unchanged for every input state iff the
    deviation vanishes.  The witness is the pure state on the eigenvector
    of the extremal eigenvalue, attaining |tr[rho dual(B)] - tr[rho B]| =
    deviation.
    """
    eig = eig_hermitian(heisenberg_dual(instr, b).op - b.op)
    deviation = float(_deviations(eig.eigenvalues))
    if deviation <= tol:
        return NondisturbanceReport(holds=True, deviation=deviation, witness=None)
    col = 0 if abs(eig.eigenvalues[0]) == deviation else -1
    witness = State(rho=outer(eig.eigenvectors[:, col]))
    return NondisturbanceReport(holds=False, deviation=deviation, witness=witness)


class Prop1Report(NamedTuple):
    case: str
    commute: bool
    nondisturb: bool
    equivalent: bool
    max_commutator: float
    deviation: float


def proposition1_verify(pom: Pom, b: Effect, tol: float = TOL_ONE) -> Prop1Report:
    """Commutativity of B with a POM versus nondisturbance of B by its Luders channel.

    In finite dimension every effect has a discretely ordered spectrum, so
    the ordered-spectrum case applies to any source POM ("alpha"); binary
    POMs additionally fall under the two-outcome case ("both").
    """
    if not pom.normalized:
        raise NotNormalizedError("proposition1_verify requires a normalized POM")
    require_same_dim(b.op, pom.stack[0])
    max_comm = float(op_norms(b.op @ pom.stack - pom.stack @ b.op).max())
    commute = max_comm <= tol
    nd = nondisturbance(LudersInstrument.from_pom(pom), b, tol)
    return Prop1Report(
        case="both" if len(pom) == 2 else "alpha",
        commute=commute,
        nondisturb=nd.holds,
        equivalent=commute == nd.holds,
        max_commutator=max_comm,
        deviation=nd.deviation,
    )


class ObjectivityReport(NamedTuple):
    ops_commute: bool
    effects_commute: bool
    agree: bool
    max_order_gap: float


def objectivity_check(pom_a: Pom, pom_b: Pom, tol: float = TOL_ONE) -> ObjectivityReport:
    """Do the selective operations of two POMs commute as maps?

    For Kraus operators Ka, Kb the two orders are rho -> X rho X† with
    X = Ka Kb and rho -> Y rho Y† with Y = Kb Ka.  A map rho -> X rho X†
    has the natural representation kron(X, conj(X)), and two maps are
    equal iff those matrices are (Watrous, The Theory of Quantum
    Information, §2.2).  So ``max_order_gap`` is the largest Frobenius norm
    of their difference over all Kraus pairs; it bounds
    ||X rho X† - Y rho Y†|| from above on every pure state.  The natural
    representations of all pairs are formed in blocks of at most
    ``BLOCK_ENTRIES`` entries (or one pair), so memory stays at what one
    ``kron`` takes.  Compared against plain pairwise commutativity of the
    effects, from one ``op_norms`` call over all their commutators.
    """
    if not (pom_a.normalized and pom_b.normalized):
        raise NotNormalizedError("objectivity_check requires normalized POMs")
    require_same_dim(pom_a.stack[0], pom_b.stack[0])
    d = pom_a.dim
    ka = LudersInstrument.from_pom(pom_a).kraus[:, np.newaxis]
    kb = LudersInstrument.from_pom(pom_b).kraus[np.newaxis]
    ab, ba = (ka @ kb).reshape(-1, d, d), (kb @ ka).reshape(-1, d, d)
    step = max(1, BLOCK_ENTRIES // d**4)
    gap = 0.0
    for s in range(0, len(ab), step):
        diff = _natural(ab[s : s + step]) - _natural(ba[s : s + step])
        gap = max(gap, float(np.linalg.norm(diff, axis=(1, 2)).max()))
    ops_commute = gap <= tol
    ea, eb = pom_a.stack[:, np.newaxis], pom_b.stack[np.newaxis]
    effects_commute = bool(op_norms((ea @ eb - eb @ ea).reshape(-1, d, d)).max() <= tol)
    return ObjectivityReport(
        ops_commute=ops_commute,
        effects_commute=effects_commute,
        agree=ops_commute == effects_commute,
        max_order_gap=gap,
    )


def _natural(x: np.ndarray) -> np.ndarray:
    """kron(X, conj X) of each matrix of a (P, d, d) stack, entry by entry the
    product that ``np.kron`` forms (``einsum`` rounds some apart)."""
    p, d, _ = x.shape
    return (x[:, :, None, :, None] * x.conj()[:, None, :, None, :]).reshape(p, d * d, d * d)


class CausalityCReport(NamedTuple):
    a_disturbs_b: bool
    b_disturbs_a: bool


def causality_check_C(pom_a: Pom, pom_b: Pom, tol: float = TOL_ONE) -> CausalityCReport:
    """Mutual statistics disturbance between two normalized POMs.

    A disturbs B when some effect of B fails the fixed-point test under
    A's Luders channel.  Neither direction is disturbed exactly when all
    cross-pairs of effects commute.
    """
    require_same_dim(pom_a.stack[0], pom_b.stack[0])
    a_disturbs = _disturbs(LudersInstrument.from_pom(pom_a), pom_b.stack, tol)
    b_disturbs = _disturbs(LudersInstrument.from_pom(pom_b), pom_a.stack, tol)
    return CausalityCReport(a_disturbs_b=a_disturbs, b_disturbs_a=b_disturbs)


def _disturbs(instr: LudersInstrument, effects: np.ndarray, tol: float) -> bool:
    """Whether some effect of a (M, d, d) stack fails ``nondisturbance``
    under instr.  The deviations of all effects come from stacked products
    and one stacked ``eig_hermitian`` per block of at most ``BLOCK_ENTRIES``
    product entries (or one effect), each equal to ``nondisturbance``'s
    deviation bit for bit."""
    step = max(1, BLOCK_ENTRIES // instr.kraus.size)
    for s in range(0, len(effects), step):
        block = effects[s : s + step]
        evals = eig_hermitian(_duals(instr.kraus, block) - block).eigenvalues
        if not (_deviations(evals) <= tol).all():
            return True
    return False
