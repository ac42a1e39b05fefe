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

from .effects import Effect
from .errors import NotNormalizedError
from .linalg import (
    as_matrix,
    commutator_norm,
    eig_hermitian,
    hermitize,
    outer,
    psd_sqrt,
    require_same_dim,
)
from .povm import Pom

_EQUIV_TOL = 1e-8


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
    """Normalized source POM together with its Kraus operators sqrt(E_i)."""

    source: Pom
    kraus: tuple[np.ndarray, ...]

    @classmethod
    def from_pom(cls, pom: Pom) -> LudersInstrument:
        if not pom.normalized:
            raise NotNormalizedError("Luders instrument requires a normalized POM")
        ops = []
        for e in pom.effects:
            k = psd_sqrt(e.op)
            k.setflags(write=False)
            ops.append(k)
        return cls(source=pom, kraus=tuple(ops))

    @property
    def dim(self) -> int:
        return self.source.dim


def heisenberg_dual(instr: LudersInstrument, b: Effect) -> Effect:
    """Dual map on effects: B -> Hermitian part of sum sqrt(E_i) B sqrt(E_i).

    The dual of a Luders channel maps effects to effects, so the result is
    wrapped without revalidation.
    """
    require_same_dim(instr.kraus[0], b.op)
    out = np.zeros_like(b.op)
    for k in instr.kraus:
        out = out + k @ b.op @ k
    return Effect(op=hermitize(out))


class NondisturbanceReport(NamedTuple):
    holds: bool
    deviation: float
    witness: State | None


def nondisturbance(instr: LudersInstrument, b: Effect, tol: float = _EQUIV_TOL) -> NondisturbanceReport:
    """Fixed-point test for the Heisenberg dual.

    deviation = ||dual(B) - B||_op.  Since tr[rho (dual(B) - B)] ranges over
    the numerical range of the deviation operator as rho ranges over all
    states, the statistics of B are unchanged for every input state iff the
    deviation vanishes.  The witness is the pure state on the eigenvector
    of the extremal eigenvalue, attaining |tr[rho dual(B)] - tr[rho B]| =
    deviation.
    """
    d = heisenberg_dual(instr, b).op - b.op
    eig = eig_hermitian(hermitize(d))
    lo, hi = eig.eigenvalues[0], eig.eigenvalues[-1]
    deviation = float(max(abs(lo), abs(hi)))
    if deviation <= tol:
        return NondisturbanceReport(holds=True, deviation=deviation, witness=None)
    col = 0 if abs(lo) >= abs(hi) else d.shape[0] - 1
    witness = State(rho=outer(eig.eigenvectors[:, col]))
    return NondisturbanceReport(holds=False, deviation=deviation, witness=witness)


class Prop1Report(NamedTuple):
    case: str
    commute: bool
    nondisturb: bool
    equivalent: bool
    max_commutator: float
    deviation: float


def proposition1_verify(pom: Pom, b: Effect, tol: float = _EQUIV_TOL) -> Prop1Report:
    """Commutativity of B with a POM versus nondisturbance of B by its Luders channel.

    In finite dimension every effect has a discretely ordered spectrum, so
    the ordered-spectrum case applies to any source POM ("alpha"); binary
    POMs additionally fall under the two-outcome case ("both").
    """
    if not pom.normalized:
        raise NotNormalizedError("proposition1_verify requires a normalized POM")
    require_same_dim(b.op, pom.effects[0].op)
    max_comm = max(commutator_norm(b.op, e.op) for e in pom.effects)
    commute = max_comm <= tol
    instr = LudersInstrument.from_pom(pom)
    nd = nondisturbance(instr, b, tol)
    return Prop1Report(
        case="both" if len(pom) == 2 else "alpha",
        commute=commute,
        nondisturb=nd.holds,
        equivalent=commute == nd.holds,
        max_commutator=float(max_comm),
        deviation=nd.deviation,
    )


class ObjectivityReport(NamedTuple):
    ops_commute: bool
    effects_commute: bool
    agree: bool
    max_order_gap: float


def objectivity_check(pom_a: Pom, pom_b: Pom, tol: float = _EQUIV_TOL) -> ObjectivityReport:
    """Do the selective operations of two POMs commute as maps?

    For Kraus operators Ka, Kb the two orders are rho -> X rho X† with
    X = Ka Kb and rho -> Y rho Y† with Y = Kb Ka.  A map rho -> X rho X†
    has the natural representation kron(X, conj(X)), and two maps are
    equal iff those matrices are (Watrous, The Theory of Quantum
    Information, §2.2).  So ``max_order_gap`` is the largest Frobenius norm
    of their difference over all Kraus pairs; it bounds
    ||X rho X† - Y rho Y†|| from above on every pure state.  Compared
    against plain pairwise commutativity of the effects.
    """
    if not (pom_a.normalized and pom_b.normalized):
        raise NotNormalizedError("objectivity_check requires normalized POMs")
    require_same_dim(pom_a.effects[0].op, pom_b.effects[0].op)
    ia = LudersInstrument.from_pom(pom_a)
    ib = LudersInstrument.from_pom(pom_b)
    gap = 0.0
    for ka in ia.kraus:
        for kb in ib.kraus:
            ab = ka @ kb
            ba = kb @ ka
            gap = max(gap, float(np.linalg.norm(np.kron(ab, ab.conj()) - np.kron(ba, ba.conj()))))
    ops_commute = gap <= tol
    max_eff = max(
        commutator_norm(ea.op, eb.op)
        for ea in pom_a.effects
        for eb in pom_b.effects
    )
    effects_commute = max_eff <= tol
    return ObjectivityReport(
        ops_commute=ops_commute,
        effects_commute=effects_commute,
        agree=ops_commute == effects_commute,
        max_order_gap=gap,
    )


class CausalityCReport(NamedTuple):
    a_disturbs_b: bool
    b_disturbs_a: bool


def causality_check_C(pom_a: Pom, pom_b: Pom, tol: float = _EQUIV_TOL) -> CausalityCReport:
    """Mutual statistics disturbance between two normalized POMs.

    A disturbs B when some effect of B fails the fixed-point test under
    A's Luders channel.  Neither direction is disturbed exactly when all
    cross-pairs of effects commute.
    """
    ia = LudersInstrument.from_pom(pom_a)
    ib = LudersInstrument.from_pom(pom_b)
    a_disturbs = any(not nondisturbance(ia, f, tol).holds for f in pom_b.effects)
    b_disturbs = any(not nondisturbance(ib, e, tol).holds for e in pom_a.effects)
    return CausalityCReport(a_disturbs_b=a_disturbs, b_disturbs_a=b_disturbs)
