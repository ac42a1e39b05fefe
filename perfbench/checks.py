"""Output checks, computed independently of ``opmeas`` with numpy and scipy.

Nothing here compares against stored output.  Every expected value is
either a property the theory fixes (a verdict table, an exact eigenvalue)
or a number recomputed from the generated inputs: closed forms for the
Weyl-orbit commutators, ``scipy.linalg.expm`` for the lattice dynamics,
plain numpy for the injected pair.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.linalg import expm

from workloads import Op, weyl_orbit


class Mismatch(Exception):
    pass


def need(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def close(got: float, want: float, rel: float = 1e-9, abs_: float = 1e-13) -> bool:
    return math.isclose(got, want, rel_tol=rel, abs_tol=abs_)


def check(op: Op, result: dict) -> str | None:
    """The first problem with one operation's output, or None."""
    try:
        CHECKS[op.kind](op.expect, result)
    except Mismatch as exc:
        return str(exc)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return f"unexpected output shape: {type(exc).__name__}: {exc}"
    return None


def _clean_json(result: dict):
    need(result["exc"] is None, f"raised {result['exc']}")
    need(result["rc"] == 0, f"exit code {result['rc']}, stderr {result['stderr']!r}")
    need(result["stderr"] == "", f"unexpected stderr {result['stderr']!r}")
    return json.loads(result["stdout"])


def hopping(n: int) -> np.ndarray:
    t = np.roll(np.eye(n), 1, axis=0)
    return -(t + t.T) / 2.0


def default_horizon(n: int) -> int:
    """Scan horizon of causality-scan without --t-max, for light speed and time step 1."""
    return max(1, min(4, n // 2 - 1))


# ---------------------------------------------------------------------------
# ensembles


def check_ensembles(expect: dict, result: dict) -> None:
    doc = _clean_json(result)
    trials, tol = expect["trials"], expect["tol"]
    need(doc["findings"] == [], f"findings {doc['findings']}")
    need(doc["summary"] == {"trials": trials, "counterexamples": 0, "prop1_equivalent": trials,
                            "objectivity_agree": trials, "objectivity_link_holds": trials},
         f"summary {doc['summary']}")
    rows = doc["rows"]
    need(len(rows) == trials, f"{len(rows)} rows, expected {trials}")
    for i, row in enumerate(rows):
        need(row["seed"] == expect["seed"] and 2 <= row["dim"] <= 6, f"row {i}: {row}")
        agree = (row["max_commutator"] <= tol) == (row["deviation"] <= tol)
        need(row["equivalent"] == agree and agree, f"row {i} equivalence: {row}")


# ---------------------------------------------------------------------------
# family-sweep

FAMILY_VERDICTS = {
    "sharp/static": "sharp_and_localizable",
    "sharp/hopping": "commutativity_violated",
    "smeared/static": "strongly_unsharp",
    "smeared/hopping": "strongly_unsharp",
    "coherent-marginal/static": "strongly_unsharp",
    "coherent-marginal/hopping": "strongly_unsharp",
}


def sharp_local_commutator(h: np.ndarray, horizon: int) -> float:
    """max ||[|0><0|, U(t)+ |d><d| U(t)]|| over spacelike d > t, t = 0..horizon."""
    n = h.shape[0]
    p0 = np.zeros((n, n), dtype=complex)
    p0[0, 0] = 1.0
    worst = 0.0
    for t in range(horizon + 1):
        u = expm(-1j * h * t)
        for d in range(t + 1, n // 2 + 1):
            w = u.conj().T[:, d]
            q = np.outer(w, w.conj())
            worst = max(worst, np.linalg.norm(p0 @ q - q @ p0, 2))
    return worst


def check_family(expect: dict, result: dict) -> None:
    doc = _clean_json(result)
    need(doc["findings"] == [], f"findings {doc['findings']}")
    want = {f"{kind}/N={n}": verdict for n in expect["sizes"]
            for kind, verdict in FAMILY_VERDICTS.items()}
    need(doc["verdicts"] == want, f"verdicts {doc['verdicts']}")
    rows = {(r["label"], r["section"], r["item"]): r["value"] for r in doc["rows"]}
    for n in expect["sizes"]:
        for ham, h in (("static", np.zeros((n, n))), ("hopping", hopping(n))):
            top = rows[(f"smeared/{ham}/N={n}", "max_eigenvalue", "window[0:1]")]
            need(top == 0.5, f"smeared/{ham}/N={n} singleton max eigenvalue {top!r} != 0.5")
            label = f"sharp/{ham}/N={n}"
            got = rows[(label, "condition", "local commutativity")]
            want_c = sharp_local_commutator(h, default_horizon(n))
            need(close(got, want_c), f"{label} local commutativity {got!r} != {want_c!r}")


# ---------------------------------------------------------------------------
# phase-space


def weyl_commutator_max(eta: np.ndarray) -> float:
    """max over a != b of ||[G_a, G_b]|| for G = |a><a|/N on the Weyl orbit of eta.

    For unit vectors ||[|a><a|, |b><b|]|| = |<a|b>| sqrt(1 - |<a|b>|^2).
    """
    n = eta.shape[0]
    v = weyl_orbit(eta)
    g = np.abs(v.conj().T @ v)
    np.fill_diagonal(g, 0.0)
    return float((g * np.sqrt(np.clip(1.0 - g * g, 0.0, None))).max() / n**2)


def check_phase_space(expect: dict, result: dict) -> None:
    doc = _clean_json(result)
    n, eta = expect["n"], expect["fiducial"]
    need(doc["n_sites"] == n and doc["construction"] == "coherent", f"header {doc}")
    rows = {r["condition"]: r["value"] for r in doc["rows"]}
    got, want = rows["phase-space commutativity"], weyl_commutator_max(eta)
    need(close(got, want), f"N={n} phase-space commutativity {got!r} != closed form {want!r}")
    need(rows["base commutativity"] <= 1e-10,
         f"N={n} marginal commutator {rows['base commutativity']!r} > 1e-10")
    need(rows["covariance"] == 0.0, f"N={n} covariance residual {rows['covariance']!r} != 0")
    top = float(np.max(np.abs(eta) ** 2))
    need(close(rows["strong unsharpness"], top, rel=1e-12),
         f"N={n} max marginal eigenvalue {rows['strong unsharpness']!r} != max|eta|^2 {top!r}")


# ---------------------------------------------------------------------------
# inputs


def check_effect(expect: dict, result: dict) -> None:
    """Classification from the spectrum, and the report's internal consistency.

    Sharp: ||E - E^2|| <= tol.  Strongly unsharp: no eigenvalue within tol
    of 1.  A sharp report needs rank P1 + rank P0 = dim, and strong
    unsharpness holds exactly when rank P1 = 0.
    """
    doc = _clean_json(result)
    m, tol = expect["matrix"], expect["tol"]
    evals = np.linalg.eigvalsh(m)
    need(np.allclose(doc["eigenvalues"], evals, rtol=0, atol=1e-12),
         f"eigenvalues {doc['eigenvalues']} != {evals.tolist()}")
    sharp = np.linalg.norm(m - m @ m, 2) <= tol
    strongly_unsharp = not np.any(np.abs(evals - 1.0) <= tol)
    label = "sharp" if sharp else "strongly unsharp" if strongly_unsharp else "unsharp"
    need(doc["classification"] == label, f"classification {doc['classification']!r} != {label!r}")
    r1, r0 = doc["rank_p1"], doc["rank_p0"]
    if sharp:
        need(r1 + r0 == m.shape[0],
             f"classification sharp but rank P1 {r1} + rank P0 {r0} != dim {m.shape[0]}")
    need(strongly_unsharp == (r1 == 0),
         f"strongly unsharp is {strongly_unsharp} at tol {tol} but rank P1 is {r1}")


def check_bad_input(expect: dict, result: dict) -> None:
    need(result["exc"] is None, f"raised {result['exc']}")
    need(result["rc"] == 1, f"exit code {result['rc']}, expected 1")
    need(result["stdout"] == "", f"unexpected stdout {result['stdout']!r}")
    lines = result["stderr"].splitlines()
    need(len(lines) == 1, f"{len(lines)} lines on stderr, expected 1")


def check_injected_pair(expect: dict, result: dict) -> None:
    doc = _clean_json(result)
    v, b, tol = expect["vectors"], expect["effect"], expect["tol"]
    n = v.shape[0]
    max_comm, dual = 0.0, np.zeros_like(b)
    for a in v.T:
        e = np.outer(a, a.conj()) / n
        max_comm = max(max_comm, np.linalg.norm(b @ e - e @ b, 2))
        k = e * math.sqrt(n)  # sqrt(|a><a|/n) = |a><a|/sqrt(n)
        dual += k @ b @ k
    deviation = np.linalg.norm(dual - b, 2)
    row = doc["rows"][0]
    need(close(row["max_commutator"], max_comm, rel=1e-8),
         f"max_commutator {row['max_commutator']!r} != {max_comm!r}")
    need(close(row["deviation"], deviation, rel=1e-8),
         f"deviation {row['deviation']!r} != {deviation!r}")
    equivalent = (max_comm <= tol) == (deviation <= tol)
    need(doc["summary"]["equivalent"] == equivalent and doc["findings"] == [],
         f"summary {doc['summary']}, findings {doc['findings']}")


LEAKAGE_VERDICTS = {
    "sharp": "commutativity_violated",
    "smeared": "strongly_unsharp",
    "coherent": "strongly_unsharp",
}


def site_weights(construction: str, n: int, sites: list[int], expect: dict) -> np.ndarray:
    """Diagonal of the summed marginal effects over `sites`, in the position basis."""
    y = np.arange(n)
    if construction == "sharp":
        return np.isin(y, sites).astype(float)
    if construction == "smeared":
        kernel = np.zeros(n)
        kernel[: len(expect["kernel"])] = expect["kernel"]
        return sum(kernel[(x - y) % n] for x in sites)
    density = np.abs(expect["fiducial"]) ** 2
    return sum(density[(y - x) % n] for x in sites)


def check_leakage(expect: dict, result: dict) -> None:
    doc = _clean_json(result)
    n, construction = expect["n"], expect["construction"]
    need(doc["findings"] == [], f"findings {doc['findings']}")
    want = LEAKAGE_VERDICTS[construction]
    need(doc["verdicts"] == {construction: want}, f"verdicts {doc['verdicts']} != {want}")
    series = [(r["item"], r["value"]) for r in doc["rows"] if r["section"] == "leakage"]
    times = [0.5 * k for k in range(2 * default_horizon(n) + 1)]
    need([item for item, _ in series] == [f"t={t!r}" for t in times],
         f"leakage times {[item for item, _ in series]}")
    h = hopping(n)
    for t, (_, got) in zip(times, series):
        phi = expm(-1j * h * t)[:, 0]
        radius = math.floor(t)
        sites = [x for x in range(n) if min(x, n - x) <= radius]
        leak = 1.0 - float(site_weights(construction, n, sites, expect) @ np.abs(phi) ** 2)
        need(abs(got - leak) <= 1e-10, f"{construction} leakage at t={t}: {got!r} != {leak!r}")


CHECKS = {
    "ensembles": check_ensembles,
    "family-sweep": check_family,
    "phase-space": check_phase_space,
    "effect-check": check_effect,
    "bad-input": check_bad_input,
    "injected-pair": check_injected_pair,
    "leakage": check_leakage,
}
