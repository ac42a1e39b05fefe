"""Command-line interface: exit codes, formats, determinism."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from opmeas.causality import schlieder_scan, singleton_conditions
from opmeas import povm as povm_module
from opmeas.cli import build_parser, main
from opmeas.effects import validate_effect
from opmeas.localization import gaussian_fiducial
from opmeas.povm import build_pom, is_commutative
from opmeas.serialize import (
    build_construction,
    effect_to_json,
    matrix_to_json,
    model_config_from_json,
    pom_to_json,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
I2 = np.eye(2, dtype=complex)


@pytest.fixture
def effect_file(tmp_path):
    def write(matrix, name="effect.json"):
        path = tmp_path / name
        path.write_text(json.dumps(effect_to_json(validate_effect(np.asarray(matrix, dtype=complex)))))
        return str(path)

    return write


@pytest.fixture
def pom_file(tmp_path):
    def write(effects, name="pom.json"):
        pom = build_pom([np.asarray(e, dtype=complex) for e in effects], require_normalized=True)
        path = tmp_path / name
        path.write_text(json.dumps(pom_to_json(pom)))
        return str(path)

    return write


def test_effect_check_classifies(effect_file, capsys):
    path = effect_file(np.diag([1.0, 0.0]))
    assert main(["effect-check", "--effect", path]) == 0
    out = capsys.readouterr().out
    assert "sharp" in out

    blurred = effect_file(np.diag([0.9, 0.1]), "blurred.json")
    assert main(["effect-check", "--effect", blurred]) == 0
    assert "strongly unsharp" in capsys.readouterr().out


def test_effect_check_json_format(effect_file, capsys):
    path = effect_file(np.diag([0.9, 0.1]))
    assert main(["effect-check", "--effect", path, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["classification"] == "strongly unsharp"
    assert payload["eigenvalues"] == [0.1, 0.9]
    assert payload["rank_p1"] == 0


def test_effect_check_ranks_follow_tol(effect_file, capsys):
    path = effect_file(np.diag([0.9995, 0.0]))
    assert main(["effect-check", "--effect", path, "--tol", "1e-3", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["classification"] == "sharp"
    assert (payload["rank_p1"], payload["rank_p0"]) == (1, 1)


def test_effect_check_rejects_bad_spectrum(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(matrix_to_json(np.diag([1.5, 0.0])), kind="effect")))
    assert main(["effect-check", "--effect", str(path)]) == 1
    assert "outside [0, 1]" in capsys.readouterr().err


def test_missing_file_and_bad_flags_exit_one(tmp_path, capsys, pom_file, effect_file):
    assert main(["effect-check", "--effect", str(tmp_path / "nope.json")]) == 1
    capsys.readouterr()
    assert main(["effect-check"]) == 1  # --effect is required input
    capsys.readouterr()
    assert main(["luders-verify", "--dims", "six"]) == 1
    capsys.readouterr()
    assert main(["no-such-command"]) == 1
    capsys.readouterr()
    assert main(["luders-verify", "--trials", "0"]) == 1
    capsys.readouterr()
    pom_2x2 = pom_file([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    effect_3x3 = effect_file(np.diag([0.2, 0.5, 0.7]), "effect3.json")
    assert main(["luders-verify", "--pom", pom_2x2, "--effect", effect_3x3]) == 1
    assert capsys.readouterr().err == "opmeas: error: dimension mismatch: (3, 3) vs (2, 2)\n"

    def one_error_line(argv):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("opmeas: error:") and err.count("\n") == 1, (argv, err)

    bool_dim = tmp_path / "bool-dim.json"
    bool_dim.write_text(json.dumps({"dim": True, "entries": [[[0.5, 0.0]]]}))
    one_error_line(["effect-check", "--effect", str(bool_dim)])
    not_utf8 = tmp_path / "not-utf8.json"
    not_utf8.write_bytes(b"\xff\xfe{}")
    one_error_line(["effect-check", "--effect", str(not_utf8)])
    effect = effect_file(np.diag([0.0, 1.0]), "diag01.json")
    one_error_line(["effect-check", "--effect", effect, "--out", str(tmp_path / "no-dir" / "x.txt")])
    one_error_line(["effect-check", "--effect", effect, "--tol", "nan"])
    one_error_line(["effect-check", "--effect", effect, "--seed", "3"])  # a luders-verify flag
    good = json.loads(open(pom_2x2).read())
    for field, value in [
        ("effects", 5),
        ("outcomes", 5),
        ("outcomes", [{"a": 1}, {"b": 2}]),
        ("outcomes", [[[1]], [[2]]]),
    ]:
        bad_pom = tmp_path / "bad-pom.json"
        bad_pom.write_text(json.dumps(dict(good, **{field: value})))
        one_error_line(["luders-verify", "--pom", str(bad_pom), "--effect", effect])
    one_error_line(["luders-verify", "--seed", "-1", "--trials", "2"])
    for size in (2**29, 2**40):  # an allocation of 4 EiB, an unaddressable one
        one_error_line(["luders-verify", "--dims", f"{size}..{size}", "--trials", "1"])
    for field, value in [
        ("kernel", [True, False, False, False]),
        ("kernel", [0.5, float("inf")]),
        ("light_speed", True),
        ("light_speed", float("nan")),
        ("time_step", 10**400),
        ("fiducial", [["x", 1], 0, 0, 0]),
        ("fiducial", [[1, float("nan")], 0, 0, 0]),
        ("fiducial", [True, 0, 0, 0]),
    ]:
        bad_model = tmp_path / "bad-model.json"
        bad_model.write_text(json.dumps({"n_sites": 4, "construction": "smeared", field: value}))
        one_error_line(["localization-demo", "--model", str(bad_model)])
    bad_cell = tmp_path / "bad-cell.json"
    for cell in ([float("nan"), 0.0], [True, 0.0], [0.5, 10**400]):
        bad_cell.write_text(json.dumps({"dim": 1, "entries": [[cell]]}))
        one_error_line(["effect-check", "--effect", str(bad_cell)])
    bad_cell.write_text('{"dim": 1, "entries": [[[' + "1" * 5000 + ", 0]]]}")
    one_error_line(["effect-check", "--effect", str(bad_cell)])  # past int's digit limit


def test_luders_verify_ensemble_csv_contract(capsys):
    argv = ["luders-verify", "--seed", "7", "--trials", "12", "--dims", "2..4", "--format", "csv"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    lines = first.strip().split("\n")
    assert lines[0] == "seed,dim,case,max_commutator,deviation,equivalent"
    assert len(lines) == 13  # header + one row per trial
    assert all(line.split(",")[5] in ("true", "false") for line in lines[1:])

    assert main(argv) == 0
    assert capsys.readouterr().out == first  # byte-identical rerun


def test_luders_verify_text_and_json(capsys):
    assert main(["luders-verify", "--trials", "10", "--dims", "2..3"]) == 0
    out = capsys.readouterr().out
    assert "prop1_equivalent: 10" in out and "counterexamples: 0" in out

    assert main(["luders-verify", "--trials", "10", "--dims", "2..3", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["trials"] == 10
    assert payload["summary"]["prop1_equivalent"] == 10
    assert payload["summary"]["objectivity_link_holds"] == 10
    assert payload["findings"] == []
    assert len(payload["rows"]) == 10
    assert set(payload["rows"][0]) == {
        "seed", "dim", "case", "max_commutator", "deviation", "equivalent",
    }


def test_luders_verify_injected_pair(pom_file, effect_file, capsys):
    pom_path = pom_file([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    effect_path = effect_file((I2 + X) / 2)
    assert main(["luders-verify", "--pom", pom_path, "--effect", effect_path]) == 0
    out = capsys.readouterr().out
    assert "equivalent" in out

    # a commuting pair
    diag_effect = effect_file(np.diag([0.3, 0.9]), "diag.json")
    assert main(["luders-verify", "--pom", pom_path, "--effect", diag_effect, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["commute"] is True
    assert payload["summary"]["nondisturb"] is True
    row = payload["rows"][0]
    assert row["equivalent"] is True and row["case"] == "both"


def test_luders_verify_pom_without_effect_is_input_error(pom_file, capsys):
    pom_path = pom_file([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    assert main(["luders-verify", "--pom", pom_path]) == 1


def test_out_flag_writes_file(tmp_path, capsys):
    out_path = tmp_path / "rows.csv"
    argv = [
        "luders-verify", "--trials", "5", "--dims", "2..3",
        "--format", "csv", "--out", str(out_path),
    ]
    assert main(argv) == 0
    text = out_path.read_text()
    assert text.startswith("seed,dim,case,")
    assert len(text.strip().split("\n")) == 6

    assert main(argv) == 0
    assert out_path.read_text() == text  # determinism through the file path too


def _demo_rows(payload):
    return {row["condition"]: row for row in payload["rows"]}


def test_localization_demo_requires_model(capsys):
    assert main(["localization-demo"]) == 1
    assert "--model" in capsys.readouterr().err


def test_localization_demo_smeared(tmp_path, capsys):
    cfg = {"n_sites": 8, "construction": "smeared"}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(cfg))
    assert main(["localization-demo", "--model", str(path)]) == 0
    out = capsys.readouterr().out
    assert "covariance" in out and "PASS" in out and "FAIL" in out

    assert main(["localization-demo", "--model", str(path), "--format", "json"]) == 0
    rows = _demo_rows(json.loads(capsys.readouterr().out))
    assert rows["covariance"]["holds"] is True
    assert rows["localizability"]["holds"] is False  # strict variant
    assert rows["weak localizability"]["holds"] is True
    assert rows["strong unsharpness"]["holds"] is True


def test_localization_demo_coherent_reports_phase_space(tmp_path, capsys):
    cfg = {"n_sites": 6, "construction": "coherent"}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(cfg))
    assert main(["localization-demo", "--model", str(path), "--format", "json"]) == 0
    rows = _demo_rows(json.loads(capsys.readouterr().out))
    assert rows["phase-space commutativity"]["holds"] is False
    assert rows["base commutativity"]["holds"] is True


def test_localization_demo_coherent_builds_no_povm(monkeypatch, tmp_path, capsys):
    screened, screen = [], povm_module._screen

    def recording(stack, tol):  # every POM, of any construction, passes the screen once
        screened.append(len(stack))
        return screen(stack, tol)

    monkeypatch.setattr(povm_module, "_screen", recording)
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"n_sites": 8, "construction": "coherent"}))
    assert main(["localization-demo", "--model", str(path), "--format", "json"]) == 0
    assert screened and max(screened) == 8  # N outcomes per POM, never the N^2 of the POVM
    row = _demo_rows(json.loads(capsys.readouterr().out))["phase-space commutativity"]
    assert row["holds"] is False and row["detail"].startswith("((0, 0), ")  # the orbit origin


@pytest.mark.parametrize("n", [8, 16, 32])
def test_localization_demo_coherent_marginal_commutes_exactly(n, tmp_path, capsys):
    # the closed-form marginal is diagonal: no rounding noise for any tol to see
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"n_sites": n, "construction": "coherent"}))
    argv = ["localization-demo", "--model", str(path), "--tol", "1e-30", "--format", "json"]
    assert main(argv) == 0
    row = _demo_rows(json.loads(capsys.readouterr().out))["base commutativity"]
    assert row["holds"] is True and row["value"] == 0.0


@pytest.mark.parametrize("command", ["localization-demo", "causality-scan"])
def test_fiducial_norm_boundary(command, tmp_path, capsys):
    # |eta|^2 must be 1 within 1e-10: scale 1 +- 4e-11 passes, 1 +- 6e-11 is an input error
    path = tmp_path / "model.json"
    eta = gaussian_fiducial(8)
    for scale, code in [(1 - 4e-11, 0), (1 + 4e-11, 0), (1 - 6e-11, 1), (1 + 6e-11, 1)]:
        fiducial = [[float(z.real), float(z.imag)] for z in eta * scale]
        path.write_text(json.dumps({"n_sites": 8, "construction": "coherent", "fiducial": fiducial}))
        assert main([command, "--model", str(path)]) == code, scale
        err = capsys.readouterr().err
        if code:
            assert err == "opmeas: error: fiducial must be a unit vector\n"


@pytest.mark.parametrize(
    "cfg",
    [
        {"n_sites": 8, "construction": "sharp"},
        {"n_sites": 8, "construction": "smeared",
         "hamiltonian": matrix_to_json(np.zeros((8, 8)))},
        {"n_sites": 8, "construction": "coherent"},
    ],
    ids=["sharp/hopping", "smeared/static", "coherent"],
)
def test_localization_demo_rows_equal_schlieder_scan(cfg, tmp_path, capsys):
    """Both front ends read one singleton-condition table: equal values, bit for bit."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps(cfg))
    assert main(["localization-demo", "--model", str(path), "--format", "json"]) == 0
    rows = _demo_rows(json.loads(capsys.readouterr().out))
    lmap = build_construction(model_config_from_json(cfg))
    report = schlieder_scan(lmap, max_t=1)
    for name in ("covariance", "localizability", "weak localizability"):
        scan_row = report.condition_row(name)
        assert rows[name]["value"] == scan_row.worst_residual
        assert rows[name]["holds"] == scan_row.holds
    assert rows["strong unsharpness"]["holds"] == report.strongly_unsharp
    # the scan reports only the verdict; its eigenvalue comes from the same table
    table = singleton_conditions(lmap)
    assert rows["strong unsharpness"]["value"] == table.max_eigenvalue
    # an exactly covariant map's base row scans the orbit pairs (0, d): the all-pairs values
    reference = is_commutative(lmap.base_pom)
    assert table.covariant
    assert abs(rows["base commutativity"]["value"] - reference.max_commutator) <= 1e-15
    assert (rows["base commutativity"]["holds"], rows["base commutativity"]["detail"]) == (
        reference.commutative, str(reference.worst_pair))


def test_causality_scan_single_model(tmp_path, capsys):
    cfg = {"n_sites": 16, "construction": "smeared"}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(cfg))
    assert main(["causality-scan", "--model", str(path), "--t-max", "2"]) == 0
    out = capsys.readouterr().out
    assert "strongly_unsharp" in out
    assert "leakage" in out


def test_causality_scan_family_sweep_csv_deterministic(capsys):
    argv = ["causality-scan", "--format", "csv"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    lines = first.strip().split("\n")
    assert lines[0] == "label,section,item,value,holds,detail"
    assert any("sharp/hopping/N=8" in line for line in lines)

    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_causality_scan_geometry_violation_is_input_error(tmp_path, capsys):
    cfg = {"n_sites": 8}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(cfg))
    assert main(["causality-scan", "--model", str(path), "--t-max", "4"]) == 1


_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def _assert_same_report(got, want, atol: float, where: str = "") -> None:
    """Equal JSON reports, except that numbers, also those inside strings,
    need only agree within atol; verdicts (bools) and texts must be equal.
    A row whose value is within atol of zero may name another worst case:
    at rounding level, that is whichever pair rounds highest."""
    if isinstance(want, str):
        assert _NUMBER.sub("#", got) == _NUMBER.sub("#", want), where
        for u, v in zip(_NUMBER.findall(got), _NUMBER.findall(want)):
            assert abs(float(u) - float(v)) <= atol, (where, u, v)
    elif isinstance(want, bool) or want is None:
        assert got is want, where
    elif isinstance(want, (int, float)):
        assert not isinstance(got, bool) and abs(got - want) <= atol, (where, got, want)
    elif isinstance(want, dict):
        assert list(got) == list(want), where
        value = want.get("value")
        rounding_level = isinstance(value, float) and abs(value) <= atol
        for key in want:
            if not (key == "detail" and rounding_level):
                _assert_same_report(got[key], want[key], atol, f"{where}.{key}")
    else:
        assert len(got) == len(want), where
        for i, (u, v) in enumerate(zip(got, want)):
            _assert_same_report(u, v, atol, f"{where}[{i}]")


def test_no_report_reads_an_eigenvector_phase(monkeypatch, tmp_path, effect_file, capsys):
    """Every consumer of ``eig_hermitian`` forms V f(L) V-dagger or |v><v|, so
    multiplying each eigenvector by a random unit phase moves no verdict and
    moves numbers only by rounding."""
    rng = np.random.default_rng(5)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    interior = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    interior = interior @ interior.conj().T
    runs = [
        ["effect-check", "--effect", effect_file(np.outer(v, v.conj()) / np.vdot(v, v), "projection.json")],
        ["effect-check", "--effect", effect_file(interior / (1.5 * np.linalg.norm(interior, 2)), "interior.json")],
        ["luders-verify", "--trials", "50"],
    ]
    coherent = tmp_path / "coherent-8.json"
    coherent.write_text(json.dumps({"n_sites": 8, "construction": "coherent"}))
    runs.append(["localization-demo", "--model", str(coherent)])
    for n in (8, 16):
        for construction in ("sharp", "smeared", "coherent"):
            path = tmp_path / f"{construction}-{n}.json"
            path.write_text(json.dumps({"n_sites": n, "construction": construction}))
            runs.append(["causality-scan", "--model", str(path)])

    def reports():
        out = []
        for argv in runs:
            code = main(argv + ["--format", "json"])
            captured = capsys.readouterr()
            out.append((code, json.loads(captured.out or "null"), captured.err))
        return out

    want = reports()
    eigh, phases = np.linalg.eigh, np.random.default_rng(11)
    rotated = []

    def phased_eigh(a, *args, **kwargs):
        evals, vecs = eigh(a, *args, **kwargs)
        rotated.append(vecs.shape[-1])
        turn = np.exp(2j * np.pi * phases.uniform(size=vecs.shape[:-2] + (1, vecs.shape[-1])))
        return evals, vecs * turn

    monkeypatch.setattr(np.linalg, "eigh", phased_eigh)
    got = reports()
    assert rotated  # the decompositions went through the rotating eigh
    for argv, (code, report, err), (want_code, want_report, want_err) in zip(runs, got, want):
        assert code == want_code, argv
        _assert_same_report(report, want_report, 1e-12, " ".join(argv[:1]))
        _assert_same_report(err, want_err, 1e-12, " ".join(argv[:1]))


# Sizes 2..16, or one that no machine could hold: 2**29 sites ask for 4 EiB
# per matrix, and 2**40 and 2**70 are unaddressable.  Each fails before any
# memory is touched.
_SIZES = st.integers(2, 19).map(lambda k: k if k <= 16 else 2 ** (29, 40, 70)[k - 17])
_VALUES = st.one_of(st.floats(), st.integers(-2, 3), st.booleans(), st.none(), st.text(max_size=2))


@st.composite
def _matrix_json(draw, n: int) -> dict:
    """A matrix object of the lattice's dimension or another, Hermitian or not."""
    dim = draw(st.sampled_from([min(n, 16), 2, 3]))
    cells = draw(st.lists(st.floats(-2, 2), min_size=2 * dim * dim, max_size=2 * dim * dim))
    m = np.array(cells).view(complex).reshape(dim, dim)
    if draw(st.booleans()):
        m = m + m.conj().T
    return matrix_to_json(m)


@st.composite
def _model_configs(draw) -> dict:
    """Model-config objects with each optional field absent, valid or malformed."""
    n = draw(_SIZES)
    fields = {
        "construction": st.sampled_from(["sharp", "smeared", "coherent", "other"]),
        "hamiltonian": st.one_of(st.just("hopping"), _matrix_json(n), _VALUES),
        "light_speed": st.one_of(st.floats(0.25, 4), _VALUES),
        "time_step": st.one_of(st.floats(0.25, 4), _VALUES),
        "kernel": st.one_of(_VALUES, st.lists(st.one_of(st.floats(0, 1), _VALUES), max_size=6)),
        "fiducial": st.one_of(
            _VALUES,
            st.lists(st.one_of(st.floats(-1, 1), st.lists(st.floats(-1, 1), min_size=2, max_size=2)), max_size=17),
        ),
    }
    return {"n_sites": n} | {key: draw(value) for key, value in fields.items() if draw(st.booleans())}


@given(cfg=_model_configs(), command=st.sampled_from(["localization-demo", "causality-scan"]))
@example(cfg={"n_sites": 4, "light_speed": 1e-200, "time_step": 1e-200}, command="causality-scan")
@example(cfg={"n_sites": 4, "light_speed": 1e-300, "time_step": 1e-10}, command="causality-scan")
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_generated_model_configs_never_escape(cfg, command, tmp_path, capsys):
    """Every model-config file gives an exit code in {0, 1, 2} and no
    traceback, an input error prints one line, and a lattice too large to
    hold is an input error."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps(cfg))
    rc = main([command, "--model", str(path)])
    err = capsys.readouterr().err
    assert rc in (0, 1, 2)
    if rc == 1:
        assert err.startswith("opmeas: error:") and err.count("\n") == 1, err
    if cfg["n_sites"] > 16:
        assert rc == 1


def test_one_parser_serves_every_call(pom_file, effect_file, capsys):
    """A sequence of calls on the process's one parser gives each call's exit
    code, stdout and stderr as a freshly built parser gives them: no flag of
    one call leaks into the next."""
    pom = pom_file([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    near_one = effect_file(np.diag([0.9995, 0.0]), "near-one.json")
    calls = [
        ["effect-check", "--bogus"],
        ["--help"],
        ["luders-verify", "--pom", pom, "--effect", near_one, "--format", "json"],
        ["luders-verify", "--trials", "3", "--dims", "2..3"],
        ["luders-verify", "--effect", near_one],
        ["effect-check", "--effect", near_one, "--tol", "1e-3", "--format", "csv"],
        ["effect-check", "--effect", near_one],
    ]

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    build_parser.cache_clear()
    shared = [run(argv) for argv in calls]
    assert build_parser() is build_parser()
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run(argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [1, 0, 0, 0, 1, 0, 0]
    assert "classification,eigenvalues" in shared[5][1] and "sharp," in shared[5][1]
    assert "strongly unsharp" in shared[6][1]  # the default tol, not the last call's 1e-3


@pytest.mark.parametrize(
    "cfg, max_t, moves_by_t1",
    [
        ({"n_sites": 4, "light_speed": 1e300, "time_step": 1e-300}, None, False),
        ({"n_sites": 8, "construction": "sharp"}, 0, True),
    ],
    ids=["propagator-rounds-to-identity", "no-evolved-pair"],
)
def test_consistency_assertion_reads_the_scanned_evolution(cfg, max_t, moves_by_t1, tmp_path, capsys):
    """A nonzero H is not nontrivial dynamics: over a time step that rounds
    exp(-iHt tau) to the identity, or in a scan of slice 0 alone, the base
    effect never moves, and the assertion has no premise to fire on."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps(cfg))
    flags = [] if max_t is None else ["--t-max", str(max_t)]
    assert main(["causality-scan", "--model", str(path), *flags]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and "consistency assertion" not in captured.out
    lmap = build_construction(model_config_from_json(cfg))
    report = schlieder_scan(lmap, 1 if max_t is None else max_t)  # 1 is the CLI's horizon at c·tau = 1, N = 4
    assert not report.nontrivial_dynamics and report.findings == ()
    assert schlieder_scan(lmap, 1).nontrivial_dynamics == moves_by_t1
