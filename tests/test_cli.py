"""Command-line interface: exit codes, formats, determinism."""

from __future__ import annotations

import json

import numpy as np
import pytest

from opmeas.causality import schlieder_scan, singleton_conditions
from opmeas.cli import main
from opmeas.effects import validate_effect
from opmeas.povm import build_pom
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
    lmap, _ = build_construction(model_config_from_json(cfg))
    report = schlieder_scan(lmap, max_t=1)
    for name in ("covariance", "localizability", "weak localizability"):
        scan_row = report.condition_row(name)
        assert rows[name]["value"] == scan_row.worst_residual
        assert rows[name]["holds"] == scan_row.holds
    assert rows["strong unsharpness"]["holds"] == report.strongly_unsharp
    # the scan reports only the verdict; its eigenvalue comes from the same table
    assert rows["strong unsharpness"]["value"] == singleton_conditions(lmap).max_eigenvalue


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
