"""JSON round-trips and model-config parsing."""

from __future__ import annotations

import json

import numpy as np
import pytest

from opmeas.effects import validate_effect
from opmeas.errors import OpmeasError
from opmeas.localization import (
    coherent_state_povm,
    gaussian_fiducial,
    position_marginal,
    sharp_position_map,
    three_point_kernel,
)
from opmeas.povm import build_pom
from opmeas.serialize import (
    ModelConfig,
    build_construction,
    build_model,
    effect_from_json,
    effect_to_json,
    load_json,
    matrix_from_json,
    matrix_to_json,
    model_config_from_json,
    pom_from_json,
    pom_to_json,
)


def test_matrix_round_trip_complex():
    m = np.array([[0.5, 0.25 - 0.1j], [0.25 + 0.1j, 0.5]])
    obj = matrix_to_json(m)
    assert obj["dim"] == 2
    assert obj["entries"][0][1] == [0.25, -0.1]
    back = matrix_from_json(json.loads(json.dumps(obj)))
    assert np.array_equal(back, m)


@pytest.mark.parametrize(
    "obj",
    [
        {"entries": [[[1, 0]]]},  # missing dim
        {"dim": 2, "entries": [[[1, 0], [0, 0]]]},  # one row for dim 2
        {"dim": 1, "entries": [[[1, 0], [0, 0]]]},  # ragged row
        {"dim": 1, "entries": [[[1]]]},  # cell not a pair
        {"dim": 1, "entries": [[["a", 0]]]},  # non-numeric
        {"dim": 0, "entries": []},  # dim < 1
        {"dim": "two", "entries": []},
        {"dim": True, "entries": [[[0.5, 0.0]]]},  # a bool is not a dimension
        [1, 2, 3],
    ],
)
def test_matrix_from_json_rejects_malformed(obj):
    with pytest.raises(OpmeasError):
        matrix_from_json(obj)


def test_effect_round_trip_and_kind_tag():
    e = validate_effect(np.diag([0.25, 0.75]).astype(complex))
    obj = effect_to_json(e)
    assert obj["kind"] == "effect"
    back = effect_from_json(obj)
    assert np.array_equal(back.op, e.op)

    with pytest.raises(OpmeasError):
        effect_from_json({"kind": "state", "dim": 1, "entries": [[[1, 0]]]})
    # an effect tag on a non-effect matrix still validates the spectrum
    bad = dict(matrix_to_json(np.diag([1.5, 0.0])), kind="effect")
    with pytest.raises(OpmeasError):
        effect_from_json(bad)


def test_pom_round_trip_preserves_labels_and_flag():
    pom = build_pom(
        [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)],
        require_normalized=True,
        outcomes=("left", "right"),
    )
    back = pom_from_json(json.loads(json.dumps(pom_to_json(pom))))
    assert back.outcomes == ("left", "right")
    assert back.normalized
    assert np.array_equal(back.stack, pom.stack)


def test_pom_from_json_can_require_normalized():
    sub = build_pom([np.diag([0.5, 0.5]).astype(complex)], require_normalized=False)
    obj = pom_to_json(sub)
    back = pom_from_json(obj)
    assert not back.normalized
    with pytest.raises(OpmeasError):
        pom_from_json(obj, require_normalized=True)


def test_load_json_errors_wrapped(tmp_path):
    with pytest.raises(OpmeasError):
        load_json(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(OpmeasError):
        load_json(bad)


def test_model_config_defaults():
    cfg = model_config_from_json({"n_sites": 8})
    assert cfg == ModelConfig(n_sites=8)
    assert cfg.hamiltonian == "hopping"
    assert cfg.light_speed == 1.0 and cfg.time_step == 1.0
    assert cfg.construction == "sharp"
    model = build_model(cfg)
    assert model.n_sites == 8
    assert model.hamiltonian[1, 0] == pytest.approx(-0.5)


@pytest.mark.parametrize(
    "obj",
    [
        {},
        {"n_sites": 1},
        {"n_sites": 8.5},
        {"n_sites": 8, "construction": "fuzzy"},
        {"n_sites": 8, "hamiltonian": "banded"},
        {"n_sites": 8, "light_speed": -1},
    ],
)
def test_model_config_rejects_malformed(obj):
    with pytest.raises(OpmeasError):
        model_config_from_json(obj)


def test_explicit_hamiltonian_matrix():
    zero = matrix_to_json(np.zeros((4, 4)))
    cfg = model_config_from_json({"n_sites": 4, "hamiltonian": zero})
    model = build_model(cfg)
    assert np.array_equal(model.hamiltonian, np.zeros((4, 4)))


def test_short_kernel_zero_padded():
    cfg = model_config_from_json(
        {"n_sites": 8, "construction": "smeared", "kernel": [0.5, 0.25, 0.25]}
    )
    lmap = build_construction(cfg)
    e0 = lmap.base_pom.stack[0]
    # offsets 0..2 get the mass; offset 7 (i.e. k[-1]) stays zero
    assert e0[0, 0] == pytest.approx(0.5)
    assert e0[7, 7] == pytest.approx(0.25)  # site 7 is offset -7 = +1? no:
    # kernel[d] weights E_x at site (x - d) mod n, so E_0 has k[1] at site -1=7
    assert e0[6, 6] == pytest.approx(0.25)
    assert e0[1, 1] == pytest.approx(0.0)


def test_smeared_defaults_to_three_point_kernel():
    cfg = model_config_from_json({"n_sites": 8, "construction": "smeared"})
    lmap = build_construction(cfg)
    expected = three_point_kernel(8)
    assert np.array_equal(cfg.kernel, expected)  # resolved once, by the loader
    e0 = lmap.base_pom.stack[0]
    assert e0[0, 0] == pytest.approx(expected[0])
    assert e0[1, 1] == pytest.approx(expected[-1])


def test_sharp_construction_matches_direct():
    cfg = model_config_from_json({"n_sites": 6})
    lmap = build_construction(cfg)
    assert cfg.kernel is None and cfg.fiducial is None
    direct = sharp_position_map(build_model(cfg))
    assert np.array_equal(lmap.base_pom.stack, direct.base_pom.stack)


def test_coherent_construction_returns_the_position_marginal():
    cfg = model_config_from_json({"n_sites": 6, "construction": "coherent"})
    assert np.array_equal(cfg.fiducial, gaussian_fiducial(6))  # resolved once, by the loader
    lmap = build_construction(cfg)
    assert len(lmap.base_pom) == 6  # the position marginal
    direct = position_marginal(build_model(cfg), gaussian_fiducial(6))
    assert np.array_equal(lmap.base_pom.stack, direct.base_pom.stack)
    assert len(coherent_state_povm(lmap.model, cfg.fiducial)) == 36  # the POVM it marginalizes

    # complex fiducial via [re, im] pairs
    v = np.zeros(6)
    v[0] = 1.0
    cfg2 = model_config_from_json(
        {"n_sites": 6, "construction": "coherent", "fiducial": [[1.0, 0.0]] + [[0.0, 0.0]] * 5}
    )
    lmap2 = build_construction(cfg2)
    assert lmap2.base_pom.stack[0][0, 0] == pytest.approx(1.0)


def test_fiducial_wrong_length_rejected_at_parse():
    with pytest.raises(OpmeasError):
        model_config_from_json(
            {"n_sites": 6, "construction": "coherent", "fiducial": [1.0, 0.0]}
        )
    with pytest.raises(OpmeasError):
        model_config_from_json(
            {"n_sites": 6, "construction": "smeared", "kernel": [0.1] * 7 + [0.3, 0.0]}
        )
