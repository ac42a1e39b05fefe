"""The package's public names."""

from __future__ import annotations

import sys
import types
from pathlib import Path

import opmeas


def test_all_lists_every_public_name_and_no_module():
    for name in opmeas.__all__:
        assert not isinstance(getattr(opmeas, name), types.ModuleType), name
    public = {
        name
        for name, value in vars(opmeas).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(opmeas.__all__) == sorted(public)


def _opmeas_bindings() -> dict:
    """Every module-level binding of the loaded ``opmeas`` modules, the entries
    of their module-level dicts, and the one traced class attribute."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "opmeas" or name.startswith("opmeas."):
            for key, value in vars(module).items():
                out[name, key] = value
                if isinstance(value, dict):
                    for k, v in value.items():
                        out[name, key, k] = v
    out["LudersInstrument.from_pom"] = opmeas.LudersInstrument.__dict__["from_pom"]
    return out


def test_benchmark_tracer_binds_every_traced_function(monkeypatch):
    """``perfbench/trace_calls.py`` finds a binding for each function it
    traces, so a rename or deletion that breaks ``--trace 1`` fails here."""
    import opmeas.cli  # noqa: F401  (loads opmeas.ensembles, as the benchmark does)

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from trace_calls import Tracer

    before = _opmeas_bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert opmeas.cli._COMMANDS["effect-check"] is not before["opmeas.cli", "cmd_effect_check"]
    finally:
        tracer.uninstall()
    after = _opmeas_bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
