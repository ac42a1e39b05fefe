"""The package's public names."""

from __future__ import annotations

import types

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
