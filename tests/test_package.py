"""The package namespace: what ``from nsopt import *`` exports."""

import types

import nsopt


def test_all_holds_resolvable_non_module_names():
    assert nsopt.__all__
    for name in nsopt.__all__:
        assert hasattr(nsopt, name), name
        assert not isinstance(getattr(nsopt, name), types.ModuleType), name
    for name in ("errors", "geometry", "harness", "moreau", "oracles", "problems", "solvers"):
        assert name not in nsopt.__all__
