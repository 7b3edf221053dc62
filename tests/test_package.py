"""The package namespace: what ``from nsopt import *`` exports, and what
the package imports."""

import ast
import sys
import types
from pathlib import Path

import nsopt


def test_all_holds_resolvable_non_module_names():
    assert nsopt.__all__
    for name in nsopt.__all__:
        assert hasattr(nsopt, name), name
        assert not isinstance(getattr(nsopt, name), types.ModuleType), name
    for name in ("errors", "geometry", "harness", "moreau", "oracles", "problems", "solvers"):
        assert name not in nsopt.__all__


def test_modules_import_only_the_standard_library_and_numpy():
    # numpy is the one dependency pyproject.toml declares
    allowed = set(sys.stdlib_module_names) | {"numpy", "nsopt"}
    modules = sorted(Path(nsopt.__file__).parent.glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.partition(".")[0] in allowed, f"{path.name} imports {name}"
