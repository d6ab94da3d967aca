"""Checks on the library source itself."""

import ast
import doctest
import importlib
import pkgutil
from pathlib import Path

import heckepaths

SRC = Path(heckepaths.__file__).resolve().parent


def test_no_assert_statements():
    # asserts vanish under python -O; internal checks raise CrossCheckMismatch
    found = []
    for module in sorted(SRC.glob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"), filename=str(module))
        found += [f"{module.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the library: {found}"


def test_doctests():
    modules = [heckepaths] + [
        importlib.import_module(f"heckepaths.{info.name}") for info in pkgutil.iter_modules(heckepaths.__path__)
    ]
    results = {module.__name__: doctest.testmod(module) for module in modules}
    assert sum(r.attempted for r in results.values()) > 0
    assert {name: r.failed for name, r in results.items() if r.failed} == {}
