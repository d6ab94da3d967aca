"""Checks on the library source itself."""

import ast
import doctest
import importlib
import pkgutil
from collections import Counter
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


def test_no_bare_exceptions_raised():
    # a bare RuntimeError or Exception escapes the CLI as a traceback; internal
    # inconsistencies raise CrossCheckMismatch, which the CLI reports with exit 2
    found = []
    for module in sorted(SRC.glob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"), filename=str(module))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id in ("RuntimeError", "Exception"):
                    found.append(f"{module.name}:{node.lineno}")
    assert not found, f"bare RuntimeError or Exception raised in the library: {found}"


def test_doctests():
    modules = [heckepaths] + [
        importlib.import_module(f"heckepaths.{info.name}") for info in pkgutil.iter_modules(heckepaths.__path__)
    ]
    results = {module.__name__: doctest.testmod(module) for module in modules}
    assert sum(r.attempted for r in results.values()) > 0
    assert {name: r.failed for name, r in results.items() if r.failed} == {}


def test_no_next_without_default():
    # next(it) without a default lets StopIteration escape as a traceback, or end
    # an enclosing generator without a word; give a default and test for it
    found = []
    for module in sorted(SRC.glob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"), filename=str(module))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "next":
                if len(node.args) + len(node.keywords) < 2:
                    found.append(f"{module.name}:{node.lineno}")
    assert not found, f"next() without a default in the library: {found}"


def _import_bindings(tree):
    """(name, line) for each name a module-level import binds, __future__ aside."""
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno


def test_no_unused_module_imports():
    # an import its module never reads is left over from removed code; the
    # package __init__ re-exports its imports through __all__
    found = []
    for module in sorted(SRC.glob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"), filename=str(module))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                read.update(ast.literal_eval(node.value))
        found += [f"{module.name}:{line} {name}" for name, line in _import_bindings(tree) if name not in read]
    assert not found, f"module-level imports never read: {found}"


# documented entry points that no library code calls; users and tests do
ENTRY_POINTS = {
    "build_parser",
    "gallery_from_json_dict",
    "minimal_gallery",
    "enumerate_decorations",
    "reverse_path",
    "concat",
    "all_chains",
    "find_chain",
    "eval_path",
    "bruhat_leq",  # RootGeneratingSystem: the Bruhat order
    "tits_cone_membership",  # RootGeneratingSystem: membership with its witness
    "simple_reflection",  # RootGeneratingSystem: perfbench/record.py calls it to record near-miss paths
    "rho_value",  # RootGeneratingSystem: rho(v), against which the tests read check-ls's rho(lambda - nu) and the codim bounds
    "endpoint_counts",  # CrystalGraph: the weight table of the crystal
}


def _references(node):
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(tree):
    """Top-level functions and classes, and the methods and properties in the body
    of each top-level class, public and private, dunders aside, as (qualified name, node)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not _is_dunder(node.name):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name):
                    yield f"{node.name}.{item.name}", item


def test_public_names_have_library_callers():
    # public and private alike: a private helper left without a caller is dead code
    trees = {m.name: ast.parse(m.read_text(encoding="utf-8")) for m in sorted(SRC.glob("*.py"))}
    used = sum((_references(tree) for tree in trees.values()), Counter())
    orphans = [
        f"{module}:{qualname}"
        for module, tree in trees.items()
        for qualname, node in _definitions(tree)
        if node.name not in ENTRY_POINTS
        # uses inside its own body (recursion) do not count
        and used[node.name] == _references(node)[node.name]
    ]
    assert not orphans, f"names with no caller elsewhere in the library: {orphans}"


def test_entry_points_are_defined():
    # a listed name the library no longer defines is a stale exemption
    trees = [ast.parse(m.read_text(encoding="utf-8")) for m in sorted(SRC.glob("*.py"))]
    defined = {node.name for tree in trees for _, node in _definitions(tree)}
    assert sorted(ENTRY_POINTS - defined) == []


def _recursive_nested_functions(function):
    """The nested functions defined in function's body that reach their own name,
    directly or through the other nested functions defined there."""
    nested = {
        node.name: node
        for node in ast.walk(function)
        if node is not function and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    calls = {
        name: {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and n.id in nested}
        for name, node in nested.items()
    }
    for name, node in nested.items():
        seen, todo = set(), list(calls[name])
        while todo:
            other = todo.pop()
            if other not in seen:
                seen.add(other)
                todo += calls[other]
        if name in seen:
            yield node


def test_no_recursive_nested_functions():
    # a nested function that reaches its own name holds itself through a closure
    # cell: a reference cycle that leaves everything it closes over (a system and
    # its memos) to the cyclic collector; recurse through a module-level function
    found = []
    for module in sorted(SRC.glob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"), filename=str(module))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{module.name}:{g.lineno} {g.name}" for g in _recursive_nested_functions(node)]
    assert not found, f"recursive nested functions in the library: {sorted(set(found))}"


# Fraction calls on values from outside that are no conversion: each one's owner and why
FRACTION_VIEWS = {
    "RootGeneratingSystem.symmetrizer": "a Fraction view of the system's own integer symmetrizer",
}


def _fraction_conversions(tree):
    """(owner, line) per call of Fraction on one argument that is not a literal, and per
    map(Fraction, ...); owner is the top-level function, class or method around it."""
    owner = {}
    for top in tree.body:
        scopes = [(top.name, top)] if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else []
        if isinstance(top, ast.ClassDef):  # after the class, so that a method's name wins
            scopes += [(f"{top.name}.{f.name}", f) for f in top.body if isinstance(f, ast.FunctionDef)]
        for name, scope in scopes:
            owner.update((id(n), name) for n in ast.walk(scope))
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        args = node.args
        if node.func.id == "Fraction" and len(args) == 1 and not isinstance(args[0], ast.Constant):
            yield owner.get(id(node), "<module>"), node.lineno
        if node.func.id == "map" and args and isinstance(args[0], ast.Name) and args[0].id == "Fraction":
            yield owner.get(id(node), "<module>"), node.lineno


def test_outside_rationals_read_by_parse_rational_only():
    # every coordinate and time from outside goes through linalg.parse_rational, which
    # refuses a float, a bool or None; a Fraction(x) elsewhere would take a float silently
    found, views = [], set()
    for module in sorted(SRC.glob("*.py")):
        if module.name != "linalg.py":
            for owner, line in _fraction_conversions(ast.parse(module.read_text(encoding="utf-8"))):
                if owner in FRACTION_VIEWS:
                    views.add(owner)
                else:
                    found.append(f"{module.name}:{line} {owner}")
    assert not found, f"conversions to Fraction outside linalg.parse_rational: {found}"
    assert views == set(FRACTION_VIEWS)  # a listed view the library no longer has is stale
