"""Checks on the package source itself."""

import ast
import importlib
from pathlib import Path

import w2frob


def test_library_has_no_assert_statements():
    # invariants must raise typed errors: python -O strips every assert
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(w2frob.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def _tracer_targets() -> tuple:
    """TARGETS of perfbench/tracer.py, read from its source without importing it."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise LookupError("perfbench/tracer.py defines no TARGETS")


def test_traced_names_resolve_in_the_package():
    # the tracer wraps module functions and entries of a class's own namespace
    missing = []
    for layer, _metric, owner, attr in _tracer_targets():
        module = importlib.import_module(f"w2frob.{layer}")
        if owner is None:
            found = callable(getattr(module, attr, None))
        else:
            found = callable(vars(getattr(module, owner, object)).get(attr))
        if not found:
            missing.append(f"{layer}.{owner or ''}.{attr}")
    assert not missing, missing
