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


def test_only_froblift_applies_the_witt_frobenius_in_a_substitution():
    # "apply this lift" has one routine, froblift.apply_lift; elsewhere substitute
    # is a plain change of coordinates and takes no coefficient map
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(w2frob.__file__).parent.glob("*.py"))
        if path.name != "froblift.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "substitute"
        and (len(node.args) > 2 or any(k.arg == "coeff_map" for k in node.keywords))
    ]
    assert not found, found


# parsers of formats the library writes: a reader needs them though no command does
_UNUSED_EXPORTS_ALLOWED = {"lift_from_json", "witt_from_str"}


def _used_names(node, enclosing=frozenset()) -> set:
    """Names and attribute names under ``node``, except inside a definition of the same name."""
    used = set()
    for child in ast.iter_child_nodes(node):
        inner = enclosing
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = enclosing | {child.name}
        if isinstance(child, ast.Name):
            name = child.id
        elif isinstance(child, ast.Attribute):
            name = child.attr
        else:
            name = None
        if name is not None and name not in enclosing:
            used.add(name)
        used |= _used_names(child, inner)
    return used


def test_every_export_is_used_outside_the_tests():
    package = Path(w2frob.__file__).parent
    root = package.parent.parent
    init = ast.parse((package / "__init__.py").read_text())
    exported = {
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    sources = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    sources += [*(root / "demos").glob("*.py"), *(root / "perfbench").glob("*.py")]
    used = set().union(*(_used_names(ast.parse(p.read_text())) for p in sources))
    assert sorted(exported - used - _UNUSED_EXPORTS_ALLOWED) == []
    assert _UNUSED_EXPORTS_ALLOWED <= exported - used  # the allowlist stays minimal
