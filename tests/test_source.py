"""Checks on the package source itself."""

import ast
import hashlib
import importlib
import os
import subprocess
import sys
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


def test_sweep_all_bytes_hold_under_python_O():
    # python -O strips asserts, so a check that leaned on one would change its report
    run = "import sys; from w2frob.cli import main; sys.exit(not sys.flags.optimize or main())"
    src = Path(w2frob.__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-O", "-c", run, "sweep-all", "--seed", "42"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    # the digest pinned by test_cli.py::test_sweep_all_report_is_pinned
    assert hashlib.sha256(out.stdout).hexdigest() == (
        "b1cb7b3d3a60d292c6dea317a948604e5f6eba044c732ce3c8c97067d976a9b2"
    )


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


def _is_string_constant(node) -> bool:
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_is_string_constant(elt) for elt in node.elts)
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def test_ruled_dispatches_on_the_base_object():
    # ruled.py reads how a base behaves from its ToricBase, never from a name
    # compared with a string constant such as kind == "P1"
    path = Path(w2frob.__file__).parent / "ruled.py"
    found = [
        f"ruled.py:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Compare)
        and any(_is_string_constant(operand) for operand in [node.left, *node.comparators])
    ]
    assert not found, found


def test_froblift_alone_turns_images_into_corrections():
    # F(x_i) = x_i^p + p*f_i is read back only by AffineChartLift.from_images
    # in froblift (eta's divided difference is polyalg.divided_difference);
    # no module outside polyalg reduces mod p
    allowed = {"divide_by_p": {"polyalg.py", "froblift.py"}, "reduce_mod_p": {"polyalg.py"}}
    found = [
        f"{path.name}:{node.lineno} {name}"
        for path in sorted(Path(w2frob.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        for name in [getattr(node.func, "id", None) or getattr(node.func, "attr", None)]
        if name in allowed and path.name not in allowed[name]
    ]
    assert not found, found


def _nvars_arg(call):
    """The nvars argument of a ``standard_lift`` call, as an AST node (None if absent)."""
    if len(call.args) > 1:
        return call.args[1]
    return next((kw.value for kw in call.keywords if kw.arg == "nvars"), None)


def test_no_zero_variable_lift_carries_a_chart_shape():
    # projline reads the chart off the correction itself, so no module or
    # demo builds a lift with no variables, standard_lift(field, 0), to pass one
    root = Path(w2frob.__file__).parent
    paths = [*root.glob("*.py"), *(root.parent.parent / "demos").glob("*.py")]
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(paths)
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == "standard_lift"
        for nvars in [_nvars_arg(node)]
        if isinstance(nvars, ast.Constant) and nvars.value == 0
    ]
    assert not found, found


# builtins that only see a dict's keys
_KEY_READERS = {"len", "sorted", "iter", "list", "set", "tuple", "min", "max"}


def _reads_coefficients(node, parent) -> bool:
    """Whether a ``.terms`` node is used for more than its monomials (its keys)."""
    if isinstance(parent, ast.Attribute):
        return parent.attr != "keys"
    if isinstance(parent, ast.Call):
        return node in parent.args and getattr(parent.func, "id", None) not in _KEY_READERS
    if isinstance(parent, (ast.For, ast.comprehension)):
        return parent.iter is not node
    if isinstance(parent, ast.Compare):
        return not all(isinstance(op, (ast.In, ast.NotIn)) for op in parent.ops)
    return True


def test_only_polyalg_reads_coefficient_ints():
    # Poly.terms holds the ring's canonical ints; every other module reads a
    # coefficient as an element (coefficient_of, single_term) and builds
    # polynomials through Poly operations, never through Poly._make
    found = []
    for path in sorted(Path(w2frob.__file__).parent.glob("*.py")):
        if path.name == "polyalg.py":
            continue
        tree = ast.parse(path.read_text())
        for parent in ast.walk(tree):
            for node in ast.iter_child_nodes(parent):
                if not isinstance(node, ast.Attribute):
                    continue
                if node.attr == "terms" and _reads_coefficients(node, parent):
                    found.append(f"{path.name}:{node.lineno} .terms")
                elif node.attr == "_make":
                    found.append(f"{path.name}:{node.lineno} _make")
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


def _names_used_outside_the_tests() -> set:
    """``_used_names`` over the package modules but ``__init__``, ``demos/`` and ``perfbench/``."""
    package = Path(w2frob.__file__).parent
    root = package.parent.parent
    sources = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    sources += [*(root / "demos").glob("*.py"), *(root / "perfbench").glob("*.py")]
    return set().union(*(_used_names(ast.parse(p.read_text())) for p in sources))


def test_every_export_is_used_outside_the_tests():
    init = ast.parse((Path(w2frob.__file__).parent / "__init__.py").read_text())
    exported = {
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    used = _names_used_outside_the_tests()
    assert sorted(exported - used - _UNUSED_EXPORTS_ALLOWED) == []
    assert _UNUSED_EXPORTS_ALLOWED <= exported - used  # the allowlist stays minimal


# top-level definitions no code calls, each kept for a reason
_UNUSED_DEFINITIONS_ALLOWED = {
    "lift_from_json": "parses what lift_to_json writes, for a reader of saved lifts",
    "witt_from_str": "parses what witt_to_str writes, for a reader of saved Witt vectors",
    "run_command": "frobctl in process: prints the report and returns the exit code main exits with",
}


def test_every_module_function_is_used_outside_the_tests():
    # a top-level def or class that only its own body or the tests name is a
    # retired route's helper left behind
    defined = {
        node.name
        for path in Path(w2frob.__file__).parent.glob("*.py")
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    used = _names_used_outside_the_tests()
    assert sorted(defined - used - _UNUSED_DEFINITIONS_ALLOWED.keys()) == []
    assert _UNUSED_DEFINITIONS_ALLOWED.keys() <= defined - used  # the allowlist stays minimal


def test_no_module_imports_dataclasses():
    # dataclasses pulls in inspect, ast, dis and tokenize, and @dataclass runs
    # exec at import; records are NamedTuples or __slots__ classes instead
    found = []
    for path in sorted(Path(w2frob.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.partition(".")[0] == "dataclasses" for m in modules):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    # -S keeps site's own imports out; the snapshot keeps out what the
    # interpreter preloads before the package is imported
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import w2frob, w2frob.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    src = Path(w2frob.__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    added = set(out.stdout.split())
    assert "w2frob.cli" in added
    assert not added & {"dataclasses", "inspect"}, sorted(added)


# methods of random.Random that draw; draw_below is their one caller in the package
_DRAWS = {"randint", "randrange", "getrandbits", "choice", "choices", "sample", "shuffle"}


def test_every_random_draw_goes_through_draw_below():
    # draw_below draws as randrange does, so one route keeps every seeded input
    # fixed; an attribute read counts, as binding rng.getrandbits would skip it
    found = []
    for path in sorted(Path(w2frob.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        kernel = {
            id(node)
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "draw_below"
            for node in ast.walk(fn)
        }
        found += [
            f"{path.name}:{node.lineno} .{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in _DRAWS and id(node) not in kernel
        ]
    assert not found, found


def test_witt_rings_fill_their_lazy_tables_without_cached_property():
    # a cached_property read materializes the ring's instance __dict__, and every
    # attribute load of the kernel (self._elements, self.fold) then takes the slower path
    path = Path(w2frob.__file__).parent / "witt2.py"
    found = [
        f"witt2.py:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Name) and node.id == "cached_property")
        or (isinstance(node, ast.Attribute) and node.attr == "cached_property")
        or (isinstance(node, ast.alias) and node.name == "cached_property")
    ]
    assert not found, found


# the exponent kernel table of polyalg: the one place the generic forms may stand
_KERNEL_TABLE = {"_KERNELS", "_add_any", "_scale_any"}


def _slow_exponent_idiom(node) -> str | None:
    """'map(add, ...)' or 'tuple(<generator>)' when node is such a call; None otherwise."""
    if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Name):
        return None
    first = node.args[0] if node.args else None
    if node.func.id == "map" and (
        getattr(first, "id", None) == "add" or getattr(first, "attr", None) == "add"
    ):
        return "map(add, ...)"
    if node.func.id == "tuple" and isinstance(first, ast.GeneratorExp):
        return "tuple(<generator>)"
    return None


def test_polyalg_builds_exponents_through_its_kernel_table():
    # an exponent tuple built by map(add, ...) or a generator costs 3-4 times
    # an arity kernel of _KERNELS; only the fallback for 5 and more variables may
    path = Path(w2frob.__file__).parent / "polyalg.py"
    tree = ast.parse(path.read_text())
    table = [
        node
        for node in tree.body
        if getattr(node, "name", None) in _KERNEL_TABLE
        or (isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in _KERNEL_TABLE)
    ]
    assert len(table) == len(_KERNEL_TABLE)  # the guard follows a renamed table
    allowed = {id(node) for top in table for node in ast.walk(top)}
    found = [
        f"polyalg.py:{node.lineno} {idiom}"
        for node in ast.walk(tree)
        if id(node) not in allowed
        for idiom in [_slow_exponent_idiom(node)]
        if idiom
    ]
    assert not found, found


def _function(tree, name: str):
    """The def named ``name`` anywhere in the tree; LookupError when there is none."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    raise LookupError(name)


def _called_names(fn) -> set:
    return {
        getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
    }


def test_determinants_and_jacobians_take_their_one_pass_routes():
    # _det builds each minor once, from the last row up, and must not fall back
    # to a cofactor recursion; the phi matrix and the column-sum lemma take all
    # derivatives of a polynomial in one walk, and Poly.partial_derivative
    # keeps no second derivative loop of its own
    package = Path(w2frob.__file__).parent
    polyalg = ast.parse((package / "polyalg.py").read_text())
    froblift = ast.parse((package / "froblift.py").read_text())
    assert "_det" not in _called_names(_function(polyalg, "_det"))
    for name in ("phi_matrix", "monomial_lemma_check"):
        called = _called_names(_function(froblift, name))
        assert "partial_derivative" not in called, name
        assert "partial_derivatives" in called, name
    single = _function(polyalg, "partial_derivative")
    loops = (ast.For, ast.While, ast.comprehension)
    assert not any(isinstance(node, loops) for node in ast.walk(single))
    assert "partial_derivatives" in _called_names(single)


# each identity test and the equality test it must not be paired with
_PAIRED = {ast.Is: ast.Eq, ast.IsNot: ast.NotEq}


def test_rings_compare_by_identity_alone():
    # GF and W2 hand out one ring object per (p, m), and a ring built by its
    # class is a ring of its own: `a is b or a == b` (or `is not` with `!=`)
    # on the same operands, or an __eq__ or __hash__ on a ring class, would
    # admit an equal but distinct ring again
    found = []
    for path in sorted(Path(w2frob.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.BoolOp):
                continue
            tests = {
                (type(value.ops[0]), frozenset(map(ast.dump, (value.left, *value.comparators))))
                for value in node.values
                if isinstance(value, ast.Compare) and len(value.ops) == 1
            }
            if any((_PAIRED[op], operands) in tests for op, operands in tests if op in _PAIRED):
                found.append(f"{path.name}:{node.lineno}")
    rings, pending = [], [w2frob.witt2.GaloisRing]
    while pending:
        cls = pending.pop()
        rings.append(cls)
        pending += cls.__subclasses__()
    assert {w2frob.FiniteField, w2frob.WittRing} <= set(rings)
    found += [
        f"{cls.__name__}.{name}"
        for cls in rings
        for name in ("__eq__", "__hash__")
        if name in vars(cls)
    ]
    assert not found, found
