"""Checks on the package source itself."""

import ast
import hashlib
import importlib
import os
import subprocess
import sys
from pathlib import Path

import w2frob
from test_cli import SWEEP_ALL_SHA256


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
    assert hashlib.sha256(out.stdout).hexdigest() == SWEEP_ALL_SHA256


def test_no_module_reads_the_environment():
    # a report is a function of argv alone, so no setting reaches it from outside
    names = {"environ", "environb", "getenv", "getenvb"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(w2frob.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in names
        or isinstance(node, ast.ImportFrom) and any(a.name in names for a in node.names)
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


def test_no_module_or_demo_reads_a_residue_through_the_residue_map():
    # an element of W2(F_p) is its residue mod p^2, so the package and the demos
    # read u.n; witt_to_residue_ring stays exported for perfbench and the tests
    root = Path(w2frob.__file__).parent
    paths = [*root.glob("*.py"), *(root.parent.parent / "demos").glob("*.py")]
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(paths)
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and "witt_to_residue_ring" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert not found, found


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


def _used_names(node, enclosing=frozenset()) -> set:
    """Names and attribute names read under ``node``, except inside a definition of the same name.

    Only loads count, so an assignment is not its own use.
    """
    used = set()
    for child in ast.iter_child_nodes(node):
        inner = enclosing
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = enclosing | {child.name}
        name = None
        if isinstance(child, (ast.Name, ast.Attribute)) and isinstance(child.ctx, ast.Load):
            name = child.id if isinstance(child, ast.Name) else child.attr
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
    assert sorted(exported - used) == []


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
    assert sorted(defined - used) == []


def test_every_module_constant_is_read():
    # a module-level name that no package module, demo or perfbench file reads is
    # a retired route's leftover
    read = _names_used_outside_the_tests()
    read |= {"__version__", *(name for target in _tracer_targets() for name in target[2:])}
    unread = [
        f"{path.name}:{name.id}"
        for path in sorted(Path(w2frob.__file__).parent.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        for name in ast.walk(target)
        if isinstance(name, ast.Name) and name.id not in read
    ]
    assert unread == []


def _json_reads(tree) -> list:
    """Line numbers of ``json.loads``/``json.load`` calls and of imports of either name."""
    readers = {"loads", "load"}
    return [
        node.lineno
        for node in ast.walk(tree)
        if (
            isinstance(node, ast.Attribute)
            and node.attr in readers
            and getattr(node.value, "id", None) == "json"
        )
        or (
            isinstance(node, ast.ImportFrom)
            and node.module == "json"
            and any(alias.name in readers for alias in node.names)
        )
    ]


def test_only_the_cli_parses_json():
    # frobctl reads JSON from its arguments alone; the library writes JSON and
    # reads none back, so json.loads has one caller, cli._json_loads
    package = Path(w2frob.__file__).parent
    found = [
        f"{path.name}:{line}"
        for path in sorted(package.glob("*.py"))
        if path.name != "cli.py"
        for line in _json_reads(ast.parse(path.read_text()))
    ]
    assert not found, found
    assert _json_reads(ast.parse((package / "cli.py").read_text()))  # the guard sees the one reader


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


def test_extension_ring_draws_take_their_one_slot_loop():
    # GaloisRing.random_int ORs each slot's draw into the int as it is drawn;
    # a list of the draws packed by _pack afterwards would build two sequences
    # for every coefficient of a seeded input over F_q or W2(F_q), q = p^m > 1
    witt2 = ast.parse((Path(w2frob.__file__).parent / "witt2.py").read_text())
    ring = next(n for n in witt2.body if isinstance(n, ast.ClassDef) and n.name == "GaloisRing")
    method = _function(ring, "random_int")
    comprehensions = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    assert not any(isinstance(node, comprehensions) for node in ast.walk(method))
    assert not any(isinstance(node, ast.Name) and node.id == "_pack" for node in ast.walk(method))
    assert "draw_below" in _called_names(method)


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


# the ring maps every GaloisRing builds as tables, m = 1 included
_RING_TABLES = {"frob_int", "inv_frob_int", "split_p"}


def test_only_build_tables_binds_the_ring_map_tables():
    # one route per map: a second binding (say an identity lambda for m = 1)
    # would compute Frobenius or the p-adic split beside the tables
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}".lstrip("."))
                continue
            if isinstance(child, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = getattr(child, "targets", None) or [child.target]
                found.extend(
                    f"{owner}.{target.attr}"
                    for top in targets
                    for target in ast.walk(top)
                    if isinstance(target, ast.Attribute) and target.attr in _RING_TABLES
                )
            visit(child, owner)

    for path in sorted(Path(w2frob.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    expected = [f"witt2.GaloisRing._build_tables.{name}" for name in sorted(_RING_TABLES)]
    assert sorted(found) == expected


def test_only_validate_checks_descriptor_value_types():
    # SurfaceDescriptor.validate checks each value's type once; from_json_dict
    # only maps keys, so no other function raises "must be of type"
    tree = ast.parse((Path(w2frob.__file__).parent / "classify.py").read_text())
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}".lstrip("."))
                continue
            if isinstance(child, ast.Constant) and "must be of type" in str(child.value):
                found.append(owner)
            visit(child, owner)

    visit(tree, "")
    assert found == ["SurfaceDescriptor.validate"]
    assert "validate" not in _called_names(_function(tree, "from_json_dict"))


def _classify_tree():
    return ast.parse((Path(w2frob.__file__).parent / "classify.py").read_text())


def test_classify_surface_takes_its_verdicts_from_the_clause_table():
    # the verdict policy lives in CLAUSES alone: classify_surface compares no
    # value with a string constant and builds a Verdict at one site
    fn = _function(_classify_tree(), "classify_surface")
    compares = [
        node.lineno
        for node in ast.walk(fn)
        if isinstance(node, ast.Compare)
        and any(_is_string_constant(operand) for operand in [node.left, *node.comparators])
    ]
    verdicts = [
        node.lineno
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Verdict"
    ]
    assert not compares, compares
    assert len(verdicts) == 1, verdicts


# the module-level names of classify.py that golden_table may read
_GOLDEN_READS = {
    "LIFTABLE", "NOT_LIFTABLE", "OUT_OF_SCOPE", "HYPERELLIPTIC_TYPES", "SurfaceDescriptor", "Verdict",
}


def test_golden_table_writes_its_citations_out():
    # golden_table is the oracle of CLAUSES, so it reads no shared citation
    # (nor CLAUSES itself) and its expected texts stay literal
    tree = _classify_tree()
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            defined |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    loaded = {
        node.id
        for node in ast.walk(_function(tree, "golden_table"))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    assert "SurfaceDescriptor" in loaded  # the guard sees the module's names
    assert sorted(loaded & defined - _GOLDEN_READS) == []
