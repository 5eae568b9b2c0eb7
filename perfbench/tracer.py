"""Wrapper tracing around the public functions of each w2frob layer.

``Tracer.install`` replaces every target function with a wrapper at every
binding the package holds: the defining module, any module that imported
it by name (``ruled.substitute``), the package namespace, and class
attributes including aliases (``Poly.__rmul__`` is ``Poly.__mul__``).
``uninstall`` puts the originals back.  Nothing in the library is edited.

Per wrapped name the tracer keeps the call count, the inclusive time of
outermost calls (a recursive call is not counted twice) and the self time
(span time minus the time of wrapped children).  Time spent in unwrapped
helpers, such as an element's ``is_zero``, counts toward the wrapped
caller.  Spans (id, parent id, check id, name, start, end) are kept in
memory for calls that cross a layer boundary above ``witt2``; coefficient
operations are counted and timed but not stored, since a sweep makes
millions of them.
"""

from __future__ import annotations

import sys
from time import perf_counter

# spans kept in memory per traced run; later ones are counted as dropped
MAX_SPANS = 200_000

# (layer, metric name, owner, attribute): owner is a module or class name in that layer
TARGETS = (
    ("witt2", "fq_add", "FqElem", "__add__"),
    ("witt2", "fq_sub", "FqElem", "__sub__"),
    ("witt2", "fq_sub", "FqElem", "__rsub__"),
    ("witt2", "fq_neg", "FqElem", "__neg__"),
    ("witt2", "fq_mul", "FqElem", "__mul__"),
    ("witt2", "fq_inverse", "FqElem", "inverse"),
    ("witt2", "fq_frobenius", "FqElem", "frobenius"),
    ("witt2", "w2_add", "WittRing", "add"),
    ("witt2", "w2_neg", "WittRing", "neg"),
    ("witt2", "w2_mul", "WittRing", "mul"),
    ("witt2", "w2_pow", "WittPair", "__pow__"),
    ("witt2", "w2_frobenius", "WittPair", "frobenius"),
    ("witt2", "zp2_add", "Zp2Elem", "__add__"),
    ("witt2", "zp2_mul", "Zp2Elem", "__mul__"),
    ("witt2", "to_residue_ring", None, "witt_to_residue_ring"),
    ("polyalg", "add", "Poly", "__add__"),
    ("polyalg", "sub", "Poly", "__sub__"),
    ("polyalg", "sub", "Poly", "__rsub__"),
    ("polyalg", "neg", "Poly", "__neg__"),
    ("polyalg", "mul", "Poly", "__mul__"),
    ("polyalg", "pow", "Poly", "__pow__"),
    ("polyalg", "eq", "Poly", "__eq__"),
    ("polyalg", "partial_derivative", "Poly", "partial_derivative"),
    ("polyalg", "map_coefficients", "Poly", "map_coefficients"),
    ("polyalg", "collect_by_var", "Poly", "collect_by_var"),
    ("polyalg", "det", "PolyMatrix", "determinant"),
    ("polyalg", "substitute", None, "substitute"),
    ("polyalg", "frobenius_substitute", None, "frobenius_substitute"),
    ("polyalg", "reduce_mod_p", None, "reduce_mod_p"),
    ("polyalg", "divide_by_p", None, "divide_by_p"),
    ("polyalg", "embed_times_p", None, "embed_times_p"),
    ("polyalg", "canonical_lift", None, "canonical_lift"),
    ("polyalg", "invert_unit", None, "invert_unit"),
    ("polyalg", "poly_to_str", None, "poly_to_str"),
    ("froblift", "lift_init", "AffineChartLift", "__init__"),
    ("froblift", "image_of_var", "AffineChartLift", "image_of_var"),
    ("froblift", "image_of_var_power", "AffineChartLift", "image_of_var_power"),
    ("froblift", "apply_lift", None, "apply_lift"),
    ("froblift", "eta_closed", "EtaFunction", "__call__"),
    ("froblift", "via_lifts", "EtaFunction", "via_lifts"),
    ("froblift", "eta_between", None, "eta_between"),
    ("froblift", "eta_axioms_check", None, "eta_axioms_check"),
    ("froblift", "phi_matrix", None, "phi_matrix"),
    ("froblift", "phi_det", None, "phi_det"),
    ("froblift", "standard_lift", None, "standard_lift"),
    ("froblift", "monomial_lemma_check", None, "monomial_lemma_check"),
    ("projline", "extend_chart", None, "extend_chart"),
    ("ruled", "transition_init", "TransitionData", "__init__"),
    ("ruled", "base_lift_init", "BaseLift", "__init__"),
    ("ruled", "hirzebruch_transition", None, "hirzebruch_transition"),
    ("ruled", "standard_base_lift", None, "standard_base_lift"),
    ("ruled", "build", None, "build_standard_lift"),
    ("ruled", "verify_gluing", None, "verify_gluing"),
    ("ruled", "extract_base", None, "extract_base_lift"),
    ("ruled", "base_glue", None, "base_glue_consistency"),
    ("classify", "curve_init", "WeierstrassCurve", "__init__"),
    ("classify", "count_points", "WeierstrassCurve", "count_points"),
    ("classify", "hasse", None, "hasse_invariant"),
    ("classify", "classify_surface", None, "classify_surface"),
    ("classify", "validate", "SurfaceDescriptor", "validate"),
)


class _Rec:
    """Running totals of one wrapped name."""

    __slots__ = ("layer", "calls", "incl", "self_s", "depth")

    def __init__(self, layer: str):
        self.layer = layer
        self.calls = 0
        self.incl = 0.0
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    """Counts, times and spans of the wrapped calls, accumulated over the sweeps it traces."""

    def __init__(self):
        self.recs: dict = {}
        self.spans: list = []
        self.spans_dropped = 0
        self.check_id = 0
        self.term_products = 0
        self.max_terms = 0
        self.power_calls = 0
        self.power_distinct = 0
        self._power_keys: set = set()
        self._power_lifts: dict = {}
        # frames of the active wrapped calls: [child time, layer, span id]
        self._stack: list = []
        self._next_span = 1
        self._patches: list = []

    # -- installation ------------------------------------------------------

    def install(self):
        pkg_modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == "w2frob" or name.startswith("w2frob."))
        ]
        for layer, metric, owner, attr in TARGETS:
            module = sys.modules[f"w2frob.{layer}"]
            rec = self.recs.setdefault(f"{layer}.{metric}", _Rec(layer))
            if owner is None:
                original = getattr(module, attr)
                holders = pkg_modules
            else:
                original = getattr(module, owner).__dict__[attr]
                holders = [getattr(module, owner)]
            wrapper = self._wrap(original, rec, self._hook(layer, metric))
            for holder in holders:
                names = vars(holder)
                for name, value in list(names.items()):
                    if value is original:
                        self._patches.append((holder, name, original))
                        setattr(holder, name, wrapper)

    def uninstall(self):
        for holder, name, original in reversed(self._patches):
            setattr(holder, name, original)
        self._patches.clear()

    def _hook(self, layer: str, metric: str):
        if metric == "mul" and layer == "polyalg":
            return self._after_poly_mul
        if metric == "image_of_var_power":
            return self._after_power
        if layer == "polyalg":
            return self._after_poly
        return None

    def _after_poly(self, args, result):
        n = len(getattr(result, "terms", ()))
        if n > self.max_terms:
            self.max_terms = n

    def _after_poly_mul(self, args, result):
        other = args[1]
        if hasattr(other, "terms"):
            self.term_products += len(args[0].terms) * len(other.terms)
        self._after_poly(args, result)

    def _after_power(self, args, result):
        lift, i, e = args
        self.power_calls += 1
        self._power_keys.add((id(lift), i, e))
        self._power_lifts[id(lift)] = lift  # no id is reused within a sweep

    def _wrap(self, fn, rec: _Rec, hook):
        stack = self._stack
        tracer = self
        layer = rec.layer
        store = layer != "witt2"
        name = fn.__qualname__

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = 0
            if store and (parent is None or parent[1] != layer):
                span_id = tracer._next_span
                tracer._next_span += 1
            frame = [0.0, layer, span_id or (parent[2] if parent else 0)]
            stack.append(frame)
            rec.depth += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                stack.pop()
                rec.depth -= 1
                rec.calls += 1
                rec.self_s += dt - frame[0]
                if not rec.depth:
                    rec.incl += dt
                if parent is not None:
                    parent[0] += dt
                if span_id:
                    tracer._record(span_id, parent[2] if parent else 0, name, t0, t1)
            if hook is not None:
                hook(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    def _record(self, span_id, parent_id, name, t0, t1):
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, parent_id, self.check_id, name, t0, t1))
        else:
            self.spans_dropped += 1

    # -- results -------------------------------------------------------------

    def end_sweep(self):
        """Fold the sweep's distinct power requests into the total and drop its lifts."""
        self.power_distinct += len(self._power_keys)
        self._power_keys.clear()
        self._power_lifts.clear()

    def calls(self, key: str) -> int:
        return self.recs[key].calls

    def incl(self, key: str) -> float:
        return self.recs[key].incl

    def layer_self(self, layer: str) -> float:
        return sum(r.self_s for r in self.recs.values() if r.layer == layer)

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("span\tparent\tcheck\tname\tstart_s\tend_s\n")
            for span_id, parent_id, check_id, name, t0, t1 in self.spans:
                fh.write(f"{span_id}\t{parent_id}\t{check_id}\t{name}\t{t0:.9f}\t{t1:.9f}\n")
