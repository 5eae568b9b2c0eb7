"""The four seeded check workloads of the time-to-verdict benchmark.

A workload turns ``(seed, rep)`` into one sweep: a fixed-shape list of
checks whose random parts come from ``random.Random(f"{seed}|{name}|{rep}")``.
Every check calls the library's public functions, compares the result with
what the theorem predicts, and returns the computed values; ``describe``
turns those values into the canonical text that feeds the output digest.

The library modules are always called through their module attribute
(``froblift.apply_lift``, never a copy bound here), so that the tracer's
wrappers see every call the benchmark makes.

Each sweep is stratified: the number of checks per prime, field, surface
kind or check kind is fixed, and only the values inside each stratum are
random.  That keeps the cost of a sweep, and its latency quantiles, close
across seeds.
"""

from __future__ import annotations

import random

from w2frob import classify, froblift, polyalg, randgen, ruled, witt2


def _rng(seed: int, name: str, rep: int) -> random.Random:
    return random.Random(f"{seed}|{name}|{rep}")


# ---------------------------------------------------------------------------
# eta-lifts and eta-ext: additivity and twisted Leibniz through two lifts
# ---------------------------------------------------------------------------


def _poly(rng, field, nvars: int, max_deg: int, nterms: int):
    """randgen.random_poly (up to 3 terms, degree <= max_deg), redrawn until it has ``nterms``."""
    while True:
        f = randgen.random_poly(rng, field, nvars, max_deg, 3)
        if len(f.terms) == nterms:
            return f


class EtaWorkload:
    """eta_axioms_check with a recorded source pair, so both laws go through apply_lift.

    The cost of an eta check grows steeply with the term counts of the lift
    corrections and of the elements, which ``randgen`` draws at random from
    0 to 3 (criterion 4's traffic).  A sweep keeps that range but fixes how
    many checks have each count.  Per field: a pair of chart lifts for each
    n in {1, 2} and correction term count t in 0..3 (every correction of
    both lifts has t terms), and four element pairs per lift pair with
    (j, (j + t) mod 4) terms for j in 0..3, so that every pair of element
    term counts occurs once per n.  Monomials and coefficients are drawn as
    ``randgen`` draws them, with degree <= p.
    """

    def __init__(self, name: str, fields):
        self.name = name
        self.fields = fields  # (p, m) pairs

    def generate(self, seed: int, rep: int) -> list:
        rng = _rng(seed, self.name, rep)
        items = []
        for p, m in self.fields:
            field = witt2.GF(p, m)
            for n in (1, 2):
                for t in range(4):
                    f1, f2 = (
                        froblift.AffineChartLift(
                            field, n, (False,) * n, [_poly(rng, field, n, p, t) for _ in range(n)]
                        )
                        for _ in range(2)
                    )
                    eta = froblift.eta_between(f1, f2)
                    for j in range(4):
                        a = _poly(rng, field, n, p, j)
                        b = _poly(rng, field, n, p, (j + t) % 4)
                        items.append(("eta", eta, a, b))
        return items

    @staticmethod
    def check(item):
        _, eta, a, b = item
        res = froblift.eta_axioms_check(eta, a, b)
        return res.ok, (eta(a), res.failures)

    @staticmethod
    def describe(item, value) -> str:
        eta_a, failures = value
        a, b = (polyalg.poly_to_str(f) for f in item[2:])
        return f"eta {a} {b} -> {polyalg.poly_to_str(eta_a)} {len(failures)}"


# ---------------------------------------------------------------------------
# ruled-gluing: standard four-chart lifts of seeded ruled surfaces
# ---------------------------------------------------------------------------


def _sparse_b(rng, field, exponents, nterms: int):
    """A transition offset with exactly ``nterms`` nonzero terms at distinct exponents."""
    exps = rng.sample(exponents, nterms)
    terms = {(e,): field.from_int(rng.randrange(1, field.p)) for e in exps}
    return polyalg.Poly(field, 1, terms)


def _unit_const(rng, field):
    return field.from_int(rng.randrange(1, field.p))


class RuledWorkload:
    """build_standard_lift, verify_gluing, extract_base_lift and base_glue_consistency.

    The cost of a surface is set by p, its kind and the number of terms of
    the offset b, so ``STRATA`` fixes how many surfaces of each shape a
    sweep holds; n, the exponents and the coefficients are random.  The
    counts put each latency quantile inside one group of similar cost:
    p50 among the cheap surfaces (Hirzebruch, one-term shears at p <= 3,
    two thirds of the sweep), p90 among the two-term A1 shears at p = 5,
    and the long tail at the two-term shears at p = 7.
    """

    name = "ruled-gluing"
    # (p, base kind, terms of b, surfaces per sweep)
    STRATA = tuple((p, "P1", 0, 6) for p in (2, 3, 5, 7)) + (
        (2, "A1", 1, 2), (2, "Gm", 1, 2), (3, "A1", 1, 2), (3, "Gm", 1, 2),
        (5, "A1", 1, 1), (5, "Gm", 1, 1), (7, "A1", 1, 1), (7, "Gm", 1, 1),
        (2, "A1", 2, 1), (2, "Gm", 2, 1), (3, "A1", 2, 1), (3, "Gm", 2, 1),
        (5, "A1", 2, 6),
        (7, "A1", 2, 1), (7, "Gm", 2, 1),
    )

    def generate(self, seed: int, rep: int) -> list:
        rng = _rng(seed, self.name, rep)
        items = []
        for p, kind, nterms, count in self.STRATA:
            field = witt2.GF(p)
            for _ in range(count):
                if kind == "P1":
                    T = ruled.hirzebruch_transition(field, rng.randint(0, 4))
                elif kind == "A1":
                    a = polyalg.Poly.constant(field, 1, _unit_const(rng, field))
                    T = ruled.TransitionData("A1", a, _sparse_b(rng, field, [0, 1, 2], nterms))
                else:
                    a = polyalg.Poly.monomial(
                        field, 1, (rng.choice((-1, 0, 1)),), _unit_const(rng, field)
                    )
                    T = ruled.TransitionData("Gm", a, _sparse_b(rng, field, [-1, 0, 1], nterms))
                items.append((p, T))
        return items

    @staticmethod
    def check(item):
        p, T = item
        lift = ruled.build_standard_lift(T)
        glue = ruled.verify_gluing(lift)
        extractions = [ruled.extract_base_lift(lift.charts[key]) for key in ("UX", "VY")]
        consistency = ruled.base_glue_consistency(lift)
        deg_h = lift.h.degree_in(1)
        ok = glue.ok and consistency.ok and (deg_h is None or deg_h <= p)
        return ok, (lift, glue, extractions, consistency)

    @staticmethod
    def describe(item, value) -> str:
        lift, glue, extractions, consistency = value
        parts = [repr(item[1]), polyalg.poly_to_str(lift.h), ",".join(glue.details["checked"])]
        for ext in extractions:
            parts.extend(polyalg.poly_to_str(f) for f in ext.f0.corrections)
            parts.extend(f"{key}:{polyalg.poly_to_str(t)}" for key, t in sorted(ext.tails.items()))
        parts.append(consistency.details["eta_u"])
        parts.append(str(len(glue.failures) + len(consistency.failures)))
        return " ".join(parts)


# ---------------------------------------------------------------------------
# field-checks: the checks that never build a W2 polynomial
# ---------------------------------------------------------------------------


def _nonsingular_short_form(rng, p: int):
    """(a, b) with 4a^3 + 27b^2 != 0 mod p, so y^2 = x^3 + ax + b is an elliptic curve."""
    while True:
        a, b = rng.randrange(p), rng.randrange(p)
        if (4 * a ** 3 + 27 * b * b) % p:
            return a, b


class FieldWorkload:
    """phi_det, the column-sum lemma, Hasse vs point count, the golden table, the Witt oracle.

    Per sweep: 4 random lifts for each p in {2, 3, 5} and n in 1..4; 32
    exponent matrices for each p in {2, 3, 5}; 4 curves for each p in
    {5, 7, 11, 13, 17}; the golden table once; two batches of 100 random
    pairs of W2(F_p) for each p <= 17.  The lemma checks, the cheapest, are
    just over half of the sweep, so p50 falls among them; p90 falls among
    the Hasse and Witt-oracle checks.
    """

    name = "field-checks"

    def generate(self, seed: int, rep: int) -> list:
        rng = _rng(seed, self.name, rep)
        items = []
        for p in (2, 3, 5):
            field = witt2.GF(p)
            for n in (1, 2, 3, 4):
                for _ in range(4):
                    items.append(("phi", randgen.random_chart_lift(rng, field, n)))
        for p in (2, 3, 5):
            for _ in range(32):
                n = rng.randint(1, 3)
                m = rng.randint(1, n)
                items.append(("lemma", p, randgen.random_exponent_matrix(rng, p, m, n)))
        for p in (5, 7, 11, 13, 17):
            for _ in range(4):
                items.append(("hasse", p) + _nonsingular_short_form(rng, p))
        items.append(("golden", classify.golden_table()))
        for p in (2, 3, 5, 7, 11, 13, 17):
            ring = witt2.W2(p)
            for _ in range(2):
                items.append(("witt", [(ring.random(rng), ring.random(rng)) for _ in range(100)]))
        return items

    @staticmethod
    def check(item):
        kind = item[0]
        if kind == "phi":
            lift = item[1]
            det = froblift.phi_det(lift)
            top = det.coefficient_of(froblift.top_monomial(lift))
            return (not det.is_zero()) and top == lift.field.one, det
        if kind == "lemma":
            res = froblift.monomial_lemma_check(item[2], item[1])
            return res.ok, res.details
        if kind == "hasse":
            _, p, a, b = item
            curve = classify.WeierstrassCurve.short_form(p, a, b)
            invariant = classify.hasse_invariant(curve)
            points = curve.count_points()
            ordinary_by_count = (p + 1 - points) % p != 0
            return (not invariant.is_zero()) == ordinary_by_count, (invariant, points)
        if kind == "golden":
            got = [classify.classify_surface(desc) for desc, _ in item[1]]
            return all(g == e for g, (_, e) in zip(got, item[1])), got
        if kind == "witt":
            to_res = witt2.witt_to_residue_ring
            out, ok = [], True
            for u, v in item[1]:
                s, t = u + v, u * v
                ru, rv = to_res(u), to_res(v)
                ok = ok and to_res(s) == ru + rv and to_res(t) == ru * rv
                out.append((s, t))
            return ok, out
        raise ValueError(f"unknown check kind {kind!r}")

    @staticmethod
    def describe(item, value) -> str:
        kind = item[0]
        if kind == "phi":
            return f"phi {froblift.lift_to_json(item[1])} {polyalg.poly_to_str(value)}"
        if kind == "lemma":
            return f"lemma {item[1]} {item[2]} {value['det_block_mod_p']} {value['expanded']}"
        if kind == "hasse":
            invariant, points = value
            return f"hasse {item[1:]} {invariant!r} {points}"
        if kind == "golden":
            return "golden " + ";".join(f"{v.outcome}|{v.citation}|{v.note}" for v in value)
        return "witt " + " ".join(
            f"{witt2.witt_to_str(s)},{witt2.witt_to_str(t)}" for s, t in value
        )


WORKLOADS = {
    w.name: w
    for w in (
        EtaWorkload("eta-lifts", ((2, 1), (3, 1), (5, 1))),
        EtaWorkload("eta-ext", ((2, 2), (2, 3), (3, 2))),
        RuledWorkload(),
        FieldWorkload(),
    )
}
