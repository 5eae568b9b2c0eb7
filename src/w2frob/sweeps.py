"""Seeded property sweeps: each turns one claim into exact checks over many cases.

A sweep returns a list of check dicts (name, citation, trials, passes,
failures, ok).  ``frobctl`` prints them and the acceptance suite asserts
on them, so both run the same loops.  Randomness comes from
``random.Random(f"{seed}|<sweep>|...")``, so a check is deterministic for
a fixed seed; where the whole case space is small enough it is
enumerated instead of sampled.
"""

from __future__ import annotations

import math
import random

from . import classify as classify_mod
from .errors import SingularCurve
from .froblift import (
    eta_axioms_check,
    eta_between,
    monomial_lemma_check,
    phi_det,
    standard_lift,
    top_monomial,
)
from .polyalg import Poly, poly_to_str
from .projline import verify_p1_lift
from .randgen import random_chart_lift, random_exponent_matrix, random_poly
from .ruled import (
    TransitionData,
    base_glue_consistency,
    build_standard_lift,
    extract_base_lift,
    hirzebruch_transition,
    verify_gluing,
)
from .witt2 import GF, W2, witt_to_residue_ring


def _check(name: str, citation: str, verdicts: list, failures: list) -> dict:
    """One report entry; ``verdicts`` holds True for each trial that passed.

    ``failures`` are the witnesses: a trial may contribute several, and a
    property of the whole check (not tied to one trial) may add its own.
    A check that ran no trial is not ok.
    """
    return {
        "name": name,
        "citation": citation,
        "trials": len(verdicts),
        "passes": sum(verdicts),
        "failures": failures[:5],
        "ok": bool(verdicts) and not failures,
    }


def _witt_sum(p: int, a: tuple, b: tuple) -> tuple:
    """Length-2 Witt sum over F_p on plain-int coordinates: the model sweep_witt checks."""
    (a0, a1), (b0, b1) = a, b
    carry = sum(math.comb(p, i) // p * a0 ** i * b0 ** (p - i) for i in range(1, p))
    return (a0 + b0) % p, (a1 + b1 - carry) % p


def _witt_product(p: int, a: tuple, b: tuple) -> tuple:
    """Length-2 Witt product over F_p; its p*a1*b1 term vanishes in characteristic p."""
    (a0, a1), (b0, b1) = a, b
    return a0 * b0 % p, (a0 ** p * b1 + b0 ** p * a1) % p


def sweep_witt(p_list, trials, seed) -> list:
    """W2(F_p) and its map to Z/p^2 against the component formulas.

    Every pair is checked when p <= 3 or p^4 <= trials, and every element
    against (a0, a1) -> a0^p + p*a1.
    """
    checks = []
    for p in p_list:
        rng = random.Random(f"{seed}|witt|{p}")
        ring = W2(p)

        def coords(u):
            return tuple(c.as_int() for c in ring.witt_coords(u))

        elems = list(ring.elements())
        if p <= 3 or p ** 4 <= trials:
            pairs = [(u, v) for u in elems for v in elems]
        else:
            pairs = [(rng.choice(elems), rng.choice(elems)) for _ in range(trials)]
        verdicts, failures = [], []
        for u, v in pairs:
            a, b = coords(u), coords(v)
            bad = [
                {"op": op, "u": repr(u), "v": repr(v)}
                for op, holds in (
                    ("add", coords(u + v) == _witt_sum(p, a, b)),
                    ("mul", coords(u * v) == _witt_product(p, a, b)),
                )
                if not holds
            ]
            verdicts.append(not bad)
            failures.extend(bad)
        for u in elems:
            a0, a1 = coords(u)
            if witt_to_residue_ring(u).rep != (a0 ** p + p * a1) % (p * p):
                failures.append({"op": "residue", "u": repr(u)})
        checks.append(
            _check(
                f"witt-oracle-p{p}",
                "residue-ring model intertwines the length-2 Witt operations",
                verdicts,
                failures,
            )
        )
    return checks


def sweep_phi_det(p_list, n_list, trials, seed) -> list:
    checks = []
    for p in p_list:
        field = GF(p)
        for n in n_list:
            rng = random.Random(f"{seed}|phi|{p}|{n}")
            verdicts, failures = [], []
            for _ in range(trials):
                lift = random_chart_lift(rng, field, n)
                det = phi_det(lift)
                top = det.coefficient_of(top_monomial(lift))
                ok = not det.is_zero() and top == field.one
                verdicts.append(ok)
                if not ok:
                    witness = {"corrections": [poly_to_str(f) for f in lift.corrections]}
                    if not det.is_zero():
                        witness["coefficient"] = field.coeff_to_str(top)
                    failures.append(witness)
            checks.append(
                _check(
                    f"phi-det-p{p}-n{n}",
                    "generic bijectivity: top-monomial coefficient of det(phi) is 1",
                    verdicts,
                    failures,
                )
            )
    return checks


def sweep_monomial_lemma(p, max_n, trials, seed) -> list:
    rng = random.Random(f"{seed}|lemma|{p}")
    verdicts, failures = [], []
    for _ in range(trials):
        n = rng.randint(1, max_n)
        m = rng.randint(1, n)
        K = random_exponent_matrix(rng, p, m, n)
        res = monomial_lemma_check(K, p)
        verdicts.append(res.ok)
        if not res.ok:
            failures.append({"K": K, "failures": res.failures})
    return [
        _check(
            f"monomial-lemma-p{p}",
            "column-sum lemma: zero top coefficient and the closed determinant form",
            verdicts,
            failures,
        )
    ]


def sweep_eta(p, lift_pairs, elem_pairs, seed) -> list:
    field = GF(p)
    rng = random.Random(f"{seed}|eta|{p}")
    verdicts, failures = [], []
    for _ in range(lift_pairs):
        n = rng.randint(1, 2)
        f1 = random_chart_lift(rng, field, n)
        f2 = random_chart_lift(rng, field, n)
        eta = eta_between(f1, f2)
        for _ in range(elem_pairs):
            a = random_poly(rng, field, n, p, 3)
            b = random_poly(rng, field, n, p, 3)
            res = eta_axioms_check(eta, a, b)
            verdicts.append(res.ok)
            if not res.ok:
                failures.append(res.failures[0])
    return [
        _check(
            f"eta-axioms-p{p}",
            "difference calculus: additivity and the twisted Leibniz rule",
            verdicts,
            failures,
        )
    ]


def sweep_p1(p) -> list:
    """verify_p1_lift on x^d over a point, d in 0..3p: it holds exactly when d <= 2p."""
    field = GF(p)
    base = standard_lift(field, 0)
    verdicts, failures = [], []
    for d in range(3 * p + 1):
        res = verify_p1_lift(base, Poly.monomial(field, 1, (d,)))
        ok = res.ok == (d <= 2 * p)
        verdicts.append(ok)
        if not ok:
            failures.append({"degree": d, "verified": res.ok, "failures": res.failures})
    return [
        _check(
            f"p1-degree-bound-p{p}",
            "chart extension exists exactly up to fiber degree 2p; 2p+1 monomials",
            verdicts,
            failures,
        )
    ]


def _ruled_cases(field):
    u = Poly.variable(field, 1, 0)
    one = Poly.constant(field, 1, 1)
    yield "F0", hirzebruch_transition(field, 0)
    yield "F2", hirzebruch_transition(field, 2)
    yield "F3", hirzebruch_transition(field, 3)
    yield "A1-shear", TransitionData("A1", one, u)
    yield "Gm-shear", TransitionData(
        "Gm", u, u + Poly.monomial(field, 1, (-1,))
    )


def sweep_ruled(p, seed) -> list:
    """One trial per surface: gluing, deg h, base lifts on all four charts, 25 eta pairs."""
    field = GF(p)
    rng = random.Random(f"{seed}|ruled|{p}")
    checks = []
    for name, T in _ruled_cases(field):
        failures = []
        lift = build_standard_lift(T)
        glue = verify_gluing(lift)
        failures.extend(glue.failures)
        deg_h = lift.h.degree_in(1)
        if deg_h is not None and deg_h > p:
            failures.append({"deg_h": deg_h})
        for chart in lift.charts.values():
            # raises unless every fiber tail is divisible by p, i.e. killed by p
            extract_base_lift(chart)
        consistency = base_glue_consistency(lift)
        failures.extend(consistency.failures)
        eta = consistency.details["eta"]
        for _ in range(25):
            a = random_poly(rng, field, 1, p, 3)
            b = random_poly(rng, field, 1, p, 3)
            failures.extend(eta_axioms_check(eta, a, b).failures)
        checks.append(
            _check(
                f"ruled-{name}-p{p}",
                "standard four-chart lift: gluing, degree of h, base-lift extraction",
                [not failures],
                failures,
            )
        )
    return checks


def sweep_classify() -> list:
    verdicts, failures = [], []
    for desc, expected in classify_mod.golden_table():
        got = classify_mod.classify_surface(desc)
        verdicts.append(got == expected)
        if got != expected:
            failures.append(
                {
                    "descriptor": desc.to_json_dict(),
                    "expected": expected.to_json_dict(),
                    "got": got.to_json_dict(),
                }
            )
    return [
        _check(
            "golden-table",
            "classification theorem and the hyperelliptic liftability table",
            verdicts,
            failures,
        )
    ]


def sweep_hasse(p_list) -> list:
    checks = []
    for p in p_list:
        verdicts, failures = [], []
        for a in range(p):
            for b in range(p):
                try:
                    E = classify_mod.WeierstrassCurve.short_form(p, a, b)
                except SingularCurve:
                    continue
                by_hasse = not classify_mod.hasse_invariant(E).is_zero()
                by_count = E.trace() % p != 0
                verdicts.append(by_hasse == by_count)
                if by_hasse != by_count:
                    failures.append({"a": a, "b": b})
        checks.append(
            _check(
                f"hasse-vs-count-p{p}",
                "ordinarity: Hasse invariant nonzero iff trace not divisible by p",
                verdicts,
                failures,
            )
        )
    return checks
