"""Property sweeps: each turns one claim into exact checks over many cases.

A sweep returns a list of check dicts (name, citation, trials, passes,
failures, ok).  ``frobctl`` prints them and the acceptance suite asserts
on them, so both run the same loops.  A sweep keeps one witness list per
trial and no verdict: a trial passed exactly when its list is empty, and
``_check`` derives the counts and ``ok`` from the lists.  A sweep whose
whole case space is small enough enumerates it and takes no seed, as
``sweep_witt`` does with every pair of W2(F_p).  The others sample from
``random.Random(f"{seed}|<sweep>|...")``, so a check is deterministic
for a fixed seed.
"""

from __future__ import annotations

import random

from . import classify as classify_mod
from .errors import SingularCurve
from .froblift import (
    AffineChartLift,
    eta_axioms_check,
    eta_between,
    monomial_lemma_check,
    phi_det,
    top_monomial,
)
from .polyalg import Poly, poly_to_str
from .projline import verify_p1_lift
from .randgen import random_chart_lift, random_exponent_matrix, random_poly
from .ruled import (
    TransitionData,
    base_glue_consistency,
    build_standard_lift,
    hirzebruch_transition,
    verify_gluing,
)
from .witt2 import GF, W2, draw_below, witt_to_residue_ring


def _check(name: str, citation: str, trials: list, extra=()) -> dict:
    """One report entry from one witness list per trial.

    A trial passed when its list is empty.  ``extra`` holds the witnesses
    of properties of the whole check, tied to no trial.  The verdict is
    derived here and nowhere else: a check is ok when it ran a trial and
    has no witness of either kind.  ``failures`` keeps the first five
    witnesses, trials first; ``trials`` and ``passes`` count every trial.
    """
    failures = [w for witnesses in trials for w in witnesses] + list(extra)
    return {
        "name": name,
        "citation": citation,
        "trials": len(trials),
        "passes": sum(not witnesses for witnesses in trials),
        "failures": failures[:5],
        "ok": bool(trials) and not failures,
    }


def _witt_sum(p: int, a: tuple, b: tuple) -> tuple:
    """Length-2 Witt sum over F_p on plain-int coordinates: the model sweep_witt checks."""
    (a0, a1), (b0, b1) = a, b
    carry = ((a0 + b0) ** p - a0 ** p - b0 ** p) // p
    return (a0 + b0) % p, (a1 + b1 - carry) % p


def _witt_product(p: int, a: tuple, b: tuple) -> tuple:
    """Length-2 Witt product over F_p; its p*a1*b1 term vanishes in characteristic p."""
    (a0, a1), (b0, b1) = a, b
    return a0 * b0 % p, (a0 ** p * b1 + b0 ** p * a1) % p


def sweep_witt(p_list) -> list:
    """W2(F_p) and its map to Z/p^2 against the component formulas.

    Every pair is checked for add and mul, and every element against
    (a0, a1) -> a0^p + p*a1.  The pairs call the ring's ``add`` and ``mul``,
    the kernel entries every element operator reaches.
    """
    checks = []
    for p in p_list:
        ring = W2(p)
        add, mul = ring.add, ring.mul
        elems = list(ring.elements())
        coords = {u.n: tuple(c.as_int() for c in ring.witt_coords(u)) for u in elems}
        per_trial = [
            [
                {"op": op, "u": repr(u), "v": repr(v)}
                for op, w, model in (
                    ("add", add(u, v), _witt_sum),
                    ("mul", mul(u, v), _witt_product),
                )
                if coords[w.n] != model(p, coords[u.n], coords[v.n])
            ]
            for u in elems
            for v in elems
        ]
        residue = [
            {"op": "residue", "u": repr(u)}
            for u in elems
            for a0, a1 in [coords[u.n]]
            if witt_to_residue_ring(u).rep != (a0 ** p + p * a1) % (p * p)
        ]
        checks.append(
            _check(
                f"witt-oracle-p{p}",
                "residue-ring model intertwines the length-2 Witt operations",
                per_trial,
                residue,
            )
        )
    return checks


def sweep_phi_det(p_list, n_list, trials, seed) -> list:
    checks = []
    for p in p_list:
        field = GF(p)
        for n in n_list:
            rng = random.Random(f"{seed}|phi|{p}|{n}")
            per_trial = []
            for _ in range(trials):
                lift = random_chart_lift(rng, field, n)
                det = phi_det(lift)
                top = det.coefficient_of(top_monomial(lift))  # 0 when det is 0
                witnesses = []
                if top != field.one:
                    witnesses.append({"corrections": [poly_to_str(f) for f in lift.corrections]})
                    if not det.is_zero():
                        witnesses[0]["coefficient"] = field.coeff_to_str(top)
                per_trial.append(witnesses)
            checks.append(
                _check(
                    f"phi-det-p{p}-n{n}",
                    "generic bijectivity: top-monomial coefficient of det(phi) is 1",
                    per_trial,
                )
            )
    return checks


def sweep_monomial_lemma(p, max_n, trials, seed) -> list:
    rng = random.Random(f"{seed}|lemma|{p}")
    per_trial = []
    for _ in range(trials):
        n = 1 + draw_below(rng, max_n)
        m = 1 + draw_below(rng, n)
        K = random_exponent_matrix(rng, p, m, n)
        res = monomial_lemma_check(K, p)
        per_trial.append([{"K": K, "failures": res.failures}] if res.failures else [])
    return [
        _check(
            f"monomial-lemma-p{p}",
            "column-sum lemma: zero top coefficient and the closed determinant form",
            per_trial,
        )
    ]


def sweep_eta(p, lift_pairs, elem_pairs, seed) -> list:
    field = GF(p)
    rng = random.Random(f"{seed}|eta|{p}")
    per_trial = []
    for _ in range(lift_pairs):
        n = 1 + draw_below(rng, 2)
        f1 = random_chart_lift(rng, field, n)
        f2 = random_chart_lift(rng, field, n)
        eta = eta_between(f1, f2)
        for _ in range(elem_pairs):
            a = random_poly(rng, field, n, p, 3)
            b = random_poly(rng, field, n, p, 3)
            per_trial.append(eta_axioms_check(eta, a, b).failures[:1])
    return [
        _check(
            f"eta-axioms-p{p}",
            "difference calculus: additivity and the twisted Leibniz rule",
            per_trial,
        )
    ]


def sweep_p1(p) -> list:
    """verify_p1_lift on x^d over a point, d in 0..3p: it holds exactly when d <= 2p."""
    field = GF(p)
    per_trial = []
    for d in range(3 * p + 1):
        res = verify_p1_lift(Poly.monomial(field, 1, (d,)))
        witness = {"degree": d, "verified": res.ok, "failures": res.failures}
        per_trial.append([] if res.ok == (d <= 2 * p) else [witness])
    return [
        _check(
            f"p1-degree-bound-p{p}",
            "chart extension exists exactly up to fiber degree 2p; 2p+1 monomials",
            per_trial,
        )
    ]


def _ruled_cases(field):
    u = Poly.variable(field, 1, 0)
    one = Poly.constant(field, 1, 1)
    yield "F0", hirzebruch_transition(field, 0)
    yield "F2", hirzebruch_transition(field, 2)
    yield "F3", hirzebruch_transition(field, 3)
    yield "A1-shear", TransitionData("A1", one, u)
    yield "Gm-shear", TransitionData("Gm", u, u + Poly.monomial(field, 1, (-1,)))


def sweep_ruled(p) -> list:
    """One trial per surface: gluing, base consistency, and a control.

    deg_y h <= p needs no witness here: ``build_standard_lift`` raises
    InvariantViolation for any larger h before it returns a lift.  The
    control raises the VY chart's base correction by 1.  Gluing must
    then fail, and base consistency must fail with a nonzero eta; a check
    that misses the bump adds a witness naming it.
    """
    checks = []
    for name, T in _ruled_cases(GF(p)):
        lift = build_standard_lift(T)
        witnesses = verify_gluing(lift).failures + base_glue_consistency(lift).failures
        # the control: the VY chart's base image moved by p
        vy = lift.charts["VY"]
        fv, h = vy.corrections
        bumped_vy = AffineChartLift(vy.field, 2, vy.laurent_mask, (fv + 1, h))
        bumped = lift._replace(charts={**lift.charts, "VY": bumped_vy})
        consistency = base_glue_consistency(bumped)
        for missed, caught in (
            ("gluing", not verify_gluing(bumped).ok),
            ("base-consistency", not consistency.ok and not consistency.details["eta"].is_zero()),
        ):
            if not caught:
                witnesses.append({"control": "VY base correction + 1", "missed": missed})
        checks.append(
            _check(
                f"ruled-{name}-p{p}",
                "standard four-chart lift: gluing, degree of h, base-lift extraction",
                [witnesses],
            )
        )
    return checks


def sweep_classify() -> list:
    per_trial = []
    for desc, expected in classify_mod.golden_table():
        got = classify_mod.classify_surface(desc)
        witness = {
            "descriptor": desc.to_json_dict(),
            "expected": expected.to_json_dict(),
            "got": got.to_json_dict(),
        }
        per_trial.append([] if got == expected else [witness])
    return [
        _check(
            "golden-table",
            "classification theorem and the hyperelliptic liftability table",
            per_trial,
        )
    ]


def sweep_hasse(p_list) -> list:
    checks = []
    for p in p_list:
        per_trial = []
        for a in range(p):
            for b in range(p):
                try:
                    E = classify_mod.WeierstrassCurve.short_form(p, a, b)
                except SingularCurve:
                    continue
                by_hasse = not classify_mod.hasse_invariant(E).is_zero()
                by_count = E.trace() % p != 0
                per_trial.append([] if by_hasse == by_count else [{"a": a, "b": b}])
        checks.append(
            _check(
                f"hasse-vs-count-p{p}",
                "ordinarity: Hasse invariant nonzero iff trace not divisible by p",
                per_trial,
            )
        )
    return checks
