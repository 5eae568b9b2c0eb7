import itertools

import pytest

from oracles import count_affine_points, naive_poly_mul, weierstrass_discriminant
from w2frob import (
    CharMismatch,
    DescriptorError,
    InvariantViolation,
    SingularCurve,
    SurfaceDescriptor,
    UnsupportedField,
    UnsupportedShape,
    Verdict,
    WeierstrassCurve,
    classify_surface,
    golden_table,
    hasse_invariant,
    is_ordinary_curve,
)
from w2frob import Poly, classify


def D(**kw):
    return SurfaceDescriptor(**kw)


# -- classifier verdicts -----------------------------------------------------


def test_k3_not_liftable():
    v = classify_surface(D(surface_class="K3", p=5))
    assert v.outcome == "NotLiftable"
    assert v.citation


def test_hyperelliptic_type_c_char3():
    v = classify_surface(
        D(
            surface_class="hyperelliptic", p=3, hyperelliptic_type="c",
            E0_ordinary=True, E1_ordinary=True, omega_pow_p_minus_1_trivial=True,
        )
    )
    assert v.outcome == "NotLiftable"
    assert "row c" in v.citation


def test_hyperelliptic_type_b_char5_liftable():
    v = classify_surface(
        D(
            surface_class="hyperelliptic", p=5, hyperelliptic_type="b",
            E0_ordinary=True, E1_ordinary=True, omega_pow_p_minus_1_trivial=True,
        )
    )
    assert v.outcome == "Liftable"


@pytest.mark.parametrize("p", [2, 3])
def test_hyperelliptic_type_a_small_char_needs_trivial_omega(p):
    v = classify_surface(
        D(
            surface_class="hyperelliptic", p=p, hyperelliptic_type="a",
            E0_ordinary=True, E1_ordinary=True, omega_pow_p_minus_1_trivial=False,
        )
    )
    assert v == Verdict(
        "NotLiftable", f"main theorem (1)(b): omega^(p-1) triviality required, char {p}"
    )


def test_ruled_over_ordinary_elliptic():
    v = classify_surface(D(surface_class="ruled", p=7, base_genus=1, base_is_ordinary=True))
    assert v.outcome == "Liftable"


def test_abelian_non_ordinary():
    v = classify_surface(D(surface_class="abelian", p=5, is_ordinary=False))
    assert v.outcome == "NotLiftable"


def test_fn_n1_out_of_scope():
    v = classify_surface(D(surface_class="rational_Fn", p=3, n=1))
    assert v.outcome == "OutOfScope"
    assert "non-minimal" in v.note


def test_every_verdict_has_citation():
    for desc, _ in golden_table():
        v = classify_surface(desc)
        if v.outcome in ("Liftable", "NotLiftable"):
            assert v.citation


def test_descriptor_validation():
    with pytest.raises(DescriptorError):
        classify_surface(D(surface_class="blowup", p=5))
    with pytest.raises(DescriptorError):
        classify_surface(D(surface_class="rational_Fn", p=5))  # missing n
    with pytest.raises(DescriptorError):
        classify_surface(D(surface_class="ruled", p=5))  # missing genus
    with pytest.raises(DescriptorError):
        classify_surface(D(surface_class="ruled", p=5, base_genus=1))  # missing ordinarity
    with pytest.raises(DescriptorError):
        classify_surface(D(surface_class="abelian", p=5))
    with pytest.raises(DescriptorError):
        classify_surface(
            D(surface_class="hyperelliptic", p=5, hyperelliptic_type="e",
              E0_ordinary=True, E1_ordinary=True, omega_pow_p_minus_1_trivial=True)
        )
    with pytest.raises(DescriptorError):
        classify_surface(
            D(surface_class="hyperelliptic", p=5, hyperelliptic_type="a",
              E0_ordinary=True, E1_ordinary=True)
        )
    with pytest.raises(DescriptorError):
        classify_surface(D(surface_class="K3", p=6))
    # Bombieri-Mumford: singular and supersingular Enriques surfaces occur
    # only at p = 2, quasi-hyperelliptic surfaces only at p = 2 and 3
    for kw in (
        dict(surface_class="enriques", p=5, variant="bogus"),
        dict(surface_class="enriques", p=5),
        dict(surface_class="enriques", p=3, variant="singular"),
        dict(surface_class="enriques", p=5, variant="supersingular"),
        dict(surface_class="quasi_hyperelliptic", p=5),
        dict(surface_class="quasi_hyperelliptic", p=17),
    ):
        with pytest.raises(DescriptorError):
            classify_surface(D(**kw))


def test_small_characteristic_surfaces_classify():
    valid = [D(surface_class="enriques", p=2, variant=v) for v in ("singular", "supersingular")]
    valid += [D(surface_class="enriques", p=p, variant="classical") for p in (2, 5)]
    valid += [D(surface_class="quasi_hyperelliptic", p=p) for p in (2, 3)]
    for d in valid:
        assert classify_surface(d).outcome == "NotLiftable", d


@pytest.mark.parametrize("p", [2.0, 5.0, True, "5", None])
def test_a_non_int_characteristic_is_a_descriptor_error(p):
    # with p = 2.0 the hyperelliptic clauses would classify and cite "char 2.0"
    for d in [
        D(surface_class="hyperelliptic", p=p, hyperelliptic_type="a",
          E0_ordinary=True, E1_ordinary=True, omega_pow_p_minus_1_trivial=True),
        D(surface_class="K3", p=p),
    ]:
        with pytest.raises(DescriptorError):
            classify_surface(d)


def test_classify_surface_takes_only_a_descriptor():
    # a JSON object must go through SurfaceDescriptor.from_json_dict first
    with pytest.raises(DescriptorError, match="expected a SurfaceDescriptor, got dict"):
        classify_surface({"class": "K3", "p": 5})


# the JSON keys each class takes besides class and p, with a valid value each
_CLASS_KEYS = {
    "rational_P2": {},
    "rational_Fn": {"n": 2},
    "ruled": {"base_genus": 1, "base_is_ordinary": True},
    "abelian": {"is_ordinary": True},
    "K3": {},
    "enriques": {"variant": "classical"},
    "hyperelliptic": {
        "type": "a", "E0_ordinary": True, "E1_ordinary": True,
        "omega_pow_p_minus_1_trivial": True,
    },
    "quasi_hyperelliptic": {},
    "properly_elliptic": {},
    "general_type": {},
}


@pytest.mark.parametrize("surface_class", list(_CLASS_KEYS))
def test_a_flag_of_another_class_is_a_descriptor_error(surface_class):
    # a K3 descriptor with an Enriques variant and a Hirzebruch twist was
    # classified as K3 without a word; every flag another class takes is refused
    assert set(classify.CLASS_FLAGS) == set(_CLASS_KEYS)
    own = {"class": surface_class, "p": 3, **_CLASS_KEYS[surface_class]}
    classify_surface(SurfaceDescriptor.from_json_dict(own))
    stray = {k: v for keys in _CLASS_KEYS.values() for k, v in keys.items() if k not in own}
    assert stray
    for key, value in stray.items():
        with pytest.raises(DescriptorError, match=f"{surface_class} takes no '{key}' flag"):
            classify_surface(SurfaceDescriptor.from_json_dict({**own, key: value}))


def test_ruled_surfaces_take_base_is_ordinary_at_any_genus():
    for genus, flag in itertools.product((0, 1, 2, 5), (True, False)):
        d = D(surface_class="ruled", p=5, base_genus=genus, base_is_ordinary=flag)
        liftable = genus == 0 or (genus == 1 and flag)
        assert classify_surface(d).outcome == ("Liftable" if liftable else "NotLiftable")
    with pytest.raises(DescriptorError, match=">= 0"):
        classify_surface(D(surface_class="ruled", p=5, base_genus=-1, base_is_ordinary=True))


@pytest.mark.parametrize(
    "d",
    [
        {"class": [1], "p": 5},
        {"class": {"K3": 1}, "p": 5},
        {"class": "K3", "p": [5]},
        {"class": "enriques", "p": 2, "variant": ["classical"]},
        {"class": "hyperelliptic", "p": 5, "type": {"a": 1}},
    ],
    ids=repr,
)
def test_an_unhashable_value_is_a_type_error_before_any_table_lookup(d):
    with pytest.raises(DescriptorError, match="must be of type"):
        classify_surface(SurfaceDescriptor.from_json_dict(d))


def test_descriptor_json_roundtrip():
    d = SurfaceDescriptor.from_json_dict(
        {"class": "hyperelliptic", "p": 5, "type": "b", "E0_ordinary": True,
         "E1_ordinary": True, "omega_pow_p_minus_1_trivial": True}
    )
    assert d.hyperelliptic_type == "b"
    assert SurfaceDescriptor.from_json_dict(d.to_json_dict()) == d
    with pytest.raises(DescriptorError):
        SurfaceDescriptor.from_json_dict({"class": "K3", "p": 5, "bogus": 1})


def test_golden_table_roundtrip():
    rows = golden_table()
    assert len(rows) >= 16
    for desc, expected in rows:
        assert classify_surface(desc) == expected
        assert SurfaceDescriptor.from_json_dict(desc.to_json_dict()) == desc


def _first_clause(d) -> int:
    """The index in CLAUSES[d.surface_class] of the clause that gives d its verdict."""
    return next(
        i
        for i, (condition, *_) in enumerate(classify.CLAUSES[d.surface_class])
        if condition is None or condition(d)
    )


def test_clauses_follow_the_class_table_and_end_in_a_default():
    assert list(classify.CLAUSES) == list(classify.CLASS_FLAGS)
    for c, clauses in classify.CLAUSES.items():
        assert [condition is None for condition, *_ in clauses] == [
            i == len(clauses) - 1 for i in range(len(clauses))
        ], c


def test_every_clause_is_the_first_match_for_some_descriptor():
    # the golden rows reach every clause but type a's omega clause at p in
    # {2, 3}, which test_hyperelliptic_type_a_small_char_needs_trivial_omega reaches
    omega = [
        D(surface_class="hyperelliptic", p=p, hyperelliptic_type="a",
          E0_ordinary=True, E1_ordinary=True, omega_pow_p_minus_1_trivial=False)
        for p in (2, 3)
    ]
    descriptors = [d for d, _ in golden_table()] + omega
    reached = {(d.surface_class, _first_clause(d)) for d in descriptors}
    clauses = {(c, i) for c, cs in classify.CLAUSES.items() for i in range(len(cs))}
    assert clauses - reached == set()


def test_golden_table_covers_all_cells_and_clauses():
    rows = golden_table()
    cells = set()
    classes = set()
    for desc, _ in rows:
        classes.add(desc.surface_class)
        if desc.surface_class == "hyperelliptic" and desc.E0_ordinary and desc.E1_ordinary:
            if desc.omega_pow_p_minus_1_trivial:
                char = desc.p if desc.p in (2, 3) else 5
                cells.add((desc.hyperelliptic_type, char))
    assert len(cells) == 12
    assert classes >= {
        "K3", "enriques", "quasi_hyperelliptic", "abelian", "hyperelliptic",
        "rational_P2", "rational_Fn", "ruled", "properly_elliptic", "general_type",
    }


# -- curves --------------------------------------------------------------------


def test_hasse_p5_examples():
    E = WeierstrassCurve.short_form(5, 1, 0)
    assert hasse_invariant(E).as_int() == 2
    assert is_ordinary_curve(E)
    E2 = WeierstrassCurve.short_form(5, 0, 1)
    assert hasse_invariant(E2).is_zero()
    assert not is_ordinary_curve(E2)


def test_hasse_p7_forced_by_point_count():
    E = WeierstrassCurve.short_form(7, 1, 0)
    expected = E.trace() % 7 != 0
    assert (not hasse_invariant(E).is_zero()) == expected


def test_short_form_is_read_off_the_reduced_coefficients():
    # a1 = 5 is 0 over F_5, so this is the short form y^2 = x^3 + x + 1
    E, short = WeierstrassCurve(5, a1=5, a4=1, a6=1), WeierstrassCurve(5, a4=1, a6=1)
    assert repr(E) == repr(short) and E.short
    assert hasse_invariant(E) == hasse_invariant(short)
    assert is_ordinary_curve(E) == is_ordinary_curve(short)


def test_is_ordinary_curve_raises_when_hasse_and_count_disagree(monkeypatch):
    # no curve reaches the raise: a Hasse invariant read as 0 on an ordinary curve does
    E = WeierstrassCurve.short_form(5, 1, 0)
    monkeypatch.setattr(classify, "hasse_invariant", lambda curve: curve.field.zero)
    with pytest.raises(InvariantViolation) as info:
        is_ordinary_curve(E)
    assert str(info.value) == (
        "Hasse invariant and point count disagree on "
        "WeierstrassCurve(p=5, a1=0, a2=0, a3=0, a4=1, a6=0)"
    )


def test_point_count_examples():
    assert WeierstrassCurve(3, a4=1).count_points() == 4  # supersingular at p=3
    assert not is_ordinary_curve(WeierstrassCurve(3, a4=1))
    assert WeierstrassCurve(2, a3=1).count_points() == 3  # y^2 + y = x^3
    assert not is_ordinary_curve(WeierstrassCurve(2, a3=1))
    assert is_ordinary_curve(WeierstrassCurve.short_form(5, 1, 0))


def test_point_count_matches_naive():
    # every nonsingular general form at p <= 5 (both branches of count_points),
    # and every nonsingular short form at the larger desk-scale primes
    cases = [(p, c) for p in (2, 3, 5) for c in itertools.product(range(p), repeat=5)]
    cases += [(p, (0, 0, 0, a, b)) for p in (7, 11, 13, 17) for a in range(p) for b in range(p)]
    checked = 0
    for p, coeffs in cases:
        try:
            E = WeierstrassCurve(p, *coeffs)
        except SingularCurve:
            continue
        assert E.count_points() == 1 + count_affine_points(p, *coeffs), (p, coeffs)
        checked += 1
    assert checked == 2678 + sum(p * (p - 1) for p in (7, 11, 13, 17))


def test_singular_curves_rejected():
    with pytest.raises(SingularCurve):
        WeierstrassCurve.short_form(5, 0, 0)  # y^2 = x^3
    with pytest.raises(SingularCurve):
        WeierstrassCurve.short_form(2, 1, 1)  # char 2 short form
    with pytest.raises(SingularCurve):
        WeierstrassCurve(3, a4=0, a6=0)


def test_a_curve_coefficient_that_is_not_an_int_is_a_char_mismatch():
    # "x" used to raise a bare TypeError, and a4 = 1.0 built the curve
    for kw in ({"a1": "x"}, {"a4": 1.0, "a6": 1}):
        with pytest.raises(CharMismatch, match="is no coefficient over F5"):
            WeierstrassCurve(5, **kw)


def test_hasse_requires_p5_short():
    with pytest.raises(UnsupportedField):
        hasse_invariant(WeierstrassCurve(3, a4=1))
    with pytest.raises(UnsupportedField):
        hasse_invariant(WeierstrassCurve(5, a1=1, a4=1, a6=1))


@pytest.mark.parametrize("E", ["x", None, 5])
def test_the_curve_checks_take_only_a_weierstrass_curve(E):
    # both raised a bare AttributeError, on .p and on .trace
    for check in (hasse_invariant, is_ordinary_curve):
        with pytest.raises(UnsupportedShape, match="expected a WeierstrassCurve"):
            check(E)


@pytest.mark.parametrize("p", [5, 7])
def test_hasse_vs_count_exhaustive_small(p):
    census_hasse = 0
    census_count = 0
    for a in range(p):
        for b in range(p):
            try:
                E = WeierstrassCurve.short_form(p, a, b)
            except SingularCurve:
                continue
            h_ord = not hasse_invariant(E).is_zero()
            c_ord = E.trace() % p != 0
            assert h_ord == c_ord, (a, b)
            census_hasse += not h_ord
            census_count += not c_ord
    assert census_hasse == census_count


def _hasse_by_expansion(p: int, a: int, b: int) -> int:
    """The x^(p-1) coefficient of the whole power (x^3 + a*x + b)^((p-1)/2), on ints."""
    cubic = {m: c for m, c in {(3,): 1, (1,): a % p, (0,): b % p}.items() if c}
    power = {(0,): 1}
    for _ in range((p - 1) // 2):
        power = naive_poly_mul(power, cubic, p)
    return power.get((p - 1,), 0)


def test_hasse_invariant_builds_no_power(monkeypatch):
    def no_power(f, e):
        raise AssertionError("hasse_invariant expanded a power")

    monkeypatch.setattr(Poly, "__pow__", no_power)
    E = WeierstrassCurve.short_form(13, 2, 5)
    assert hasse_invariant(E).as_int() == _hasse_by_expansion(13, 2, 5)
    assert is_ordinary_curve(WeierstrassCurve.short_form(5, 1, 0))


def test_hasse_invariant_on_every_short_form():
    # 653 short forms at p in {5, 7, 11, 13, 17}: the p forms with 4a^3 + 27b^2 = 0
    # mod p raise SingularCurve, and every other one reads the coefficient of the
    # whole power
    nonsingular = singular = 0
    for p in (5, 7, 11, 13, 17):
        for a in range(p):
            for b in range(p):
                if (4 * a ** 3 + 27 * b * b) % p == 0:
                    with pytest.raises(SingularCurve):
                        WeierstrassCurve.short_form(p, a, b)
                    singular += 1
                    continue
                E = WeierstrassCurve.short_form(p, a, b)
                assert hasse_invariant(E).as_int() == _hasse_by_expansion(p, a, b), (p, a, b)
                nonsingular += 1
    assert (nonsingular, singular) == (600, 53)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17])
def test_discriminant_matches_the_b2_to_b8_formula(p, rng):
    # every short form at p, where the discriminant is -16(4a^3 + 27b^2), and
    # seeded general forms: SingularCurve exactly where the int formula is 0 mod p
    cases = [(0, 0, 0, a, b) for a in range(p) for b in range(p)]
    cases += [tuple(rng.randrange(p) for _ in range(5)) for _ in range(100)]
    for coeffs in cases:
        want = weierstrass_discriminant(*coeffs) % p
        a1, a2, a3, a4, a6 = coeffs
        make = (
            (lambda: WeierstrassCurve.short_form(p, a4, a6))
            if not (a1 or a2 or a3)
            else (lambda: WeierstrassCurve(p, a1, a2, a3, a4, a6))
        )
        if want == 0:
            with pytest.raises(SingularCurve):
                make()
        else:
            assert make().discriminant().as_int() == want, (p, coeffs)


@pytest.mark.parametrize(
    "kw",
    [
        dict(surface_class="rational_Fn", p=5, n=1.5),
        dict(surface_class="rational_Fn", p=5, n=True),
        dict(surface_class="rational_Fn", p=5, n="2"),
        dict(surface_class="ruled", p=5, base_genus=0.5),
        dict(surface_class="ruled", p=5, base_genus=False),
        dict(surface_class="ruled", p=5, base_genus=1, base_is_ordinary=1),
        dict(surface_class="abelian", p=5, is_ordinary="no"),
        dict(surface_class="abelian", p=5, is_ordinary=0),
        dict(surface_class="enriques", p=2, variant=3),
        dict(surface_class="K3", p=5, n=2.0),
        dict(
            surface_class="hyperelliptic", p=5, hyperelliptic_type="a",
            E0_ordinary=True, E1_ordinary=1, omega_pow_p_minus_1_trivial=True,
        ),
        dict(
            surface_class="hyperelliptic", p=5, hyperelliptic_type="a",
            E0_ordinary=True, E1_ordinary=True, omega_pow_p_minus_1_trivial="yes",
        ),
    ],
    ids=lambda kw: f"{kw['surface_class']}-" + "-".join(
        f"{k}={v!r}" for k, v in kw.items() if k not in ("surface_class", "p")
    ),
)
def test_validate_applies_the_json_key_types(kw):
    # a descriptor built in Python meets the types from_json_dict enforces:
    # F_1.5 is no Hirzebruch surface, and "no" is no ordinarity flag
    with pytest.raises(DescriptorError) as info:
        classify_surface(D(**kw))
    assert "must be of type" in str(info.value)


def test_descriptors_and_verdicts_compare_and_hash_by_value():
    # golden-table comparisons need value equality; both records stay hashable and immutable
    d = D(surface_class="ruled", p=5, base_genus=1, base_is_ordinary=True)
    same = SurfaceDescriptor.from_json_dict(d.to_json_dict())
    assert d == same and hash(d) == hash(same) and len({d, same}) == 1
    assert d != D(surface_class="ruled", p=5, base_genus=1, base_is_ordinary=False)
    v = classify_surface(d)
    assert v == Verdict(v.outcome, v.citation) and hash(v) == hash(Verdict(v.outcome, v.citation))
    assert v != Verdict(v.outcome, v.citation, note="x")
    table = golden_table()
    assert all(classify_surface(desc) == expected for desc, expected in table)
    assert len({desc for desc, _ in table}) == len(table)
    with pytest.raises(AttributeError):
        d.p = 7
    with pytest.raises(AttributeError):
        v.outcome = "Liftable"
