import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import w2frob
from w2frob import (
    CheckResult,
    Poly,
    classify,
    errors,
    eta_between,
    projline,
    ruled,
    sweeps,
    top_monomial,
    witt2,
)
from w2frob.classify import CLASS_FLAGS
from w2frob.cli import run_command


def run(capsys, argv):
    code = run_command(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_verify_lemma_spec_example(capsys):
    code, report = run(capsys, ["verify-lemma", "--p", "3", "--n", "2", "--trials", "1000", "--seed", "7"])
    assert code == 0
    assert report["schema"] == 1
    [check] = report["checks"]
    assert check["trials"] == 1000
    assert check["passes"] == 1000


def test_classify_k3(capsys):
    code, report = run(capsys, ["classify", "--json", '{"class":"K3","p":5}'])
    assert code == 0
    assert report["outcome"] == "NotLiftable"
    assert report["citation"]


def test_p1_lift_degree_too_high(capsys):
    code, report = run(capsys, ["p1-lift", "--p", "2", "--f", "x^5"])
    assert code == 1
    [check] = report["checks"]
    assert check["name"] == "p1-extension" and not check["ok"]
    assert "fiber degree 5 > 4" in check["failures"][0]["error"]
    assert "y_correction" not in report
    assert not report["ok"]


def test_p1_lift_success(capsys):
    code, report = run(capsys, ["p1-lift", "--p", "2", "--f", "x^4"])
    assert code == 0
    assert report["y_correction"] == "1"


def test_p1_lift_reads_a_leading_minus(capsys):
    # a value that starts with '-' reaches the grammar when attached with '='
    code, report = run(capsys, ["p1-lift", "--p", "3", "--f=-x^4"])
    assert code == 0
    assert (report["f"], report["y_correction"]) == ("2*x1^4", "1*x1^2")


def test_p1_lift_checks_the_flip_it_prints(capsys, monkeypatch):
    real = projline.extend_chart
    monkeypatch.setattr(projline, "extend_chart", lambda f: -real(f))
    code, report = run(capsys, ["p1-lift", "--p", "3", "--f", "x^4"])
    assert code == 1
    [check] = report["checks"]
    assert check["failures"][0]["error"] == "F(x)*F(y) != 1 on the overlap"


def test_witt_check(capsys):
    code, report = run(capsys, ["witt-check", "--p-list", "2,3"])
    assert code == 0
    assert report["seed"] is None
    assert [(c["trials"], c["ok"]) for c in report["checks"]] == [(16, True), (81, True)]


def test_phi_det_command(capsys):
    code, report = run(capsys, ["phi-det", "--p", "2", "--n", "2", "--trials", "50", "--seed", "3"])
    assert code == 0


def test_ruled_lift_command(capsys):
    code, report = run(capsys, ["ruled-lift", "--base", "P1", "--n", "2", "--p", "3"])
    assert code == 0
    assert report["h"] == "0"
    assert set(report["charts"]) == {"UX", "UT", "VY", "VS"}
    code, report = run(capsys, ["ruled-lift", "--base", "A1", "--b", "x1", "--p", "2"])
    assert code == 0
    assert report["overlaps_implied"] == ["UT/VY", "UT/VS"]


def test_hasse_command(capsys):
    code, report = run(capsys, ["hasse", "--p", "5", "--a", "1", "--b", "0"])
    assert code == 0
    assert report["invariant"] == 2
    assert report["ordinary"] is True


def test_usage_errors_exit_2(capsys):
    assert run_command(["frobnicate"]) == 2
    capsys.readouterr()
    code = run_command(["classify", "--json", "{not json"])
    assert code == 2
    capsys.readouterr()
    code = run_command(["classify", "--json", '{"class":"bogus","p":5}'])
    assert code == 2
    capsys.readouterr()
    code = run_command(["p1-lift", "--p", "2", "--f", "x1^^"])
    assert code == 2
    for argv in (
        ["witt-check", "--p-list", "5", "--trials", "-5"],
        ["witt-check", "--trials", "5"],
        ["witt-check", "--seed", "1"],
        ["verify-lemma", "--p", "2", "--trials", "0"],
        ["witt-check", "--p-list", "a"],
        ["phi-det", "--p", "2", "--n", "0"],
        ["phi-det", "--p", "2", "--n", "5"],
        ["verify-lemma", "--p", "2", "--n", "4"],
        ["classify", "--json", "[1]"],
        ["classify", "--json", '{"class":"rational_Fn","p":5,"n":"x"}'],
        ["classify", "--json", '{"class":"enriques","p":5,"variant":"bogus"}'],
        ["classify", "--json", '{"class":"quasi_hyperelliptic","p":5}'],
        ["classify", "--json", '{"class":"K3","p":5,"variant":"bogus","n":3}'],
        ["ruled-lift", "--base", "A1", "--n", "2", "--p", "2"],
        ["ruled-lift", "--base", "A1", "--a-const", "0", "--p", "3"],
        ["ruled-lift", "--base", "A1", "--b", "x^-1", "--p", "3"],
        ["ruled-lift", "--base", "P1", "--n", "-1", "--p", "2"],
        ["ruled-lift", "--base", "P1", "--n", "2", "--a-const", "0", "--p", "3"],
        ["ruled-lift", "--base", "P1", "--n", "2", "--b", "x1", "--p", "3"],
        ["p1-lift", "--p", "2", "--f", "x^-1"],
        ["verify-lemma", "--p", "0"],
    ):
        capsys.readouterr()
        assert run_command(argv) == 2, argv
    # each --p-list entry is checked when parsed, before any prime is swept
    for argv, error in (
        (["witt-check", "--p-list", "2,2"], "prime 2 repeated"),
        (["witt-check", "--p-list", "17,4"], "got 4"),
    ):
        capsys.readouterr()
        assert run_command(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and error in err, argv


def test_reports_are_deterministic(capsys):
    argv = ["verify-lemma", "--p", "2", "--n", "3", "--trials", "200", "--seed", "11"]
    run_command(argv)
    first = capsys.readouterr().out
    run_command(argv)
    second = capsys.readouterr().out
    assert first == second


_EVERY_COMMAND = [
    ["witt-check", "--p-list", "2"],
    ["verify-lemma", "--p", "2", "--trials", "1"],
    ["phi-det", "--p", "2", "--trials", "1"],
    ["p1-lift", "--p", "2", "--f", "x"],
    ["ruled-lift", "--base", "P1", "--p", "2"],
    ["classify", "--json", '{"class":"K3","p":5}'],
    ["hasse", "--p", "5", "--a", "1", "--b", "1"],
    ["sweep-all"],
    ["--help"],
]


def test_the_environment_does_not_reach_a_report(capsys, monkeypatch):
    # FROBCTL_SEED once set the default seed, and a malformed value failed every command
    def outcome(argv):
        return run_command(argv), capsys.readouterr()

    monkeypatch.delenv("FROBCTL_SEED", raising=False)
    expected = [outcome(argv) for argv in _EVERY_COMMAND]
    for value in ("abc", "11"):
        monkeypatch.setenv("FROBCTL_SEED", value)
        assert [outcome(argv) for argv in _EVERY_COMMAND] == expected, value


def _record_paths(obj, path="report") -> list:
    """Where a report holds a tuple subclass, such as a NamedTuple record."""
    if isinstance(obj, tuple) and type(obj) is not tuple:
        return [f"{path}: {type(obj).__name__}"]
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, (list, tuple)):
        items = enumerate(obj)
    else:
        return []
    return [found for key, value in items for found in _record_paths(value, f"{path}[{key!r}]")]


def test_records_reach_reports_only_through_to_json_dict(capsys, monkeypatch):
    # json.dumps writes a NamedTuple as a list without complaint, so a
    # descriptor or verdict must enter a report as its to_json_dict; a
    # classifier that adds a note misses every golden-table row, so the
    # sweep's witnesses carry descriptors and verdicts too
    reports = []
    real_dumps = json.dumps
    real_classify = classify.classify_surface

    def spy(obj, **kwargs):
        reports.append(obj)
        return real_dumps(obj, **kwargs)

    monkeypatch.setattr(json, "dumps", spy)
    monkeypatch.setattr(
        classify, "classify_surface", lambda d: real_classify(d)._replace(note="noted")
    )
    argvs = [
        ["sweep-all", "--seed", "42"],
        ["classify", "--json", '{"class":"rational_Fn","p":3,"n":1}'],
        ["ruled-lift", "--base", "Gm", "--n", "1", "--b", "x1", "--p", "3"],
        ["p1-lift", "--p", "3", "--f", "x^4"],
        ["hasse", "--p", "5", "--a", "1", "--b", "1"],
    ]
    for argv in argvs:
        run_command(argv)
    capsys.readouterr()
    assert len(reports) == len(argvs)
    [golden] = [c for c in reports[0]["checks"] if c["name"] == "golden-table"]
    assert golden["failures"]
    assert [found for report in reports for found in _record_paths(report)] == []


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = run_command(["--output", str(target), "verify-lemma", "--p", "2", "--trials", "20", "--seed", "5"])
    capsys.readouterr()
    assert code == 0
    data = json.loads(target.read_text())
    assert data["ok"]


def test_output_to_an_unwritable_path_is_a_usage_error(tmp_path, capsys):
    # a missing directory, a directory, and a file name too long to create
    for target in (tmp_path / "missing" / "x.json", tmp_path, tmp_path / ("x" * 300)):
        code = run_command(["--output", str(target), "hasse", "--p", "5", "--a", "1", "--b", "0"])
        report = json.loads(capsys.readouterr().out)
        assert code == 2, target
        assert set(report) == {"schema", "error", "ok"} and report["ok"] is False
        assert "--output" in report["error"]
    assert list(tmp_path.iterdir()) == []


# sha256 of the `frobctl sweep-all --seed 42` report; tests/test_source.py
# pins it under python -O as well
SWEEP_ALL_SHA256 = "b1cb7b3d3a60d292c6dea317a948604e5f6eba044c732ce3c8c97067d976a9b2"


def test_sweep_all_report_is_pinned(capsys):
    # the report bytes are part of the contract; a change to them must be deliberate
    assert run_command(["sweep-all", "--seed", "42"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == SWEEP_ALL_SHA256


def _verdicts_follow_counts(report) -> bool:
    return all(
        c["ok"] == (c["trials"] > 0 and c["passes"] == c["trials"] and not c["failures"])
        for c in report["checks"]
    )


def test_sweep_all_verdicts_follow_the_counts(capsys):
    code, report = run(capsys, ["sweep-all", "--seed", "42"])
    assert code == 0 and _verdicts_follow_counts(report)


def test_failing_sweep_all_report_is_pinned(capsys, monkeypatch):
    # extend_chart without its sign breaks the 2p bound at p in {3, 5} and the p = 3 shears
    real = projline.extend_chart
    for module in (projline, ruled):
        monkeypatch.setattr(module, "extend_chart", lambda f: -real(f))
    assert run_command(["sweep-all", "--seed", "42"]) == 1
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "29248985bbd376d1ef1fd8b67f1684c1e098db8944f056b9ce1d028a690465db"
    )
    report = json.loads(out)
    assert _verdicts_follow_counts(report)
    assert sum(not c["ok"] for c in report["checks"]) == 4


# (argv, exit code, sha256 of stdout) of reports run with their default seed and trials
_CHECK_REPORTS = [
    ("witt-check", 0, "515df55279d296fd5e6f62b9afe4f352e4d255f9299c5192f293a879a90eef4d"),
    ("verify-lemma --p 3", 0, "3e86ba49362cf128ba29d2dd38a9f28f301450a789265ed71c98fc12a138a3b1"),
    ("phi-det --p 5 --n 4", 0, "f2c0a6976b371ea8c127f1941752e63abaf416efd38c0d2765502afa4a976c3a"),
    ("p1-lift --p 2 --f x^5", 1, "d526aca284382034ed28f3cb65b3c42351257c77e103e6755e5251f5ffaa57d1"),
    ("p1-lift --p 2 --f x^-1", 2, "5c97dda82705b131a5641af4c774d2df9f42e1a7cec982a94b91f89d26a5fb2e"),
    ("p1-lift --p 3 --f x^4", 0, "8a9294ac87b43c8d4461127ae4ecfee110459c40c9228fa21415c471a22f2c97"),
]


def test_check_reports_are_pinned(capsys):
    for argv, code, digest in _CHECK_REPORTS:
        assert run_command(argv.split()) == code, argv
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, argv


# (argv, exit code, sha256 of stdout) of ruled-lift runs over every base
_RULED_LIFT_REPORTS = [
    ("--base P1 --n 2 --p 3", 0, "aa229911ac984c011c4f017b8896a645e9cff519f38eaa4da341fc58ff2a5032"),
    ("--base A1 --b x1 --p 2", 0, "40980eb9cf83e214ced2a1f650922624862186503f386d5c906282fc8d68ee18"),
    (
        "--base Gm --n 1 --b x1+x1^-1 --p 5",
        0,
        "73892550aad595bb3ec853ef3e29cd0137e12281ac4be63e0cb66a443407875d",
    ),
    ("--base P1 --n 3 --p 7", 0, "a9c3cf4776753febba279713f5dda994d1593e0ef195c746c6b44485434aec9e"),
    (
        "--base Gm --n -1 --b 2*x1^-1+1 --p 3",
        0,
        "deca16f49a412292744e7816e4484a288378f1ca4d27bee1397b67a6ef196d53",
    ),
    (
        "--base A1 --a-const 2 --b x1^2+1 --p 5",
        0,
        "fc88acd81433ca82488d4308f77ba990c9628b19dbc6b795547af494dbefc245",
    ),
    ("--base P1 --n -1 --p 2", 2, "1213578aef7b622846fc475d280cecb65e015b49ffede9760c08ec2ad3bc93d1"),
    ("--base A1 --n 2 --p 2", 2, "7b44df84d00714e23af0af7d058a2045f69ebef44c362d1d32b3bd89c9aead4c"),
]


def test_ruled_lift_reports_are_pinned(capsys):
    for argv, code, digest in _RULED_LIFT_REPORTS:
        assert run_command(["ruled-lift", *argv.split()]) == code, argv
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, argv


# many-term shears at p = 17: a~*y + b~ has 4, 5 and 7 terms, and its 17th power is
# repeated squaring, as every power of a base with two or more unit terms is
_MANY_TERM_SHEARS = [
    ("x1^2+x1+1", "7d745f6bd9cb4a5c22626944f3c798355f2b74f482cd1d233563a958bd24b6d7"),
    ("x1^4+3*x1^3+x1+5", "f38999efca0f0186e70c9c41f58dc7c80e4fb95fd28ad20f5b1ba5fbf1eedbb9"),
    (
        "x1^5+x1^4+x1^3+x1^2+x1+1",
        "32d9123e3564a79d977fbabd95ea17b492c0b81c7570a74152eea1254f736fa4",
    ),
]


def test_ruled_lift_with_a_many_term_b_keeps_its_report_at_p17(capsys):
    for b, digest in _MANY_TERM_SHEARS:
        assert run_command(["ruled-lift", "--base", "A1", "--b", b, "--p", "17"]) == 0, b
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, b


def test_check_counts_a_trial_with_witnesses_as_failed():
    check = sweeps._check("c", "cite", [[], [{"w": 1}, {"w": 2}], []])
    assert (check["trials"], check["passes"], check["ok"]) == (3, 2, False)
    assert check["failures"] == [{"w": 1}, {"w": 2}]
    assert sweeps._check("c", "cite", [[], []])["ok"]


def test_check_without_trials_is_not_ok():
    check = sweeps._check("c", "cite", [])
    assert (check["trials"], check["passes"], check["failures"], check["ok"]) == (0, 0, [], False)


def test_check_whole_check_witnesses_fail_passing_trials():
    check = sweeps._check("c", "cite", [[], []], [{"whole": 1}])
    assert (check["trials"], check["passes"], check["ok"]) == (2, 2, False)
    assert check["failures"] == [{"whole": 1}]


def test_check_keeps_five_witnesses_and_counts_every_trial():
    check = sweeps._check("c", "cite", [[{"t": i}] for i in range(7)] + [[]], [{"whole": 1}])
    assert (check["trials"], check["passes"], check["ok"]) == (8, 1, False)
    assert check["failures"] == [{"t": i} for i in range(5)]


def test_phi_det_sweep_names_a_wrong_top_coefficient(monkeypatch):
    # phi_det always has top coefficient 1; a determinant with 2 there is put in its place
    def phi_det(lift):
        field = lift.field
        return Poly.monomial(field, lift.nvars, top_monomial(lift), field.from_int(2))

    monkeypatch.setattr(sweeps, "phi_det", phi_det)
    (check,) = sweeps.sweep_phi_det([3], [2], 2, 42)
    assert (check["name"], check["trials"], check["passes"], check["ok"]) == (
        "phi-det-p3-n2", 2, 0, False
    )
    assert check["citation"] == "generic bijectivity: top-monomial coefficient of det(phi) is 1"
    for witness in check["failures"]:
        assert sorted(witness) == ["coefficient", "corrections"]
        assert witness["coefficient"] == "2"


def test_an_algebra_error_exits_1_and_names_its_kind(capsys, monkeypatch):
    # no argv raises an AlgebraError outside the usage kinds; a Hasse invariant
    # read as 0 on an ordinary curve makes is_ordinary_curve raise one
    monkeypatch.setattr(classify, "hasse_invariant", lambda curve: curve.field.zero)
    code, report = run(capsys, ["hasse", "--p", "5", "--a", "1", "--b", "0"])
    assert code == 1
    assert report == {
        "schema": 1,
        "error": "Hasse invariant and point count disagree on "
        "WeierstrassCurve(p=5, a1=0, a2=0, a3=0, a4=1, a6=0)",
        "ok": False,
        "kind": "InvariantViolation",
    }


def test_ruled_control_names_a_gluing_check_that_misses_the_bump(monkeypatch):
    monkeypatch.setattr(sweeps, "verify_gluing", lambda lift: CheckResult())
    for p in (2, 3):
        for check in sweeps.sweep_ruled(p):
            assert not check["ok"], check["name"]
            assert check["failures"] == [{"control": "VY base correction + 1", "missed": "gluing"}]


def test_ruled_control_names_a_consistency_check_that_misses_the_bump(monkeypatch):
    # the bump must fail base consistency, and with a nonzero eta
    real = sweeps.base_glue_consistency

    def zero_eta(res):
        f0 = res.details["f0"]
        return CheckResult(res.failures, {**res.details, "eta": eta_between(f0, f0)})

    for fake in (lambda res: CheckResult([], res.details), zero_eta):
        monkeypatch.setattr(sweeps, "base_glue_consistency", lambda lift: fake(real(lift)))
        for check in sweeps.sweep_ruled(2):
            [witness] = check["failures"]
            assert witness["missed"] == "base-consistency", check


def test_passes_count_trials_without_failure(monkeypatch):
    # a shifted model breaks add and mul on every pair, so every trial
    # carries two failures; passes still counts trials, not failures
    for name in ("_witt_sum", "_witt_product"):
        real = getattr(sweeps, name)
        monkeypatch.setattr(
            sweeps, name, lambda p, a, b, real=real: (real(p, a, b)[0], (real(p, a, b)[1] + 1) % p)
        )
    for check in sweeps.sweep_witt([2, 3]):
        assert check["passes"] == 0 < check["trials"]
        assert not check["ok"]
    assert not sweeps.sweep_phi_det([2], [1], 0, 1)[0]["ok"]  # zero trials


def test_witt_sweep_sees_one_wrong_coordinate_entry(monkeypatch):
    # Z/p^2 has one ring isomorphism onto W2(F_p), so one wrong entry of the
    # coordinate table fails the pair checks of its prime, not only the residue check
    primes = (2, 3, 5)
    for p in primes:
        ring = witt2.W2(p)
        table = dict(ring._coord_table())
        a0, a1 = table[1]
        table[1] = (a0, a1 + 1)  # 1 named (1, 1), which is 1 + p
        with monkeypatch.context() as patch:
            patch.setattr(ring, "_coords", table)
            checks = sweeps.sweep_witt(primes)
        for q, check in zip(primes, checks):
            assert check["ok"] is (q != p), check["name"]
            assert (check["passes"] < check["trials"]) is (q == p), check["name"]


def test_witt_sweep_sees_one_wrong_kernel_entry(monkeypatch):
    # one wrong table entry, for 1 + 1 or 1 * 1, fails the check of every prime:
    # the sweep compares the kernel itself with the component formulas
    for op in ("mul", "add"):
        real = getattr(witt2.WittRing, op)

        def wrong(ring, u, v, real=real):
            w = real(ring, u, v)
            return ring.wrap(ring.fold(w.n + 1)) if u.n == v.n == 1 else w

        with monkeypatch.context() as patch:
            patch.setattr(witt2.WittRing, op, wrong)
            primes = witt2._SMALL_PRIMES
            for p, check in zip(primes, sweeps.sweep_witt(primes)):
                one = repr(witt2.W2(p).one)
                assert check["passes"] == check["trials"] - 1, (op, check["name"])
                assert check["failures"] == [{"op": op, "u": one, "v": one}], check["name"]


_ERROR_KINDS = {
    cls.__name__
    for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.AlgebraError)
}
_PRIME = st.sampled_from(["-3", "0", "1", "2", "3", "4", "5", "17", "19"])
_SMALL = st.integers(-3, 20).map(str)
_TRIALS = st.integers(-2, 20).map(str)
_N = st.integers(-2, 6).map(str)
# digit runs on either side of the 4300 digits int() converts
_DIGITS = st.sampled_from([1, 2, 4300, 4301, 5000]).map(lambda n: "9" * n)
_POLY = st.lists(
    st.one_of(
        st.sampled_from(
            ["x", "x1", "x2", "^", "2", "-1", "+", "-", "*", "(", "3", "7", "[1,0]", "(1,2)", "[", "]", ",", " "]
        ),
        _DIGITS,
    ),
    max_size=6,
).map("".join)
_JSON = st.one_of(
    st.text(max_size=8),
    # arrays nested past the recursion limit, closed or not
    st.tuples(st.sampled_from([1, 2, 100, 5000]), st.booleans()).map(
        lambda t: "[" * t[0] + "]" * t[0] * t[1]
    ),
    _DIGITS.map(lambda d: f'{{"class": "K3", "p": {d}}}'),
    st.dictionaries(
        st.sampled_from(["class", "p", "n", "base_genus", "is_ordinary", "type", "bogus"]),
        st.one_of(
            st.integers(-3, 20),
            st.booleans(),
            st.none(),
            st.sampled_from(tuple(CLASS_FLAGS) + ("a", "")),
        ),
        max_size=4,
    ).map(json.dumps),
)
_OPTIONS = {
    "witt-check": {
        "--p-list": st.lists(_PRIME, max_size=3).map(",".join),
    },
    "verify-lemma": {"--p": _PRIME, "--n": _N, "--trials": _TRIALS, "--seed": _SMALL},
    "phi-det": {"--p": _PRIME, "--n": _N, "--trials": _TRIALS, "--seed": _SMALL},
    "p1-lift": {"--p": _PRIME, "--f": _POLY},
    "ruled-lift": {
        "--base": st.sampled_from(["A1", "Gm", "P1", "P2"]),
        "--n": _N,
        "--a-const": st.integers(-2, 4).map(str),
        "--b": _POLY,
        "--p": _PRIME,
    },
    "classify": {"--json": _JSON},
    "hasse": {"--p": _PRIME, "--a": _SMALL, "--b": _SMALL},
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    argv = [command]
    for flag, values in _OPTIONS[command].items():
        # --trials is always drawn: the defaults run hundreds to thousands of trials
        if flag == "--trials" or draw(st.booleans()):
            argv += [flag, draw(values)]
    return argv


def _assert_contract(argv) -> int:
    """Run argv and check the frobctl contract on what it prints; returns the exit code.

    Exit 2 with nothing on stdout when argparse rejects the argv; otherwise
    exactly one JSON report whose ok flag matches the exit code, and an
    exit 1 report names the violated property: a failing check, or the
    error kind that stopped the command.
    """
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = run_command(argv)
    out = stdout.getvalue()
    assert code in (0, 1, 2), argv
    if not out:
        assert code == 2, argv
        return code
    report = json.loads(out)
    assert isinstance(report, dict) and "schema" in report, argv
    assert report["ok"] == (code == 0), (argv, report)
    if code == 1:
        failing = [c["name"] for c in report.get("checks", ()) if not c["ok"]]
        assert failing or report.get("kind") in _ERROR_KINDS, (argv, report)
    return code


_LONG = "1" * 5000  # more digits than int() converts
# inputs past the parsers' limits: JSON nested deeper than the recursion limit,
# and numbers, exponents or variable indices with more digits than int() converts
_UNREADABLE = [
    ["classify", "--json", "[" * 5000],
    ["classify", "--json", f'{{"p": {_LONG}}}'],
    ["p1-lift", "--p", "2", "--f", f"x^{_LONG}"],
    ["p1-lift", "--p", "2", "--f", f"x{_LONG}"],
    ["ruled-lift", "--base", "A1", "--p", "2", "--b", f"x1^{_LONG}"],
]


@settings(max_examples=300, deadline=None)
@given(argv=_argv())
@example(argv=["p1-lift", "--p", "2", "--f", "x^7"])
@example(argv=_UNREADABLE[0])
@example(argv=_UNREADABLE[1])
@example(argv=_UNREADABLE[2])
@example(argv=_UNREADABLE[3])
@example(argv=_UNREADABLE[4])
def test_contract_holds_for_any_argv(argv):
    _assert_contract(argv)


# argv and exit code: one per code that prints a JSON report, and --help, which argparse prints
_CLOSED_PIPE_RUNS = [
    (["ruled-lift", "--base", "P1", "--n", "100000", "--p", "2"], 0),
    (["p1-lift", "--p", "2", "--f", "x^5"], 1),
    (["classify", "--json", "{not json"], 2),
    (["--help"], 0),
]


@pytest.mark.parametrize("argv, code", _CLOSED_PIPE_RUNS, ids=[a[0] for a, _ in _CLOSED_PIPE_RUNS])
def test_a_reader_gone_away_keeps_the_exit_code_and_prints_no_traceback(argv, code):
    # as in `frobctl ... | head -c 600`, where print raises BrokenPipeError
    read_end, write_end = os.pipe()
    os.close(read_end)  # before the child starts, so its first write fails
    src = Path(w2frob.__file__).resolve().parent.parent
    try:
        out = subprocess.run(
            [sys.executable, "-c", "from w2frob.cli import main; main()", *argv],
            env={**os.environ, "PYTHONPATH": str(src)},
            stdout=write_end,
            stderr=subprocess.PIPE,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (out.returncode, out.stderr.decode()) == (code, "")


def test_unreadable_input_is_a_parse_error(capsys):
    for argv in _UNREADABLE:
        code, report = run(capsys, argv)
        assert code == 2, argv[:3]
        assert set(report) == {"schema", "error", "ok"} and report["ok"] is False


def test_contract_names_failing_checks(monkeypatch):
    # a broken Witt model makes witt-check exit 1 through its checks
    monkeypatch.setattr(sweeps, "_witt_sum", lambda p, a, b: (0, 0))
    assert _assert_contract(["witt-check", "--p-list", "2,3"]) == 1
