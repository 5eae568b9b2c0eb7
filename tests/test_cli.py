import contextlib
import hashlib
import io
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from w2frob import errors, projline, sweeps
from w2frob.classify import SURFACE_CLASSES
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
    monkeypatch.setattr(projline, "extend_chart", lambda base, f: -real(base, f))
    code, report = run(capsys, ["p1-lift", "--p", "3", "--f", "x^4"])
    assert code == 1
    [check] = report["checks"]
    assert check["failures"][0]["error"] == "F(x)*F(y) != 1 on the overlap"


def test_witt_check(capsys):
    code, report = run(capsys, ["witt-check", "--p-list", "2,3", "--trials", "50", "--seed", "1"])
    assert code == 0
    assert all(c["ok"] for c in report["checks"])


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
        ["verify-lemma", "--p", "2", "--trials", "0"],
        ["sweep-all", "--trials-scale", "0"],
        ["witt-check", "--p-list", "a"],
        ["phi-det", "--p", "2", "--n", "0"],
        ["phi-det", "--p", "2", "--n", "5"],
        ["verify-lemma", "--p", "2", "--n", "4"],
        ["classify", "--json", "[1]"],
        ["classify", "--json", '{"class":"rational_Fn","p":5,"n":"x"}'],
        ["ruled-lift", "--base", "A1", "--n", "2", "--p", "2"],
        ["ruled-lift", "--base", "A1", "--a-const", "0", "--p", "3"],
        ["ruled-lift", "--base", "A1", "--b", "x^-1", "--p", "3"],
        ["ruled-lift", "--base", "P1", "--n", "-1", "--p", "2"],
        ["p1-lift", "--p", "2", "--f", "x^-1"],
        ["verify-lemma", "--p", "0"],
    ):
        capsys.readouterr()
        assert run_command(argv) == 2, argv


def test_reports_are_deterministic(capsys):
    argv = ["verify-lemma", "--p", "2", "--n", "3", "--trials", "200", "--seed", "11"]
    run_command(argv)
    first = capsys.readouterr().out
    run_command(argv)
    second = capsys.readouterr().out
    assert first == second


def test_env_seed_default(capsys, monkeypatch):
    monkeypatch.setenv("FROBCTL_SEED", "314159")
    code, report = run(capsys, ["witt-check", "--p-list", "2", "--trials", "10"])
    assert code == 0
    assert report["seed"] == 314159


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = run_command(["--output", str(target), "verify-lemma", "--p", "2", "--trials", "20", "--seed", "5"])
    capsys.readouterr()
    assert code == 0
    data = json.loads(target.read_text())
    assert data["ok"]


def test_sweep_all_report_is_pinned(capsys):
    # the report bytes are part of the contract; a change to them must be deliberate
    assert run_command(["sweep-all", "--seed", "42"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "d52781c4767bc653cf3d855624e7c0837e8ad177c3d01b67907081e0c3ad5148"


def test_passes_count_trials_without_failure(monkeypatch):
    # a shifted model breaks add and mul on every pair, so every trial
    # carries two failures; passes still counts trials, not failures
    for name in ("_witt_sum", "_witt_product"):
        real = getattr(sweeps, name)
        monkeypatch.setattr(
            sweeps, name, lambda p, a, b, real=real: (real(p, a, b)[0], (real(p, a, b)[1] + 1) % p)
        )
    for check in sweeps.sweep_witt([2, 3], 10, 1):
        assert check["passes"] == 0 < check["trials"]
        assert not check["ok"]
    assert not sweeps.sweep_phi_det([2], [1], 0, 1)[0]["ok"]  # zero trials


def test_witt_sweep_checks_the_residue_map_itself(monkeypatch):
    # n -> n + p is a bijection W2(F_p) -> Z/p^2, but not (a0, a1) -> a0^p + p*a1
    real = sweeps.witt_to_residue_ring
    monkeypatch.setattr(
        sweeps, "witt_to_residue_ring", lambda u: real(u) + real(u.ring.pair(0, 1))
    )
    for check in sweeps.sweep_witt([2, 3], 10, 1):
        assert check["passes"] == check["trials"]
        assert not check["ok"]
        assert check["failures"][0]["op"] == "residue"


_ERROR_KINDS = {
    cls.__name__
    for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.AlgebraError)
}
_PRIME = st.sampled_from(["-3", "0", "1", "2", "3", "4", "5", "17", "19"])
_SMALL = st.integers(-3, 20).map(str)
_TRIALS = st.integers(-2, 20).map(str)
_N = st.integers(-2, 6).map(str)
_POLY = st.lists(
    st.sampled_from(
        ["x", "x1", "x2", "^", "2", "-1", "+", "-", "*", "(", "3", "7", "[1,0]", "(1,2)", "[", "]", ",", " "]
    ),
    max_size=6,
).map("".join)
_JSON = st.one_of(
    st.text(max_size=8),
    st.dictionaries(
        st.sampled_from(["class", "p", "n", "base_genus", "is_ordinary", "type", "bogus"]),
        st.one_of(
            st.integers(-3, 20),
            st.booleans(),
            st.none(),
            st.sampled_from(SURFACE_CLASSES + ("a", "")),
        ),
        max_size=4,
    ).map(json.dumps),
)
_OPTIONS = {
    "witt-check": {
        "--p-list": st.lists(_PRIME, max_size=3).map(",".join),
        "--trials": _TRIALS,
        "--seed": _SMALL,
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


@settings(max_examples=300, deadline=None)
@given(argv=_argv())
@example(argv=["p1-lift", "--p", "2", "--f", "x^7"])
def test_contract_holds_for_any_argv(argv):
    _assert_contract(argv)


def test_contract_names_failing_checks(monkeypatch):
    # a broken Witt model makes witt-check exit 1 through its checks
    monkeypatch.setattr(sweeps, "_witt_sum", lambda p, a, b: (0, 0))
    assert _assert_contract(["witt-check", "--p-list", "2,3", "--trials", "5"]) == 1
