"""frobctl: every verification and construction as a subcommand with JSON output.

Exit codes: 0 all checks pass, 1 a property was violated (the report
names it), 2 usage or parse errors.  Reports are deterministic for a
fixed (argv, seed): same bytes, every run.  The default seed comes from
FROBCTL_SEED when set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import classify as classify_mod
from .errors import (
    AlgebraError,
    DescriptorError,
    ParseError,
    SingularCurve,
    UnitError,
    UnsupportedField,
    UnsupportedShape,
)
from .froblift import _json_loads, standard_lift
from .polyalg import Poly, poly_from_str, poly_to_str
from .projline import verify_p1_lift
from .ruled import (
    BASES,
    TransitionData,
    base_glue_consistency,
    build_standard_lift,
    hirzebruch_transition,
    verify_gluing,
)
from .sweeps import (
    _check,
    sweep_classify,
    sweep_eta,
    sweep_hasse,
    sweep_monomial_lemma,
    sweep_p1,
    sweep_phi_det,
    sweep_ruled,
    sweep_witt,
)
from .witt2 import GF, check_prime_char

SCHEMA = 1


class UsageError(AlgebraError):
    """Arguments that parse but do not describe a valid input of the command."""


DEFAULT_SEED = 20130902


def _report(command: str, seed, checks: list, extra: dict = None) -> dict:
    rep = {"schema": SCHEMA, "command": command, "seed": seed, "checks": checks}
    if extra:
        rep.update(extra)
    rep["ok"] = all(c["ok"] for c in checks)
    return rep


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_witt_check(args) -> dict:
    return _report("witt-check", None, sweep_witt(args.p_list))


def _cmd_verify_lemma(args) -> dict:
    checks = sweep_monomial_lemma(args.p, args.n, args.trials, args.seed)
    return _report("verify-lemma", args.seed, checks)


def _cmd_phi_det(args) -> dict:
    checks = sweep_phi_det([args.p], [args.n], args.trials, args.seed)
    return _report("phi-det", args.seed, checks)


def _cmd_p1_lift(args) -> dict:
    field = GF(args.p)
    f = poly_from_str(field, 1, args.f)
    try:
        res = verify_p1_lift(standard_lift(field, 0), f)
    except UnsupportedShape as exc:  # f is not a polynomial in x
        raise UsageError(str(exc)) from exc
    checks = [
        _check(
            "p1-extension",
            "F(x) = x^p + p*f extends across y = 1/x and glues to F(x)*F(y) = 1",
            [res.failures],
        )
    ]
    extra = {"p": args.p, "f": poly_to_str(f)}
    if res.ok:
        g = res.details["y_correction"]
        extra.update(y_correction=g, y_image=f"x1^{args.p} + p*({g})")
    return _report("p1-lift", None, checks, extra)


def _cmd_ruled_lift(args) -> dict:
    field = GF(args.p)
    try:
        if args.base == "P1":
            for flag, value, default in (("--a-const", args.a_const, 1), ("--b", args.b, "0")):
                if value != default:
                    raise UsageError(f"{flag} does not apply to --base P1, whose a is u^n and b is 0")
            T = hirzebruch_transition(field, args.n)
        else:
            a = Poly.monomial(field, 1, (args.n,), field.from_int(args.a_const))
            b = poly_from_str(field, 1, args.b)
            T = TransitionData(args.base, a, b)
    except (UnitError, UnsupportedShape) as exc:
        raise UsageError(str(exc)) from exc
    lift = build_standard_lift(T)
    glue = verify_gluing(lift)
    consistency = base_glue_consistency(lift)
    checks = [
        _check("gluing", "pairwise chart overlaps agree", [glue.failures]),
        _check("base-consistency", "U- and V-side base lifts differ by p*eta", [consistency.failures]),
    ]
    return _report(
        "ruled-lift",
        None,
        checks,
        {
            "base": args.base,
            "p": args.p,
            "charts": lift.chart_images(),
            "h": poly_to_str(lift.h),
            "overlaps_checked": glue.details["checked"],
            "overlaps_implied": glue.details["implied"],
        },
    )


def _cmd_classify(args) -> dict:
    desc = classify_mod.SurfaceDescriptor.from_json_dict(_json_loads(args.json, "--json"))
    return _report("classify", None, [], classify_mod.classify_surface(desc).to_json_dict())


def _cmd_hasse(args) -> dict:
    E = classify_mod.WeierstrassCurve.short_form(args.p, args.a, args.b)
    inv = classify_mod.hasse_invariant(E)
    return _report(
        "hasse",
        None,
        [],
        {
            "p": args.p,
            "a": args.a,
            "b": args.b,
            "invariant": inv.as_int(),
            "ordinary": classify_mod.is_ordinary_curve(E),
            "points": E.count_points(),
        },
    )


def _cmd_sweep_all(args) -> dict:
    scale = args.trials_scale
    checks = []
    checks += sweep_witt([2, 3, 5, 7])
    checks += sweep_phi_det([2, 3, 5], [1, 2, 3], 20 * scale, args.seed)
    for p in (2, 3, 5):
        checks += sweep_monomial_lemma(p, 3, 50 * scale, args.seed)
        checks += sweep_p1(p)
    checks += sweep_eta(2, 5 * scale, 10, args.seed)
    checks += sweep_eta(3, 5 * scale, 10, args.seed)
    for p in (2, 3):
        checks += sweep_ruled(p)
    checks += sweep_classify()
    checks += sweep_hasse([5, 7, 11, 13])
    return _report("sweep-all", args.seed, checks)


def _bounded_int(lo: int, hi: int = None):
    """argparse type: an integer in [lo, hi] (no upper bound when hi is None)."""

    def parse(s: str) -> int:
        n = int(s)
        if n < lo or (hi is not None and n > hi):
            bound = f"in {lo}..{hi}" if hi is not None else f">= {lo}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {n}")
        return n

    parse.__name__ = "integer"
    return parse


def _prime(s: str) -> int:
    """argparse type: a characteristic the package supports."""
    try:
        return check_prime_char(int(s))
    except (ValueError, UnsupportedField) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _p_list(s: str) -> list:
    """argparse type: a nonempty comma-separated list of distinct supported primes."""
    primes = []
    for x in filter(str.strip, s.split(",")):
        p = _prime(x)
        if p in primes:
            raise argparse.ArgumentTypeError(f"prime {p} repeated in {s!r}")
        primes.append(p)
    if not primes:
        raise argparse.ArgumentTypeError("empty prime list")
    return primes


def build_parser(default_seed: int) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frobctl",
        description="exact verification of Frobenius lifts over length-2 Witt vectors",
    )
    parser.add_argument("--output", default=None, help="write the JSON report to a file")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("witt-check", help="Witt arithmetic against the component formulas")
    sp.add_argument("--p-list", type=_p_list, default="2,3,5,7")
    sp.set_defaults(func=_cmd_witt_check)

    sp = sub.add_parser("verify-lemma", help="column-sum lemma on random exponent matrices")
    sp.add_argument("--p", type=_prime, required=True)
    sp.add_argument("--n", type=_bounded_int(1, 3), default=3)
    sp.add_argument("--trials", type=_bounded_int(1), default=1000)
    sp.add_argument("--seed", type=int, default=default_seed)
    sp.set_defaults(func=_cmd_verify_lemma)

    sp = sub.add_parser("phi-det", help="determinant core on random chart lifts")
    sp.add_argument("--p", type=_prime, required=True)
    sp.add_argument("--n", type=_bounded_int(1, 4), default=2)
    sp.add_argument("--trials", type=_bounded_int(1), default=500)
    sp.add_argument("--seed", type=int, default=default_seed)
    sp.set_defaults(func=_cmd_phi_det)

    sp = sub.add_parser("p1-lift", help="extend a correction across the two charts")
    sp.add_argument("--p", type=_prime, required=True)
    sp.add_argument("--f", required=True, help="correction polynomial in x")
    sp.set_defaults(func=_cmd_p1_lift)

    sp = sub.add_parser("ruled-lift", help="build and verify a standard four-chart lift")
    sp.add_argument("--base", choices=BASES, required=True)
    sp.add_argument("--n", type=int, default=0, help="monomial exponent of a")
    sp.add_argument("--a-const", type=int, default=1, dest="a_const")
    sp.add_argument("--b", default="0", help="transition offset b as a polynomial in x1")
    sp.add_argument("--p", type=_prime, required=True)
    sp.set_defaults(func=_cmd_ruled_lift)

    sp = sub.add_parser("classify", help="liftability verdict for a surface descriptor")
    sp.add_argument("--json", required=True)
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("hasse", help="Hasse invariant and ordinarity of a curve")
    sp.add_argument("--p", type=_prime, required=True)
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--b", type=int, required=True)
    sp.set_defaults(func=_cmd_hasse)

    sp = sub.add_parser("sweep-all", help="run every property sweep")
    sp.add_argument("--seed", type=int, default=default_seed)
    sp.add_argument("--trials-scale", type=_bounded_int(1), default=1, dest="trials_scale")
    sp.set_defaults(func=_cmd_sweep_all)

    return parser


def _error(message: str, code: int, **extra) -> int:
    """Print the error report and return the exit code."""
    print(json.dumps({"schema": SCHEMA, "error": message, "ok": False, **extra}, indent=2))
    return code


def run_command(argv) -> int:
    """Parse argv, run the subcommand, print the JSON report, return the exit code."""
    env = os.environ.get("FROBCTL_SEED")
    try:
        default_seed = int(env) if env else DEFAULT_SEED
    except ValueError:
        return _error(f"FROBCTL_SEED must be an integer, got {env!r}", 2)
    parser = build_parser(default_seed)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        report = args.func(args)
    except (
        ParseError,
        DescriptorError,
        SingularCurve,
        UnsupportedField,
        UsageError,
    ) as exc:
        return _error(str(exc), 2)
    except AlgebraError as exc:
        return _error(str(exc), 1, kind=type(exc).__name__)
    text = json.dumps(report, indent=2)
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            return _error(f"cannot write --output {args.output!r}: {exc.strerror}", 2)
    print(text)
    return 0 if report["ok"] else 1


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
