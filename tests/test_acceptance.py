"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every criterion is exact (zero tolerance on values) and runs the same
sweeps as ``frobctl``, each from its own seed; the time budgets are
asserted as stated.
"""

import time

from w2frob import golden_table, witt2
from w2frob.sweeps import (
    sweep_classify,
    sweep_eta,
    sweep_hasse,
    sweep_monomial_lemma,
    sweep_p1,
    sweep_phi_det,
    sweep_ruled,
    sweep_witt,
)


def _report(n, label, detail, elapsed, budget):
    print(f"ACCEPTANCE {n}: PASS  {label}  ({detail}; {elapsed:.2f}s < {budget}s)")


def _trials(checks):
    """Total trials; fails with the failing checks unless every check passed."""
    bad = [c for c in checks if not c["ok"] or c["passes"] != c["trials"]]
    assert not bad, bad
    return sum(c["trials"] for c in checks)


def test_criterion_1_witt_oracle_equivalence():
    start = time.time()
    # every pair of W2(F_p), for every prime the package supports
    primes = witt2._SMALL_PRIMES
    pairs_checked = _trials(sweep_witt(primes))
    elapsed = time.time() - start
    assert pairs_checked == sum(p ** 4 for p in primes) == 129846
    assert elapsed < 2.0
    _report(1, "Witt-ring oracle equivalence", f"{pairs_checked} pairs, 0 mismatches", elapsed, 2)


def test_criterion_2_determinant_core():
    start = time.time()
    trials = _trials(sweep_phi_det([2, 3, 5], [1, 2, 3], 500, 1202))
    elapsed = time.time() - start
    assert trials == 4500
    assert elapsed < 60.0
    _report(2, "determinant core (coefficient 1, nonzero)", f"{trials} lifts", elapsed, 60)


def test_criterion_3_monomial_lemma():
    start = time.time()
    trials = _trials([c for p in (2, 3, 5) for c in sweep_monomial_lemma(p, 3, 1000, 1203)])
    elapsed = time.time() - start
    assert trials == 3000
    assert elapsed < 60.0
    _report(3, "monomial lemma (brute force + closed form)", f"{trials} matrices", elapsed, 60)


def test_criterion_4_eta_calculus():
    start = time.time()
    pair_count = _trials([c for p in (2, 3) for c in sweep_eta(p, 50, 100, 1204)])
    elapsed = time.time() - start
    assert pair_count >= 100 * 100
    _report(4, "eta additivity + twisted Leibniz", f"{pair_count} element pairs", elapsed, 60)


def test_criterion_5_degree_bound_both_directions():
    start = time.time()
    checked = _trials([c for p in (2, 3, 5) for c in sweep_p1(p)])
    elapsed = time.time() - start
    assert checked == sum(3 * p + 1 for p in (2, 3, 5))
    _report(5, "degree bound 2p, both directions", f"{checked} monomials", elapsed, 60)


def test_criterion_6_ruled_lifts():
    start = time.time()
    surfaces = _trials([c for p in (2, 3) for c in sweep_ruled(p)])
    elapsed = time.time() - start
    assert surfaces == 10
    assert elapsed < 30.0
    _report(6, "ruled-surface standard lifts", "F_0/F_2/F_3, A1 and Gm shears, p in {2,3}", elapsed, 30)


def test_criterion_7_classification_fidelity():
    start = time.time()
    rows = _trials(sweep_classify())
    elapsed = time.time() - start
    assert rows == len(golden_table()) >= 16
    _report(7, "classification theorem / table fidelity", f"{rows} descriptors", elapsed, 60)


def test_criterion_8_ordinarity_ground_truth():
    start = time.time()
    # every nonsingular short form at each desk-scale prime p >= 5
    curves = _trials(sweep_hasse([5, 7, 11, 13, 17]))
    elapsed = time.time() - start
    assert curves == sum(p * (p - 1) for p in (5, 7, 11, 13, 17))
    assert elapsed < 5.0
    _report(8, "Hasse invariant vs point counting", f"{curves} curves over 5 primes", elapsed, 5)
