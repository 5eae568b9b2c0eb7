"""Self-tests of the benchmark's correctness gate and tracer.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.add_source_path()

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from w2frob import froblift, polyalg  # noqa: E402

ETA = workloads.WORKLOADS["eta-lifts"]
FIELD = workloads.WORKLOADS["field-checks"]
SEED = run.DEFAULT_SEED


def test_default_seed_matches_its_pinned_digests():
    for name, wl in workloads.WORKLOADS.items():
        sweep = run.Sweep(wl, wl.generate(SEED, 1))
        assert sweep.failed_checks(run.load_pinned(name)[1]) == 0, name


def test_same_seed_gives_the_same_digest():
    first = run.Sweep(ETA, ETA.generate(11, 0))
    second = run.Sweep(ETA, ETA.generate(11, 0))
    assert first.digest == second.digest
    assert first.digest != run.Sweep(ETA, ETA.generate(12, 0)).digest


def test_tampered_eta_value_table_fails():
    tampered = []
    for kind, eta, a, b in ETA.generate(SEED, 0):
        one = polyalg.Poly.constant(eta.field, eta.nvars, 1)
        values = (eta.values[0] + one,) + eta.values[1:]
        bad = froblift.EtaFunction(eta.field, eta.nvars, eta.laurent_mask, values, eta.sources)
        tampered.append((kind, bad, a, b))
    sweep = run.Sweep(ETA, tampered)
    assert 0 < sweep.failed_checks(None) / sweep.checks


def test_wrong_pinned_digest_fails_a_run_at_any_seed(monkeypatch, capsys):
    monkeypatch.setattr(run, "load_pinned", lambda name: ["0" * 16] * run.POOL[name])
    monkeypatch.setattr(run, "POOL", {"field-checks": 1})
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    for seed in (7, SEED):
        assert run.run_plain("field-checks", seed, 0.0) == 1
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert '"correct": false' in last and '"failed": 0' not in last


def test_traced_sweep_keeps_the_digest_and_repeats_its_counts():
    plain = run.Sweep(FIELD, FIELD.generate(SEED, 0))
    tracers = [Tracer(), Tracer()]
    for tracer in tracers:
        traced = run.Sweep(FIELD, FIELD.generate(SEED, 0), tracer)
        assert traced.digest == plain.digest
    counts = [{k: r.calls for k, r in t.recs.items()} for t in tracers]
    assert counts[0] == counts[1]
    assert counts[0]["witt2.fq_mul"] > 0 and counts[0]["froblift.phi_det"] > 0
    assert froblift.phi_det.__name__ == "phi_det" and not hasattr(froblift.phi_det, "__wrapped__")
