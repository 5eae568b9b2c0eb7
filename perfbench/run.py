"""Time-to-verdict benchmark for w2frob.

Usage, from the repository root:

    python3 perfbench/run.py --workload eta-lifts --seed 20130902 --seconds 25 --trace 0

A run checks a pool of sweeps of one workload, one check at a time on one
thread (a closed loop).  Sweep ``k`` of the pool has inputs generated from
``(seed, k)``.  The run makes passes over the whole pool, at least
``MIN_PASSES``, and starts no further pass that would end after
``--seconds``.  Every pass regenerates the inputs as fresh objects, outside
every timed region, so per-lift caches start cold in every sweep as they do
for a user.

On a shared 2-vCPU host, CPU speed drifts by 20-50% over seconds to
minutes for every process alike (CPU time tracks wall time, so the drift
is not scheduling), and a slow phase can outlast a run.  So every check
time is corrected for host speed: a fixed pure-Python loop, independent of
w2frob, is timed right before and right after each sweep, and the sweep's
times are scaled by ``REF_S`` over the faster of the two.  The times
reported are wall times at the host speed at which that loop takes
``REF_S``.  Each check and each sweep then keeps its best corrected time
over the passes, and the medians and quantiles over the pool average out
the inputs.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the first
``TRACE_SWEEPS`` sweeps of the pool, each once plainly and once under the
layer wrappers of ``tracer.py``, and prints the per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object.  The exit code is 1 when any check failed: it raised, its
verdict differs from the theorem's prediction, or its sweep's output digest
differs from the pinned one (the gate sweep, below) or from the untraced
digest (traced sweeps).

Whatever ``--seed`` is, every run also checks one sweep of the default
seed, sweep ``seed % POOL``, outside the timed region, against its digest
in ``pinned.json``: the gate sweep.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PINNED = HERE / "pinned.json"
OUT_DIR = HERE / "out"

DEFAULT_SEED = 20130902
RUN_SECONDS = 25  # run_seconds in BENCHMARK.json
MIN_PASSES = 3
SETUP_PROBES = 11
# host speed reference: REF_LOOPS iterations of reference_s take REF_S
# seconds on the baseline machine (baseline.json) at its usual speed
REF_LOOPS = 50_000
REF_S = 0.0045
# sweeps in the pool of a run, four to six seconds of checks per pass on the
# baseline machine
POOL = {"eta-lifts": 14, "eta-ext": 8, "ruled-gluing": 3, "field-checks": 20}
# sweeps of a traced run, fixed so that its counts repeat exactly
TRACE_SWEEPS = {"eta-lifts": 7, "eta-ext": 4, "ruled-gluing": 3, "field-checks": 20}


def add_source_path():
    """Put the repository's ``src`` on the path; the package is not installed."""
    if not (SRC / "w2frob" / "__init__.py").is_file():
        raise FileNotFoundError(f"w2frob sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def reference_s() -> float:
    """Seconds of a fixed pure-Python loop that touches nothing of w2frob."""
    t0 = time.perf_counter()
    s = 0
    for i in range(REF_LOOPS):
        s += i * i % 7
    return time.perf_counter() - t0


def digest(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


class Sweep:
    """Outcome of one sweep: per-check latencies and verdicts, and the output digest."""

    def __init__(self, wl, items, tracer=None):
        self.latencies = []
        self.failures = []  # (check index, reason)
        values = []
        if tracer is not None:
            tracer.install()
        try:
            start = time.perf_counter()
            for idx, item in enumerate(items):
                if tracer is not None:
                    tracer.check_id = idx + 1
                t0 = time.perf_counter()
                try:
                    ok, value = wl.check(item)
                except Exception:  # a raising check is a failed check, recorded with its traceback
                    ok, value = False, traceback.format_exc(limit=3)
                self.latencies.append(time.perf_counter() - t0)
                values.append(value)
                if not ok:
                    raised = isinstance(value, str)
                    self.failures.append((idx, value if raised else "wrong verdict"))
            self.verdict_s = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
                tracer.end_sweep()
        self.digest = digest(
            value if isinstance(value, str) else wl.describe(item, value)
            for item, value in zip(items, values)
        )
        self.checks = len(items)

    def failed_checks(self, expected_digest) -> int:
        """Checks failing by verdict, or all of them when the sweep digest is wrong."""
        if expected_digest is not None and expected_digest != self.digest:
            return self.checks
        return len(self.failures)


def load_pinned(name: str) -> list:
    return json.loads(PINNED.read_text())[name]


def gate(name: str, wl, seed: int):
    """Check the gate sweep against its pinned digest; returns (attempted, failed)."""
    pinned = load_pinned(name)
    k = seed % len(pinned)
    sweep = Sweep(wl, wl.generate(DEFAULT_SEED, k))
    if sweep.failures:
        show_failures(name, k, sweep)
    if sweep.digest != pinned[k]:
        print(f"FAILED {name} default-seed sweep {k}: digest {sweep.digest} != pinned {pinned[k]}",
              file=sys.stderr)
    return sweep.checks, sweep.failed_checks(pinned[k])


def setup(name: str, seed: int):
    """Import, ring construction and sweep 0's inputs; returns (workload, items, seconds)."""
    t0 = time.perf_counter()
    import workloads  # imports w2frob; rings are built on first use in generate

    wl = workloads.WORKLOADS[name]
    items = wl.generate(seed, 0)
    return wl, items, time.perf_counter() - t0


class SetupProbe:
    """Set-up time measured in fresh interpreters, one at a time, between sweeps.

    Bytecode caching is on, as for an installed package; the unmeasured
    warm-up probe writes the caches so that no measured probe compiles.
    Each probe scales its time to the reference host speed, as sweeps do.
    Probes are spread over the run, and the fastest is reported, as the
    other time metrics report the best of several passes.
    """

    def __init__(self, name: str, seed: int):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--setup-probe"]
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.samples = []
        self._probe()
        self.samples.clear()

    def _probe(self):
        out = subprocess.run(self.cmd, capture_output=True, text=True, timeout=120, check=True,
                             env=self.env)
        self.samples.append(float(out.stdout.strip().splitlines()[-1]))

    def due(self, elapsed: float, seconds: float):
        """Take a probe when the run has reached the next of SETUP_PROBES even steps."""
        taken = len(self.samples)
        if taken < SETUP_PROBES and elapsed >= taken * seconds / SETUP_PROBES:
            self._probe()

    def best(self) -> float:
        while len(self.samples) < SETUP_PROBES:
            self._probe()
        return min(self.samples)


def report(correct, attempted, failed, metrics, lines):
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def show_failures(name, sweep_index, sweep):
    for idx, reason in sweep.failures[:3]:
        print(f"FAILED {name} sweep {sweep_index} check {idx}: {reason}", file=sys.stderr)


def run_plain(name: str, seed: int, seconds: float) -> int:
    start = time.perf_counter()
    probe = SetupProbe(name, seed)
    wl, items, _ = setup(name, seed)
    attempted, failed = gate(name, wl, seed)
    pool = POOL[name]
    best_check = [None] * pool  # per sweep: each check's best latency over the passes
    best_sweep = [float("inf")] * pool
    scales = []
    passes = 0
    loop_start = time.perf_counter() - start
    while True:
        elapsed = time.perf_counter() - start
        if passes >= MIN_PASSES and elapsed + (elapsed - loop_start) / passes > seconds:
            break
        for k in range(pool):
            probe.due(time.perf_counter() - start, seconds)
            if passes or k:
                items = wl.generate(seed, k)
            before = reference_s()
            sweep = Sweep(wl, items)
            scale = REF_S / min(before, reference_s())
            scales.append(scale)
            attempted += sweep.checks
            failed += sweep.failed_checks(None)
            if sweep.failures:
                show_failures(name, k, sweep)
            best_sweep[k] = min(best_sweep[k], sweep.verdict_s * scale)
            latencies = [t * scale for t in sweep.latencies]
            prev = best_check[k]
            best_check[k] = latencies if prev is None else [
                min(a, b) for a, b in zip(prev, latencies)
            ]
        passes += 1
    latencies = [t for per_sweep in best_check for t in per_sweep]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_s = probe.best()
    metrics = {
        "setup_s": (setup_s, "s"),
        "verdict_s": (statistics.median(best_sweep), "s"),
        "check_ms_p50": (statistics.median(latencies) * 1e3, "ms"),
        "check_ms_p90": (
            statistics.quantiles(latencies, n=10, method="inclusive")[-1] * 1e3, "ms"
        ),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    best = f"best of {passes} passes"
    speed = sorted(scales)
    lines = [
        f"workload {name}  seed {seed}  pool of {pool} sweeps, {len(latencies)} checks"
        f"  passes {passes}  gate sweep {seed % len(load_pinned(name))} of the default seed",
        f"host speed    {speed[0]:.3f} to {speed[-1]:.3f} of the reference (median"
        f" {statistics.median(speed):.3f}); times below are scaled to the reference",
        f"setup_s       {setup_s:.4f} s   (best of {SETUP_PROBES} fresh interpreters)",
        f"verdict_s     {metrics['verdict_s'][0]:.4f} s   (median of {pool} sweeps, {best})",
        f"check_ms_p50  {metrics['check_ms_p50'][0]:.4f} ms  (n = {len(latencies)} checks, {best})",
        f"check_ms_p90  {metrics['check_ms_p90'][0]:.4f} ms  (n = {len(latencies)} checks, {best})",
        f"fail_ratio    {failed / attempted:.4f}     ({failed} of {attempted} checks run)",
        f"peak_rss_mb   {peak_rss_mb:.2f} MB",
    ]
    return report(failed == 0, attempted, failed, metrics, lines)


def run_traced(name: str, seed: int) -> int:
    from tracer import Tracer

    wl, items, _ = setup(name, seed)
    attempted, failed = gate(name, wl, seed)
    tracer = Tracer()
    plain_s = traced_s = 0.0
    for k in range(TRACE_SWEEPS[name]):
        if k:
            items = wl.generate(seed, k)
        plain = Sweep(wl, items)
        # fresh objects with the same values, so per-lift caches start cold again
        traced = Sweep(wl, wl.generate(seed, k), tracer)
        attempted += plain.checks + traced.checks
        failed += plain.failed_checks(None) + traced.failed_checks(plain.digest)
        if traced.digest != plain.digest:
            print(f"FAILED {name} sweep {k}: traced digest {traced.digest} != {plain.digest}",
                  file=sys.stderr)
        plain_s += plain.verdict_s
        traced_s += traced.verdict_s
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{name}-{seed}.tsv"
    tracer.write_spans(spans_path)

    t = tracer
    power = t.power_distinct / t.power_calls if t.power_calls else 0.0
    metrics = {
        "witt2.w2_mul.calls": (t.calls("witt2.w2_mul"), "count"),
        "witt2.w2_add.calls": (t.calls("witt2.w2_add"), "count"),
        "witt2.fq_mul.calls": (t.calls("witt2.fq_mul"), "count"),
        "witt2.fq_add.calls": (t.calls("witt2.fq_add"), "count"),
        "witt2.self_s": (t.layer_self("witt2"), "s"),
        "polyalg.mul.calls": (t.calls("polyalg.mul"), "count"),
        "polyalg.term_products": (t.term_products, "count"),
        "polyalg.self_s": (t.layer_self("polyalg"), "s"),
        "polyalg.max_terms": (t.max_terms, "count"),
        "polyalg.pow.calls": (t.calls("polyalg.pow"), "count"),
        "polyalg.substitute.calls": (t.calls("polyalg.substitute"), "count"),
        "polyalg.substitute.s": (t.incl("polyalg.substitute"), "s"),
        "polyalg.invert_unit.calls": (t.calls("polyalg.invert_unit"), "count"),
        "polyalg.det.s": (t.incl("polyalg.det"), "s"),
        "froblift.apply_lift.calls": (t.calls("froblift.apply_lift"), "count"),
        "froblift.apply_lift.s": (t.incl("froblift.apply_lift"), "s"),
        "froblift.via_lifts.s": (t.incl("froblift.via_lifts"), "s"),
        "froblift.eta_closed.s": (t.incl("froblift.eta_closed"), "s"),
        "froblift.power_reuse": (power, "ratio"),
        "froblift.phi_det.s": (t.incl("froblift.phi_det"), "s"),
        "froblift.self_s": (t.layer_self("froblift"), "s"),
        "projline.extend_chart.calls": (t.calls("projline.extend_chart"), "count"),
        "projline.self_s": (t.layer_self("projline"), "s"),
        "ruled.build.s": (t.incl("ruled.build"), "s"),
        "ruled.verify_gluing.s": (t.incl("ruled.verify_gluing"), "s"),
        "ruled.base_glue.s": (t.incl("ruled.base_glue"), "s"),
        "ruled.self_s": (t.layer_self("ruled"), "s"),
        "classify.hasse.s": (t.incl("classify.hasse"), "s"),
        "classify.count_points.s": (t.incl("classify.count_points"), "s"),
        "classify.self_s": (t.layer_self("classify"), "s"),
        "trace.overhead": (traced_s / plain_s, "ratio"),
    }
    lines = [
        f"workload {name}  seed {seed}  traced sweeps {TRACE_SWEEPS[name]}"
        f"  untraced {plain_s:.4f} s  traced {traced_s:.4f} s",
        f"spans kept {len(t.spans)}, dropped {t.spans_dropped}, written to {spans_path}",
        f"power requests: {t.power_distinct} distinct of {t.power_calls} calls",
        f"{'wrapped function':40s} {'calls':>10s} {'inclusive s':>12s} {'self s':>10s}",
    ]
    for key, rec in sorted(t.recs.items(), key=lambda kv: -kv[1].self_s):
        if rec.calls:
            lines.append(f"{key:40s} {rec.calls:10d} {rec.incl:12.4f} {rec.self_s:10.4f}")
    lines.append(f"fail_ratio {failed / attempted:.4f} ({failed} of {attempted} checks)")
    return report(failed == 0, attempted, failed, metrics, lines)


def pin(name: str) -> int:
    """Rewrite the pinned digests of one workload for the default seed."""
    import workloads

    wl = workloads.WORKLOADS[name]
    digests = []
    for k in range(POOL[name]):
        sweep = Sweep(wl, wl.generate(DEFAULT_SEED, k))
        if sweep.failures:
            show_failures(name, k, sweep)
            return 1
        digests.append(sweep.digest)
    data = json.loads(PINNED.read_text()) if PINNED.exists() else {}
    data[name] = digests
    PINNED.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(digests)} sweep digests of {name}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(POOL))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time set-up in this interpreter and print the seconds")
    parser.add_argument("--pin", action="store_true",
                        help="rewrite pinned.json for this workload at the default seed")
    args = parser.parse_args(argv)
    try:
        add_source_path()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        before = reference_s()
        seconds = setup(args.workload, args.seed)[2]
        print(seconds * REF_S / min(before, reference_s()))
        return 0
    if args.pin:
        return pin(args.workload)
    if args.trace:
        return run_traced(args.workload, args.seed)
    return run_plain(args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
