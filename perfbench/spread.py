"""Run the benchmark over several seeds and report each metric's median and spread.

Usage, from the repository root:

    python3 perfbench/spread.py --workload ruled-gluing --seeds 1-10

Runs are made one after another, untraced, for ``RUN_SECONDS`` each (the
``run_seconds`` of BENCHMARK.json).  The spread of a metric is the distance
between the first and third quartile of its values, as
``statistics.quantiles(values, n=4)`` gives them, as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import RUN_SECONDS

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args(argv)
    values: dict = {}
    for seed in seed_list(args.seeds):
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(RUN_SECONDS), "--trace", "0"],
            capture_output=True, text=True, timeout=900,
        )
        wall = time.perf_counter() - t0
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if out.returncode or not result["correct"]:
            print(f"seed {seed}: exit {out.returncode}, {result['failed']} failed", file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed} ({wall:.1f} s): " + " ".join(
            f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()), flush=True)
    summary = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        summary[name] = {"median": med, "spread": (q3 - q1) / med if med else 0.0}
        print(f"{name:28s} median {med:12.6g}  spread {summary[name]['spread']:.4f}")
    print(json.dumps({"workload": args.workload, "runs": len(seed_list(args.seeds)),
                      "summary": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
