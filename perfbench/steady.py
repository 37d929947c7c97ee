#!/usr/bin/env python3
"""Steadiness: repeat a workload with fresh seeds and report each metric's spread.

    python3 perfbench/steady.py --workload paper-city --runs 10 --first-seed 1

Runs ``perfbench/run.py`` once per seed for ``run_seconds`` (from
``BENCHMARK.json``), one run at a time, and prints per metric the median,
the quartiles (``statistics.quantiles(n=4)``), the inter-quartile range
over the median, and (max - min) over the median.
The bounds in ``BENCHMARK.json`` were chosen from this output: a metric
whose IQR share exceeds a third of its bound is flagged.  Exits non-zero
when a run is incorrect or the share of failed operations differs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def steal_s() -> float:
    """CPU time this virtual machine's vCPUs were stolen, seconds (Linux)."""
    with open("/proc/stat", encoding="ascii") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values):
    """-> (median, q1, q3, iqr share, range share)."""
    med = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    scale = abs(med) or 1.0
    return med, q1, q3, (q3 - q1) / scale, (max(values) - min(values)) / scale


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        stolen = steal_s()
        result = run_once(args.workload, seed, seconds)
        stolen = steal_s() - stolen
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} steal={stolen:.2f}s", flush=True)

    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"\n{args.workload}: {len(results)} runs of {seconds:g} s, "
          f"all correct: {all(r['correct'] for r in results)}, "
          f"failed shares: {sorted(shares)}")
    header = (f"{'metric':<26} {'unit':>6} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'iqr/med':>8} {'rng/med':>8} {'bound':>6}")
    print(header)
    print("-" * len(header))
    ok = all(r["correct"] for r in results) and len(shares) == 1
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med, q1, q3, iqr, rng = spread(values)
        bound = bounds.get(name)
        flag = ""
        if bound is not None and iqr > bound / 3:
            flag = "  > bound/3"
        print(f"{name:<26} {results[0]['metrics'][name]['unit']:>6} {med:>12.6g} "
              f"{q1:>12.6g} {q3:>12.6g} {iqr:>8.2%} {rng:>8.2%} "
              f"{'' if bound is None else format(bound, '.2f'):>6}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
