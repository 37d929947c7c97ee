#!/usr/bin/env python3
"""The repository's benchmark: three workloads, one command.

    python3 perfbench/run.py --workload paper-city --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric of the workload; ``--trace 1``
runs the same workload with the layers wrapped and prints every per-layer
metric, a self-time table, the tracing overhead and the span file's path.
The last line of standard output is always one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Outputs (span JSONL,
the serving daemon's working directory) go under ``.perfbench-out/`` at
the root of the checkout.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

WORKLOADS = ("paper-city", "lsm-city", "serve-paced")
OUT_DIR = common.ROOT / ".perfbench-out"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args: argparse.Namespace):
    """Generate the seed's inputs and run the workload -> Outcome."""
    common.use_checkout_source()
    OUT_DIR.mkdir(exist_ok=True)
    jsonl = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
    t0 = perf_counter()
    inputs = common.city_inputs(args.seed)
    print(
        f"{args.workload}: seed {args.seed}, {len(inputs.current)} objects, "
        f"{len(inputs.records)} online updates (generated in {perf_counter() - t0:.1f} s)",
        flush=True,
    )
    trace = bool(args.trace)
    if args.workload == "paper-city":
        from replay import paper_city

        return paper_city(inputs, args.seconds, trace, jsonl)
    if args.workload == "lsm-city":
        from replay import lsm_city

        return lsm_city(inputs, args.seconds, trace, jsonl)
    from serve import serve_paced

    return serve_paced(inputs, args.seconds, trace, jsonl, OUT_DIR)


def main(argv=None) -> int:
    args = parse_args(argv)
    outcome = run(args)
    for line in outcome.report:
        print(line)
    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    metrics = outcome.per_layer if args.trace else outcome.end_to_end
    print(
        json.dumps(
            {
                "correct": not outcome.problems,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
