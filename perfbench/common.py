"""Shared pieces of the benchmark: locating the program, inputs, statistics.

Everything a workload hands the program is generated here from the
workload seed: a City Simulator trace at the ``small`` preset (through the
program's own ``citysim`` generator, the input source the paper's protocol
prescribes) and Poisson range queries drawn by the benchmark's own RNG.
"""

from __future__ import annotations

import gc
import math
import random
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: The ``small`` preset: 2,000 objects, 110 history samples, 20 online
#: samples per object (40,000 online updates).
PRESET = "small"
N_HISTORY = 110

Point = Tuple[float, float]
#: (lo, hi) corners of an axis-aligned rectangle, both inclusive.
Box = Tuple[Point, Point]


def use_checkout_source() -> None:
    """Import the program from this checkout's ``src/`` and nowhere else.

    Exits non-zero (before any result line) when the source is missing, so
    a directory holding only the benchmark cannot produce a result.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@dataclass
class Query:
    """One square range query arriving at trace time ``t``."""

    t: float
    lo: Point
    hi: Point


@dataclass
class CityInputs:
    """One seeded workload's generated inputs, before any index exists."""

    seed: int
    domain: Box
    histories: Dict[int, list]
    current: Dict[int, Point]
    load_time: float
    #: Online updates in trace order (objects with ``oid``/``point``/``t``).
    records: list
    #: Full per-object trails (the history prefix is what the daemon loads).
    trails: Dict[int, list]

    @property
    def update_rate(self) -> float:
        """Aggregate updates per trace second over the online stream."""
        span = self.records[-1].t - self.records[0].t
        return len(self.records) / span if span > 0 else 0.0


@dataclass
class Outcome:
    """What a workload run hands back to ``run.py``."""

    attempted: int
    failed: int
    problems: List[str]
    end_to_end: Dict[str, Dict[str, object]]
    per_layer: Dict[str, Dict[str, object]]
    report: List[str] = field(default_factory=list)


def city_inputs(seed: int, preset: str = PRESET) -> CityInputs:
    """Simulate the seeded City Simulator trace (``small``: about 2.5 s).

    The benchmark's own tests pass ``preset="smoke"`` (300 objects).
    """
    from repro.experiments.harness import build_workload

    bundle = build_workload(preset, seed=seed, fresh=True)
    trace = bundle.trace
    bounds = bundle.city.bounds
    return CityInputs(
        seed=seed,
        domain=(tuple(bounds.lo), tuple(bounds.hi)),
        histories=trace.histories(N_HISTORY),
        current={oid: tuple(p) for oid, p in trace.current_positions(N_HISTORY).items()},
        load_time=trace.load_time(N_HISTORY),
        records=list(trace.online_updates(N_HISTORY)),
        trails={oid: trace.trail(oid) for oid in trace.object_ids},
    )


def settle() -> None:
    """Move everything the benchmark holds so far out of the collector's way.

    The generated inputs and the oracle's answers are hundreds of thousands
    of objects; left in the collected generations, every full collection
    during a timed call would also scan them, charging the benchmark's own
    heap to the program.  Frozen objects are never scanned.
    """
    gc.collect()
    gc.freeze()


def square(rng: random.Random, domain: Box, extent: float) -> Box:
    """A square of ``extent`` of the domain's area, centred uniformly."""
    (dlx, dly), (dhx, dhy) = domain
    side = math.sqrt((dhx - dlx) * (dhy - dly) * extent)
    cx, cy = rng.uniform(dlx, dhx), rng.uniform(dly, dhy)
    half = side / 2.0
    return (cx - half, cy - half), (cx + half, cy + half)


def poisson_queries(
    seed: int, domain: Box, rate: float, extent: float, t_start: float, t_end: float
) -> List[Query]:
    """Poisson arrivals at ``rate`` per trace second in ``[t_start, t_end)``."""
    rng = random.Random(f"perfbench-queries-{seed}")
    out: List[Query] = []
    t = t_start + rng.expovariate(rate)
    while t < t_end:
        lo, hi = square(rng, domain, extent)
        out.append(Query(t, lo, hi))
        t += rng.expovariate(rate)
    return out


def grid(domain: Box, n: int) -> List[Box]:
    """An ``n`` x ``n`` tiling of the domain (edges shared, both inclusive)."""
    (lx, ly), (hx, hy) = domain
    xs = [lx + (hx - lx) * i / n for i in range(n + 1)]
    ys = [ly + (hy - ly) * i / n for i in range(n + 1)]
    xs[-1], ys[-1] = hx, hy
    return [
        ((xs[i], ys[j]), (xs[i + 1], ys[j + 1])) for i in range(n) for j in range(n)
    ]


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in (0, 100])."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set in MB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def latency_metrics(update_s: Sequence[float], query_s: Sequence[float]) -> Dict[str, Dict[str, object]]:
    """p50 and p99 of update and range-query latencies, in ms."""
    return {
        "update_ms_p50": metric(median(update_s) * 1e3, "ms"),
        "update_ms_p99": metric(percentile(update_s, 99) * 1e3, "ms"),
        "query_ms_p50": metric(median(query_s) * 1e3, "ms"),
        "query_ms_p99": metric(percentile(query_s, 99) * 1e3, "ms"),
    }
