"""Trace-replay workloads: ``paper-city`` and ``lsm-city``.

Both replay the seeded ``small`` City Simulator trace through the
program's ``SimulationDriver``: set up an index from the generated inputs,
then merge the 40,000 online updates with Poisson range queries in
timestamp order.  A run repeats whole rounds (every kind set up, then all
kinds replayed in lockstep, piece by piece) until ``--seconds`` have
passed, and reports medians over the rounds.  Every time is scaled to
the reference kernel's speed (``reference.py``), timed next to it: before
each set-up, and once per piece of the replay.  Every round is checked
against the oracle.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

import oracle
from reference import Reference, scaled
from common import (
    CityInputs,
    Outcome,
    Query,
    geomean,
    grid,
    latency_metrics,
    median,
    metric,
    peak_rss_mb,
    poisson_queries,
    settle,
)
from tracing import Tracer, accounting, layer_metrics, self_time_table, wrap_storage_and_scans

#: paper-city: the paper's four indexes, in the order the paper lists them.
PAPER_KINDS = ("rtree", "lazy", "alpha", "ct")
#: The paper's Table-1 update:query ratio; lsm-city queries ten times as often.
PAPER_RATIO = 100.0
LSM_RATIO = 10.0
#: Query side: 0.1% of the city's area (the paper's f_q default).
QUERY_EXTENT = 0.001
#: Final sweep: a GRID x GRID tiling of the whole domain.
GRID = 4
#: Each round replays the timeline in this many consecutive pieces, every
#: kind in turn per piece (see ``Replay.play``).
PIECES = 20
#: lsm-city sets its index up this many times per round and reports the
#: median: one LSM set-up takes about 0.1 s, too short to time once.
LSM_SETUPS = 5


@dataclass
class KindRun:
    """One kind set up and replayed once, with everything measured."""

    kind: str
    setup_s: float = 0.0
    load_s: float = 0.0
    replay_s: float = 0.0
    #: Reference kernel seconds: the mean of one run before and one after
    #: the set-up; the sum of one run per replay piece.
    setup_ref_s: float = 0.0
    replay_ref_s: float = 0.0
    #: Every set-up of this kind in the round, at reference speed (the
    #: last one is the index replayed).
    setup_samples: List[float] = field(default_factory=list)
    n_updates: int = 0
    n_queries: int = 0
    update_ios: int = 0
    query_ios: int = 0
    pages: int = 0
    lazy_hits: Optional[int] = None
    phases: Dict[str, float] = field(default_factory=dict)
    amplification: List[int] = field(default_factory=list)
    read_amplification: float = 0.0
    flushes: int = 0
    compactions: int = 0
    problems: List[str] = field(default_factory=list)

    @property
    def scaled_setup_s(self) -> float:
        return median(self.setup_samples)

    @property
    def scale(self) -> float:
        """Replay seconds -> seconds at reference speed."""
        return scaled(1.0, self.replay_ref_s, PIECES)

    @property
    def ops_per_s(self) -> float:
        """(updates + queries) per replay second, at reference speed."""
        return (self.n_updates + self.n_queries) / (self.replay_s * self.scale)


@dataclass
class Live:
    """A kind between set-up and its checks: the index and what it answered."""

    run: KindRun
    index: object
    pager: object
    driver: object
    answers: list = field(default_factory=list)


def split(records: list, queries: list, pieces: int) -> List[tuple]:
    """``pieces`` consecutive ``(records, queries)`` slices of the timeline.

    A query goes with the slice whose updates all precede it in time, so
    replaying the slices one after another through one driver is the same
    replay as a single call (updates before queries on equal timestamps).
    """
    cuts = [len(records) * i // pieces for i in range(pieces + 1)]
    out = []
    q = 0
    for i in range(pieces):
        end = cuts[i + 1]
        limit = records[end].t if end < len(records) else float("inf")
        first = q
        while q < len(queries) and queries[q].t < limit:
            q += 1
        out.append((records[cuts[i]:end], queries[first:q]))
    return out


class Replay:
    """The generated inputs of one seed, shared by every round and kind."""

    def __init__(self, inputs: CityInputs, ratio: float) -> None:
        from repro.core.geometry import Rect
        from repro.workload.queries import RangeQuery

        self.inputs = inputs
        records = inputs.records
        self.queries: List[Query] = poisson_queries(
            inputs.seed,
            inputs.domain,
            inputs.update_rate / ratio,
            QUERY_EXTENT,
            records[0].t,
            records[-1].t,
        )
        self.pieces = split(
            records,
            [RangeQuery(rect=Rect(q.lo, q.hi), t=q.t) for q in self.queries],
            PIECES,
        )
        #: The CT-R-tree's Equation-6 merge anticipates the Table-1 rate.
        self.builder_query_rate = inputs.update_rate / PAPER_RATIO
        self.expected = oracle.answers_at_queries(inputs.current, records, self.queries)
        final = oracle.Oracle(
            oracle.final_positions(inputs.current, ((r.oid, r.point) for r in records))
        )
        self.sweep = [(cell, final.answer(*cell)) for cell in grid(inputs.domain, GRID)]
        settle()

    def setup(self, kind: str, tracer: Optional[Tracer] = None) -> Live:
        """Index + driver ready for the first update, timed."""
        from repro.core.builder import CTRTreeBuilder
        from repro.core.geometry import Rect
        from repro.core.params import CTParams
        from repro.engine.registry import make_index
        from repro.storage.pager import Pager
        from repro.workload.driver import SimulationDriver

        inputs = self.inputs
        domain = Rect(*inputs.domain)
        run = KindRun(kind)
        t0 = perf_counter()
        pager = Pager()
        if kind == "ct":
            # The registry's CT factory, spelled out to keep the builder's
            # own phase timings.
            builder = CTRTreeBuilder(
                CTParams(), query_rate=self.builder_query_rate, max_entries=20
            )
            build = builder.build
            if tracer is not None:
                build = tracer.wrap("builder.build", build)
            index, report = build(pager, domain, inputs.histories)
            run.phases = dict(report.phase_timings)
        else:
            index = make_index(kind, pager, domain)
        driver = SimulationDriver(index, pager, kind)
        load = driver.load
        if tracer is not None:
            load = tracer.wrap(f"index.load.{kind}", load)
        t1 = perf_counter()
        load(inputs.current, now=inputs.load_time)
        t2 = perf_counter()
        run.setup_s, run.load_s = t2 - t0, t2 - t1
        return Live(run, index, pager, driver)

    def record(self, live: Live) -> None:
        """Keep every answer (and, for the LSM, each query's amplification)."""
        index, run = live.index, live.run
        inner = index.range_search
        lsm = hasattr(index, "query_run_probes")

        def recorded(rect):
            if lsm:
                probes = index.query_run_probes
                memtable = 1 if len(index.memtable) else 0
            matches = inner(rect)
            if lsm:
                run.amplification.append(index.query_run_probes - probes + memtable)
            live.answers.append(matches)
            return matches

        index.range_search = recorded

    def play(
        self,
        kinds,
        tracer: Optional[Tracer] = None,
        reference: Optional[Reference] = None,
        setups: int = 1,
    ) -> List[Live]:
        """Set up every kind (``setups`` times, replaying the last), then
        replay the pieces in lockstep.

        Piece by piece, kind after kind: each kind's replay time is spread
        over the whole round, so every kind sees the same machine.  With a
        ``reference``, its kernel runs around each set-up and before each piece.
        """
        lives = []
        for kind in kinds:
            samples = []
            for _ in range(setups):
                gc.collect()  # earlier garbage is not this set-up's cost
                before = reference.measure() if reference is not None else 0.0
                live = self.setup(kind, tracer)
                if reference is not None:
                    live.run.setup_ref_s = (before + reference.measure()) / 2
                    samples.append(scaled(live.run.setup_s, live.run.setup_ref_s))
            live.run.setup_samples = samples
            lives.append(live)
        mark = tracer.mark() if tracer is not None else 0
        runs = []
        for live in lives:
            self.record(live)
            run = live.driver.run
            if tracer is not None:
                kind = live.run.kind
                tracer.patch(live.index, "update", f"index.update.{kind}", op=True)
                tracer.patch(live.index, "range_search", f"index.query.{kind}", op=True)
                run = tracer.wrap(f"replay.{kind}", run)
            runs.append(run)
        try:
            for records, queries in self.pieces:
                ref_s = reference.measure() if reference is not None else 0.0
                for live, run in zip(lives, runs):
                    live.run.replay_ref_s += ref_s
                    t0 = perf_counter()
                    result = run(records, queries)
                    live.run.replay_s += perf_counter() - t0
                    live.run.n_updates += result.n_updates
                    live.run.n_queries += result.n_queries
                    live.run.update_ios += result.update_ios
                    live.run.query_ios += result.query_ios
        finally:
            if tracer is not None:
                tracer.restore(mark)
            for live in lives:
                del live.index.range_search
        for live in lives:
            index, run = live.index, live.run
            run.pages = live.pager.page_count
            run.lazy_hits = getattr(index, "lazy_hits", None)
            if hasattr(index, "query_run_probes"):
                run.read_amplification = index.read_amplification
                run.flushes = index.flushes
                run.compactions = index.compaction.compactions
        return lives

    def check(self, live: Live) -> None:
        """Every answer against the oracle, a final sweep, ``verify_index``."""
        from repro.core.geometry import Rect
        from repro.health.verify import verify_index

        index, run, answers = live.index, live.run, live.answers
        problems = run.problems
        if run.n_updates != len(self.inputs.records):
            problems.append(f"{run.kind}: replayed {run.n_updates} updates")
        if len(answers) != len(self.expected):
            problems.append(
                f"{run.kind}: {len(answers)} answers for {len(self.expected)} queries"
            )
        for i, (got, want) in enumerate(zip(answers, self.expected)):
            diff = oracle.mismatch(got, want)
            if diff:
                problems.append(f"{run.kind}: query {i} at t={self.queries[i].t:.2f}: {diff}")
                break
        for cell, want in self.sweep:
            diff = oracle.mismatch(index.range_search(Rect(*cell)), want)
            if diff:
                problems.append(f"{run.kind}: final sweep cell {cell}: {diff}")
                break
        report = verify_index(index)
        if not report.ok:
            problems.append(
                f"{run.kind}: verify_index: {[str(v) for v in report.violations[:3]]}"
            )
        if run.amplification:
            bound = index.config.max_runs + 1
            worst = max(run.amplification)
            if worst > bound:
                problems.append(
                    f"{run.kind}: read amplification {worst} > max_runs + 1 = {bound}"
                )

    def round(self, kinds, reference: Reference, setups: int = 1) -> List[KindRun]:
        """One untraced round: play every kind, then check each."""
        lives = self.play(kinds, reference=reference, setups=setups)
        for live in lives:
            self.check(live)
        return [live.run for live in lives]


# -- tracing ---------------------------------------------------------------


def install_layers(tracer: Tracer) -> None:
    """Wrap the page store, node-scan kernels, memtable, LSM and Bloom filter."""
    from repro.engine.buffer import UpdateBuffer
    from repro.lsm.bloom import BloomFilter
    from repro.lsm.tree import LSMRTree

    wrap_storage_and_scans(tracer)
    tracer.patch(UpdateBuffer, "put", "buffer.put", keep=False)
    tracer.patch(UpdateBuffer, "should_flush", "buffer.should_flush", keep=False)
    tracer.patch(UpdateBuffer, "flush", "buffer.flush")
    tracer.patch(LSMRTree, "flush", "lsm.flush")
    tracer.patch(LSMRTree, "compact_step", "lsm.compact")
    tracer.patch(
        BloomFilter, "__contains__", "lsm.bloom", keep=False, count_false="lsm.bloom.rejects"
    )


def traced_round(replay: Replay, kinds, tracer: Tracer, reference: Reference):
    """One round with every layer wrapped -> (runs, traced wall seconds).

    The checks run after the wrappers are gone, outside the traced wall.
    """
    install_layers(tracer)
    tracer.watch_gc()
    try:
        t0 = perf_counter()
        lives = tracer.run("perfbench.round", replay.play, kinds, tracer, reference)
        wall = perf_counter() - t0
    finally:
        tracer.unwatch_gc()
        tracer.restore()
    for live in lives:
        replay.check(live)
    return [live.run for live in lives], wall


# -- workloads -------------------------------------------------------------


def _rounds(replay: Replay, kinds, seconds: float, setups: int = 1) -> List[List[KindRun]]:
    """Whole rounds until ``seconds`` have passed (at least one)."""
    reference = Reference()
    rounds: List[List[KindRun]] = []
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        rounds.append(replay.round(kinds, reference, setups))
    return rounds


def _problems(rounds: List[List[KindRun]]) -> List[str]:
    return [p for runs in rounds for run in runs for p in run.problems]


def _attempted(rounds: List[List[KindRun]]) -> int:
    return sum(run.n_updates + run.n_queries for runs in rounds for run in runs)


def _ledger(runs: List[KindRun]) -> Dict[str, Dict[str, object]]:
    """Page I/O per operation and pages held: deterministic for a seed."""
    updates = sum(run.n_updates for run in runs)
    queries = sum(run.n_queries for run in runs)
    return {
        "ios_per_update": metric(sum(r.update_ios for r in runs) / updates, "count"),
        "ios_per_query": metric(sum(r.query_ios for r in runs) / queries, "count"),
        "index_pages": metric(float(sum(r.pages for r in runs)), "count"),
    }


def _end_to_end(rounds: List[List[KindRun]]) -> Dict[str, Dict[str, object]]:
    """Medians over whole rounds; ``ops_s`` is the geometric mean over the
    round's kinds, so each kind weighs the same however fast it is."""
    return {
        "setup_s": metric(
            median([sum(r.scaled_setup_s for r in runs) for runs in rounds]), "s"
        ),
        "ops_s": metric(median([geomean([r.ops_per_s for r in runs]) for runs in rounds]), "1/s"),
        **_ledger(rounds[0]),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }


def _per_kind(rounds: List[List[KindRun]]) -> str:
    kinds = [run.kind for run in rounds[0]]
    return "per kind, medians over rounds: " + ", ".join(
        f"{kind} {median([r.ops_per_s for runs in rounds for r in runs if r.kind == kind]):.0f} ops/s"
        f" (set-up {median([r.scaled_setup_s for runs in rounds for r in runs if r.kind == kind]):.3f} s)"
        for kind in kinds
    )


def _traced(replay: Replay, kinds, plain: List[KindRun], jsonl):
    """The traced round -> (runs, tracer, layer metrics, report lines)."""
    tracer = Tracer()
    runs, wall = traced_round(replay, kinds, tracer, Reference())
    # The reference kernel ran inside the round, in 'perfbench.round', but
    # is not traced work.
    kernel_s = runs[0].replay_ref_s + 2 * sum(run.setup_ref_s for run in runs)
    traced = wall - kernel_s
    scale = runs[0].scale
    untraced = sum((run.setup_s + run.replay_s) * run.scale for run in plain)
    overhead = traced * scale / untraced - 1.0
    spans = tracer.write_jsonl(jsonl)
    # 'perfbench.round' is the set-up loop, 'replay.<kind>' the driver's
    # merge loop and every call below it that no wrapper names.
    lines, remainder = accounting(
        tracer, traced, ("perfbench.round", "replay."), untraced, scale, own_s=kernel_s
    )
    report = [
        self_time_table(tracer.layers()),
        *lines,
        f"tracing overhead: traced round {traced * scale:.3f} s vs untraced {untraced:.3f} s "
        f"at reference speed ({overhead:+.1%})",
        f"spans: {spans} written to {jsonl}",
    ]
    out = {
        "setup.build_s": metric(
            sum(scaled(run.setup_s - run.load_s, run.setup_ref_s) for run in plain), "s"
        ),
        "setup.load_s": metric(sum(scaled(run.load_s, run.setup_ref_s) for run in plain), "s"),
        **layer_metrics(tracer.totals()),
        **latency_metrics(tracer.durations("index.update."), tracer.durations("index.query.")),
        "trace.remainder_share": metric(remainder, "ratio"),
        "trace.overhead": metric(overhead, "ratio"),
    }
    return runs, tracer, out, report


def paper_city(inputs: CityInputs, seconds: float, trace: bool, jsonl) -> Outcome:
    """The paper's Section 4.1 protocol over its four indexes."""
    replay = Replay(inputs, PAPER_RATIO)
    # A traced run pairs one untraced round (the overhead baseline) with
    # one traced round; end-to-end metrics come from untraced runs only.
    rounds = _rounds(replay, PAPER_KINDS, 0 if trace else seconds)
    first = {run.kind: run for run in rounds[0]}
    problems = _problems(rounds)
    for kind in ("lazy", "alpha", "ct"):
        if first[kind].update_ios >= first["rtree"].update_ios:
            problems.append(
                f"{kind} charged {first[kind].update_ios} update I/Os, not fewer "
                f"than the R-tree's {first['rtree'].update_ios}"
            )
    e2e = _end_to_end(rounds)
    report = [_per_kind(rounds)]
    if not trace:
        return Outcome(_attempted(rounds), 0, problems, e2e, {}, report)
    runs, _tracer, layers, traced_report = _traced(replay, PAPER_KINDS, rounds[0], jsonl)
    phases = first["ct"].phases
    report += [
        traced_report[0],
        "CT-R-tree build phases: " + ", ".join(f"{k} {v:.3f} s" for k, v in phases.items()),
        "change tolerance (updates absorbed in their leaf MBR): "
        + ", ".join(
            f"{kind} {first[kind].lazy_hits / first[kind].n_updates:.3f}"
            for kind in ("lazy", "alpha")
        ),
        "page I/O per update / per query: "
        + ", ".join(
            f"{run.kind} {run.update_ios / run.n_updates:.3f} / {run.query_ios / run.n_queries:.2f}"
            for run in rounds[0]
        ),
        *traced_report[1:],
    ]
    problems += _problems([runs])
    return Outcome(_attempted(rounds + [runs]), 0, problems, e2e, layers, report)


def lsm_city(inputs: CityInputs, seconds: float, trace: bool, jsonl) -> Outcome:
    """The same trace against the LSM-R-tree, with ten times the queries."""
    replay = Replay(inputs, LSM_RATIO)
    rounds = _rounds(replay, ("lsm",), 0 if trace else seconds, LSM_SETUPS)
    plain = [runs[0] for runs in rounds]
    problems = _problems(rounds)
    e2e = _end_to_end(rounds)
    if not trace:
        return Outcome(_attempted(rounds), 0, problems, e2e, {})
    runs, tracer, layers, report = _traced(replay, ("lsm",), plain[:1], jsonl)
    run = runs[0]
    probes = tracer.calls("lsm.bloom")
    rejects = tracer.counts().get("lsm.bloom.rejects", 0)
    report.insert(
        1,
        f"LSM: {tracer.calls('buffer.put')} memtable puts, {run.flushes} flushes "
        f"({tracer.self_s('lsm.flush'):.3f} s), {run.compactions} compactions "
        f"({tracer.self_s('lsm.compact'):.3f} s), read amplification "
        f"{run.read_amplification:.2f}, {probes} Bloom probes "
        f"({rejects / probes if probes else 0.0:.1%} rejected)",
    )
    problems += _problems([runs])
    return Outcome(_attempted(rounds + [runs]), 0, problems, e2e, layers, report)
