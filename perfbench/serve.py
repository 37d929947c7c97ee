"""serve-paced: a ``repro serve`` daemon driven on an open-loop schedule.

The daemon runs in its own process (``python -m repro serve``), serving the
lazy R-tree with the default snapshot replica, its WAL on with an fsync per
acknowledged write and a checkpoint every ``CHECKPOINT_EVERY`` applied
updates.  One benchmark
process drives it over ``CONNECTIONS`` connections, one thread each, at a
fixed offered rate well below capacity: each connection repeats the cycle
update, update, update, update, range read.  Trace updates are split by
``oid`` across the connections, so each object's updates keep their order;
reads (1% of the city) go to the replica.  Every request is timed from
when it was due, so a stall also charges the requests queued behind it.

After the schedule, ``fresh`` reads (``FRESH_READS`` squares, then a
sweep of the whole city) run on the primary, the daemon is SIGKILLed, and
``durability.recover()`` rebuilds the index from the WAL directory.
Checks: every replica answer equals the oracle at the replica's write
sequence number, every fresh read equals the oracle over every
acknowledged write, and the recovered index holds exactly the
acknowledged positions and verifies clean.

A crash probe covers group commit: a second daemon under ``group:16``
acknowledges ``PROBE_WRITES`` fixed updates, is SIGKILLed and recovered.
DESIGN.md promises that a crash recovers exactly the acknowledged writes
("Log-before-ack"), but the WAL keeps frames of an unsynced group in the
process's file buffer, so each probe write is lost on every run.  Each
lost write counts as a failed operation.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import oracle
from common import (
    HERE,
    N_HISTORY,
    SRC,
    CityInputs,
    Outcome,
    grid,
    latency_metrics,
    median,
    metric,
    peak_rss_mb,
    percentile,
    settle,
    square,
)
from tracing import Tracer, accounting, layer_metrics, self_time_table

#: Offered load over all connections, requests per second.  Closed-loop
#: capacity of one connection is about 2,300 updates/s on a 2-core machine.
RATE = 400.0
CONNECTIONS = 2
#: One cycle per connection: four updates, then one replica read.
CYCLE = ("update", "update", "update", "update", "range")
READ_EXTENT = 0.01
#: One fsync per acknowledged write: the policy under which a crash may
#: lose no acknowledged write, so the main session's recovery is exact.
SYNC_POLICY = "always"
#: The crash probe: fixed updates, fewer than one commit group, under
#: group commit.  They do not depend on the seed.
PROBE_SYNC_POLICY = "group:16"
PROBE_WRITES = 8
CHECKPOINT_EVERY = 4000
#: Daemon spawns per untraced run; ``setup_s`` is their median.
SPAWNS = 5
SWEEP_GRID = 4
#: Fresh reads of ``READ_EXTENT`` on the primary after the schedule: they
#: give ``ios_per_query``.  The sweep's cells are too few, and too large,
#: for it: their page reads hang on where the seed's roads cross the grid
#: lines (IQR 9-14% across seeds).  One read costs 3 to 20 page reads, so
#: 200 reads still left a sampling error near 4% in the mean.
FRESH_READS = 1000
READY_TIMEOUT_S = 60.0


@dataclass
class Session:
    """One daemon driven through the schedule, with what it answered."""

    acks: Dict[int, Tuple[int, Tuple[float, float]]] = field(default_factory=dict)
    #: (replica seq, (lo, hi), matches) per replica read.
    reads: List[tuple] = field(default_factory=list)
    update_s: List[float] = field(default_factory=list)
    read_s: List[float] = field(default_factory=list)
    lag_s: List[float] = field(default_factory=list)
    #: Requests on the schedule.
    requests: int = 0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    retries: int = 0
    stats: Dict = field(default_factory=dict)
    daemon_rss_mb: float = 0.0
    #: Daemon CPU seconds (all threads) over the schedule.
    daemon_cpu_s: float = 0.0
    #: Page reads charged to QUERY by the ``FRESH_READS`` fresh reads.
    fresh_query_ios: int = 0
    #: Pages held by the index ``durability.recover()`` rebuilt.
    recovered_pages: int = 0
    recover_s: float = 0.0
    records_replayed: int = 0
    replay_s: float = 0.0
    #: Crash probe: acknowledged writes missing from the recovered index.
    probe_lost: int = 0
    problems: List[str] = field(default_factory=list)
    client_wall_s: float = 0.0


def write_trace(path: Path, inputs: CityInputs) -> None:
    """The history prefix the daemon loads, as ``oid,x,y,t`` CSV."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("oid,x,y,t\n")
        for oid, trail in inputs.trails.items():
            for point, t in trail[:N_HISTORY]:
                fh.write(f"{oid},{point[0]!r},{point[1]!r},{t!r}\n")


class Daemon:
    """One ``repro serve`` process in ``work``; ``ready_s`` is spawn-to-ready."""

    def __init__(
        self, work: Path, csv: Path, traced: bool, spans: Optional[Path],
        sync_policy: str = SYNC_POLICY,
    ) -> None:
        self.wal = work / "wal"
        shutil.rmtree(self.wal, ignore_errors=True)
        ready = work / "ready.json"
        ready.unlink(missing_ok=True)
        entry = [str(HERE / "traced_daemon.py")] if traced else ["-m", "repro"]
        argv = [sys.executable, *entry, "serve", str(csv),
                "--history", str(N_HISTORY), "--kind", "lazy", "--port", "0",
                "--ready-file", str(ready), "--wal-dir", str(self.wal),
                "--sync-policy", sync_policy,
                "--checkpoint-every", str(CHECKPOINT_EVERY)]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        if spans is not None:
            env["PERFBENCH_SPANS"] = str(spans)
        self.log = work / "daemon.log"
        t0 = perf_counter()
        with open(self.log, "ab") as log:
            self.proc = subprocess.Popen(argv, env=env, stdout=log, stderr=log)
        while not ready.exists():
            if self.proc.poll() is not None or perf_counter() - t0 > READY_TIMEOUT_S:
                self.kill()
                tail = self.log.read_text(errors="replace")[-2000:]
                raise RuntimeError(f"daemon never became ready:\n{tail}")
            time.sleep(0.002)
        self.ready_s = perf_counter() - t0
        info = json.loads(ready.read_text())
        self.address = (info["host"], int(info["port"]))

    def cpu_s(self) -> float:
        """CPU seconds the daemon has used so far, over all its threads
        (``utime + stime`` from ``/proc/<pid>/stat``, Linux)."""
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def terminate(self) -> None:
        """Graceful drain (SIGTERM), waited for."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.kill()

    def kill(self) -> None:
        """SIGKILL, waited for: a crash."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def schedule(inputs: CityInputs, seconds: float) -> List[List[tuple]]:
    """Per connection: ``(due offset s, op, payload)`` for whole cycles."""
    per_conn = RATE / CONNECTIONS
    cycles = max(1, int(seconds * per_conn / len(CYCLE)))
    rng = random.Random(f"perfbench-serve-reads-{inputs.seed}")
    plans: List[List[tuple]] = []
    for c in range(CONNECTIONS):
        updates = iter([r for r in inputs.records if r.oid % CONNECTIONS == c])
        plan = []
        for k in range(cycles * len(CYCLE)):
            due = (k * CONNECTIONS + c) / RATE
            op = CYCLE[k % len(CYCLE)]
            if op == "update":
                record = next(updates)
                plan.append((due, op, (record.oid, record.point, record.t)))
            else:
                plan.append((due, op, square(rng, inputs.domain, READ_EXTENT)))
        plans.append(plan)
    return plans


def drive(address, plans, session: Session, seed: int, tracer: Optional[Tracer]) -> None:
    """Run every connection's plan on its own thread, open loop."""
    from repro.resilience.client import ResilientServeClient

    lock = threading.Lock()
    start = perf_counter() + 0.05

    def connection(c: int, plan: List[tuple]) -> None:
        client = ResilientServeClient(
            *address, client_id=f"perfbench-{seed}-{c}", rng=random.Random(seed * 31 + c)
        )
        update, read, sleep = client.update, client.range, time.sleep
        if tracer is not None:
            update = tracer.wrap("client.update", update, op=True)
            read = tracer.wrap("client.range", read, op=True)
            sleep = tracer.wrap("loadgen.wait", sleep, keep=False)
        acks, reads, upd_s, read_s, lag_s, errors = {}, [], [], [], [], []
        try:
            for due, op, payload in plan:
                due_at = start + due
                wait = due_at - perf_counter()
                if wait > 0:
                    sleep(wait)
                lag_s.append(perf_counter() - due_at)
                try:
                    if op == "update":
                        oid, point, t = payload
                        response = update(oid, point, t)
                        upd_s.append(perf_counter() - due_at)
                        acks[response["seq"]] = (oid, tuple(point))
                    else:
                        lo, hi = payload
                        response = read(lo, hi)
                        read_s.append(perf_counter() - due_at)
                        reads.append((response["staleness"], payload, response["matches"]))
                except Exception as exc:  # a failed request is counted, the schedule goes on
                    errors.append(f"{op}: {exc!r}")
        finally:
            client.close()
        with lock:
            dup = set(acks) & set(session.acks)
            if dup:
                session.problems.append(f"write sequence numbers acked twice: {sorted(dup)[:5]}")
            session.acks.update(acks)
            session.reads.extend(reads)
            session.update_s.extend(upd_s)
            session.read_s.extend(read_s)
            session.lag_s.extend(lag_s)
            session.attempted += len(plan)
            session.failed += len(errors)
            session.errors.extend(errors)
            session.retries += client.counters["retries"]

    def root(c: int, plan: List[tuple]) -> None:
        t0 = perf_counter()
        if tracer is None:
            connection(c, plan)
        else:
            tracer.run(f"loadgen.conn{c}", connection, c, plan)
        with lock:
            session.client_wall_s += perf_counter() - t0

    threads = [
        threading.Thread(target=root, args=(c, plan), name=f"perfbench-conn{c}")
        for c, plan in enumerate(plans)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=max(60.0, 3 * plans[0][-1][0] + 60.0))
        if thread.is_alive():
            raise RuntimeError("a load-generator connection never finished")


def acked_prefix(current, acks: Dict[int, tuple], positions: Dict) -> Optional[int]:
    """The ``k`` for which ``positions`` are the acknowledged writes ``1..k``
    applied to ``current`` (the largest, if several), or None."""
    prefix = oracle.Oracle(dict(current))
    found = 0 if prefix.latest == positions else None
    for k in range(1, len(acks) + 1):
        prefix.apply(*acks[k])
        if prefix.latest == positions:
            found = k
    return found


def check(inputs: CityInputs, session: Session, sweep: List[tuple], recovered) -> None:
    """Replica reads, the fresh sweep and the recovered index vs the oracle."""
    from repro.core.geometry import Rect

    problems = session.problems
    n = len(session.acks)
    if sorted(session.acks) != list(range(1, n + 1)):
        problems.append(f"ack sequence numbers are not exactly 1..{n}")
        return
    reads = []
    for staleness, box, matches in session.reads:
        if staleness is None:
            problems.append("a range read was not served by a replica")
            return
        reads.append((int(staleness["seq"]), box))
    expected = oracle.answers_at_seqs(inputs.current, session.acks, reads)
    for (seq, box), (_st, _box, matches), want in zip(reads, session.reads, expected):
        diff = oracle.mismatch(matches, want)
        if diff:
            problems.append(f"replica read at seq {seq} over {box}: {diff}")
            break
    final = oracle.Oracle(
        oracle.final_positions(inputs.current, (session.acks[s] for s in range(1, n + 1)))
    )
    for box, matches in sweep:
        diff = oracle.mismatch(matches, final.answer(*box))
        if diff:
            problems.append(f"fresh read over {box}: {diff}")
            break
    index, report = recovered
    if report.verify_ok is not True:
        problems.append(f"recovered index does not verify: {report.verify_violations[:3]}")
    diff = oracle.mismatch(index.range_search(Rect(*inputs.domain)), final.latest)
    if diff:
        problems.append(f"recovered index is not the {n} acknowledged writes: {diff}")


def crash_probe(inputs: CityInputs, work: Path, csv: Path, session: Session) -> None:
    """Group commit under a crash: ``PROBE_WRITES`` acknowledged updates,
    SIGKILL, recover; every acknowledged write missing is a failure."""
    from repro.core.geometry import Rect
    from repro.durability import recover
    from repro.resilience.client import ResilientServeClient

    (lx, ly), (hx, hy) = inputs.domain
    acks: Dict[int, tuple] = {}
    daemon = Daemon(work, csv, False, None, sync_policy=PROBE_SYNC_POLICY)
    try:
        with ResilientServeClient(*daemon.address, client_id="perfbench-probe") as client:
            for i, oid in enumerate(sorted(inputs.current)[:PROBE_WRITES]):
                point = (lx + (hx - lx) * (i + 1) / 16, ly + (hy - ly) / 2)
                acks[client.update(oid, point, inputs.load_time + 1.0)["seq"]] = (oid, point)
    finally:
        daemon.kill()
    session.attempted += PROBE_WRITES
    if sorted(acks) != list(range(1, PROBE_WRITES + 1)):
        session.problems.append(f"crash probe: ack sequence numbers {sorted(acks)}")
        return
    index, report = recover(daemon.wal)
    if report.verify_ok is not True:
        session.problems.append("crash probe: recovered index does not verify")
    positions = oracle.as_answer(index.range_search(Rect(*inputs.domain)))
    k = acked_prefix(inputs.current, acks, positions)
    if k is None:
        session.problems.append(
            "crash probe: recovered index is no prefix of the acknowledged writes"
        )
        return
    session.probe_lost = PROBE_WRITES - k
    session.failed += session.probe_lost
    session.errors += [
        f"crash probe: acknowledged write #{s} lost" for s in range(k + 1, PROBE_WRITES + 1)
    ]


def run_session(
    inputs: CityInputs, seconds: float, work: Path, spawns: int,
    tracer: Optional[Tracer] = None, daemon_spans: Optional[Path] = None,
) -> Tuple[Session, List[float]]:
    """Spawn (``spawns`` times; all but the last are drained at once), drive,
    sweep, kill, recover, probe -> (session, spawn-to-ready seconds).

    The daemon's times are not scaled to reference speed: it runs in
    another process, whose speed the kernel here does not track (see
    README, "Times are scaled to reference speed").
    """
    from repro.durability import recover
    from repro.resilience.client import ResilientServeClient

    csv = work / "history.csv"
    if not csv.exists():
        write_trace(csv, inputs)
    session = Session()
    ready: List[float] = []
    daemon = None
    try:
        for i in range(spawns):
            daemon = Daemon(work, csv, tracer is not None, daemon_spans)
            ready.append(daemon.ready_s)
            if i < spawns - 1:
                daemon.terminate()
        plans = schedule(inputs, seconds)
        session.requests = sum(len(plan) for plan in plans)
        settle()
        cpu0 = daemon.cpu_s()
        drive(daemon.address, plans, session, inputs.seed, tracer)
        session.daemon_cpu_s = daemon.cpu_s() - cpu0
        sweep = []
        rng = random.Random(f"perfbench-serve-fresh-{inputs.seed}")
        boxes = [square(rng, inputs.domain, READ_EXTENT) for _ in range(FRESH_READS)]
        with ResilientServeClient(*daemon.address, client_id="perfbench-sweep") as client:
            before = client.server_stats()["service"]["io"].get("query", {}).get("total", 0)
            for box in boxes:
                sweep.append((box, client.range(*box, fresh=True)["matches"]))
            session.stats = client.server_stats()
            session.fresh_query_ios = session.stats["service"]["io"]["query"]["total"] - before
            for box in grid(inputs.domain, SWEEP_GRID):
                sweep.append((box, client.range(*box, fresh=True)["matches"]))
        daemon.kill()
        # The daemons are this process's only children, all waited for.
        session.daemon_rss_mb = peak_rss_mb(resource.RUSAGE_CHILDREN)
        t0 = perf_counter()
        recovered = recover(daemon.wal)
        session.recover_s = perf_counter() - t0
        session.recovered_pages = recovered[0].pager.page_count
        session.records_replayed = recovered[1].records_replayed
        session.replay_s = recovered[1].replay_s
        check(inputs, session, sweep, recovered)
        crash_probe(inputs, work, csv, session)
    finally:
        if daemon is not None:
            daemon.kill()
    return session, ready


def _end_to_end(session: Session, ready: List[float]) -> Dict[str, Dict[str, object]]:
    """Set-up, requests per daemon CPU second, the daemon's page I/O and
    memory, and the pages of the index recovered from its WAL."""
    io = session.stats["service"]["io"]
    applied = session.stats["service"]["applied"]
    return {
        "setup_s": metric(median(ready), "s"),
        "ops_s": metric(session.requests / session.daemon_cpu_s, "1/s"),
        "ios_per_update": metric(io["update"]["total"] / applied, "count"),
        # Only fresh reads use the primary's pages; replica reads run on
        # forked copies with ledgers of their own.
        "ios_per_query": metric(session.fresh_query_ios / FRESH_READS, "count"),
        "index_pages": metric(float(session.recovered_pages), "count"),
        "peak_rss_mb": metric(session.daemon_rss_mb, "MB"),
    }


def _serve_report(session: Session) -> str:
    """The serving path's own counts, from the daemon's ``stats`` op (and,
    traced, its wrapped layers) and the recovery."""
    stats = session.stats
    values = stats["metrics"]["values"]
    counters = stats["metrics"]["counters"]
    durability = stats["service"]["durability"]

    def mean_ms(name: str) -> str:
        return f"{values[name]['mean'] * 1e3:.3f} ms" if name in values else "n/a"

    rejected = sum(v for k, v in counters.items() if k.startswith("serve.rejected"))
    line = (
        f"serving path: server update {mean_ms('serve.op.update.latency_s')}, "
        f"server range {mean_ms('serve.op.range.latency_s')}, "
        f"writer apply {mean_ms('serve.writer.apply_s')} "
        f"(batch {values.get('serve.writer.batch', {}).get('mean', 0.0):.2f}), "
        f"{stats['replicas']['refreshes']} replica refreshes, "
        f"{durability['wal']['appends']} WAL appends, {durability['wal']['fsyncs']} fsyncs, "
        f"{durability['checkpoints_taken']} checkpoints, {rejected} rejected, "
        f"{counters.get('serve.dedup.hit', 0)} dedup hits, {session.retries} client retries, "
        f"load generator lag p99 {percentile(session.lag_s, 99) * 1e3:.2f} ms; "
        f"recover() {session.recover_s:.3f} s replaying {session.records_replayed} records "
        f"({session.replay_s:.3f} s), crash probe lost {session.probe_lost} of {PROBE_WRITES}"
    )
    daemon = stats.get("perfbench", {}).get("layers", {})
    if not daemon:
        return line

    def per_call_ms(*names: str) -> str:
        calls = daemon.get(names[0], (0,))[0]
        total = sum(daemon.get(name, (0, 0.0))[1] for name in names)
        return f"{total / calls * 1e3:.2f} ms" if calls else "n/a"

    return (
        f"{line}; traced daemon: replica refresh "
        f"{per_call_ms('serve.replica.fork', 'serve.replica.install')} each, checkpoint "
        f"{per_call_ms('durability.checkpoint')} each, "
        f"{daemon.get('gc.gen2', (0,))[0]} gen2 collections of {per_call_ms('gc.gen2')}"
    )


def _cpu_ms_per_request(session: Session) -> float:
    return session.daemon_cpu_s / session.requests * 1e3


def serve_paced(inputs: CityInputs, seconds: float, trace: bool, jsonl: Path, out_dir: Path) -> Outcome:
    work = out_dir / f"serve-{inputs.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        plain, ready = run_session(inputs, seconds, work, 1 if trace else SPAWNS)
        sessions = [plain]
        e2e = _end_to_end(plain, ready)
        layers: Dict[str, Dict[str, object]] = {}
        report: List[str] = [_serve_report(plain)]
        if trace:
            tracer = Tracer()
            daemon_spans = jsonl.with_name(jsonl.stem + "-daemon.jsonl")
            traced, _ready = run_session(inputs, seconds, work, 1, tracer, daemon_spans)
            sessions.append(traced)
            spans = tracer.write_jsonl(jsonl)
            totals = {
                name: tuple(v) for name, v in traced.stats["perfbench"]["layers"].items()
            }
            untraced_cpu = _cpu_ms_per_request(plain)
            overhead = _cpu_ms_per_request(traced) / untraced_cpu - 1.0
            # The open loop fixes the wall time, traced or not: only the
            # remainder is checked here.
            lines, remainder = accounting(tracer, traced.client_wall_s, ("loadgen.conn",))
            layers = {
                "setup.build_s": metric(totals["setup.build"][2], "s"),
                "setup.load_s": metric(totals["setup.load"][2], "s"),
                **layer_metrics(totals),
                # Latency from due time, of the untraced session.
                **latency_metrics(plain.update_s, plain.read_s),
                "trace.remainder_share": metric(remainder, "ratio"),
                "trace.overhead": metric(overhead, "ratio"),
            }
            report += [
                _serve_report(traced),
                "load generator (benchmark process):",
                self_time_table(tracer.layers()),
                *lines,
                "daemon (traced_daemon.py, reported through the stats op):",
                self_time_table({name: v[:2] for name, v in totals.items()}),
                f"tracing overhead: daemon CPU {_cpu_ms_per_request(traced):.3f} ms per request "
                f"traced vs {untraced_cpu:.3f} ms untraced ({overhead:+.1%})",
                f"spans: {spans} client spans in {jsonl}, "
                f"{traced.stats['perfbench']['spans']} daemon spans in {daemon_spans}",
            ]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    problems = [p for s in sessions for p in s.problems]
    report += [f"failed request: {e}" for s in sessions for e in s.errors[:PROBE_WRITES + 5]]
    return Outcome(
        sum(s.attempted for s in sessions),
        sum(s.failed for s in sessions),
        problems,
        e2e,
        layers,
        report,
    )
