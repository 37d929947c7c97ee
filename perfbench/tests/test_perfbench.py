"""The benchmark's own tests: every check catches a planted error, and every
workload runs clean at smoke size on a second seed.

    python3 -m pytest perfbench/tests -q

The smoke runs use the ``smoke`` City Simulator preset (300 objects,
3,000 online updates) so the whole file takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402

common.use_checkout_source()

import oracle  # noqa: E402
import replay  # noqa: E402
import serve  # noqa: E402

SEED = 2
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
E2E = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}


@pytest.fixture(scope="module")
def inputs():
    return common.city_inputs(SEED, preset="smoke")


# -- planted errors ----------------------------------------------------------


def test_oracle_answers_follow_the_update_stream():
    initial = {1: (0.0, 0.0), 2: (5.0, 5.0)}
    records = [SimpleNamespace(oid=1, point=(5.0, 5.0), t=1.0)]
    queries = [
        common.Query(0.5, (4.0, 4.0), (6.0, 6.0)),
        common.Query(1.0, (4.0, 4.0), (6.0, 6.0)),
    ]
    before, after = oracle.answers_at_queries(initial, records, queries)
    assert before == {2: (5.0, 5.0)}
    assert after == {1: (5.0, 5.0), 2: (5.0, 5.0)}


def test_mismatch_catches_a_dropped_match_and_a_moved_object():
    expected = {1: (1.0, 1.0), 2: (2.0, 2.0)}
    assert oracle.mismatch([(1, (1.0, 1.0)), (2, (2.0, 2.0))], expected) is None
    assert "missing [2]" in oracle.mismatch([(1, (1.0, 1.0))], expected)
    assert "wrong position for [2]" in oracle.mismatch(
        [(1, (1.0, 1.0)), (2, (2.0, 2.5))], expected
    )
    assert "duplicate" in oracle.mismatch(
        [(1, (1.0, 1.0)), (1, (1.0, 1.0)), (2, (2.0, 2.0))], expected
    )


def _replay_with(inputs, tamper):
    """One lazy-R-tree kind round whose answers pass through ``tamper``."""
    run_replay = replay.Replay(inputs, replay.PAPER_RATIO)
    (live,) = run_replay.play(["lazy"])
    live.answers = [tamper(i, a) for i, a in enumerate(live.answers)]
    run_replay.check(live)
    return live.run.problems


def test_replay_check_catches_a_dropped_match(inputs):
    target = next(i for i, a in enumerate(replay.Replay(inputs, replay.PAPER_RATIO).expected) if a)
    problems = _replay_with(inputs, lambda i, a: a[1:] if i == target else a)
    assert any(f"query {target}" in p and "missing" in p for p in problems)


def test_replay_check_catches_a_moved_object(inputs):
    target = next(i for i, a in enumerate(replay.Replay(inputs, replay.PAPER_RATIO).expected) if a)

    def move(i, answer):
        if i != target:
            return answer
        (oid, (x, y)), rest = answer[0], answer[1:]
        return [(oid, (x + 1e-3, y))] + list(rest)

    problems = _replay_with(inputs, move)
    assert any(f"query {target}" in p and "wrong position" in p for p in problems)


def test_replay_check_passes_untampered_answers(inputs):
    assert _replay_with(inputs, lambda i, a: a) == []


def test_split_keeps_every_query_between_the_right_updates(inputs):
    """Replaying the pieces in turn is the single timestamp-ordered replay."""
    run_replay = replay.Replay(inputs, replay.PAPER_RATIO)
    pieces = run_replay.pieces
    assert sum(len(r) for r, _q in pieces) == len(inputs.records)
    assert sum(len(q) for _r, q in pieces) == len(run_replay.queries)
    for i, (_records, queries) in enumerate(pieces):
        earlier = [r.t for rs, _q in pieces[:i] for r in rs]
        later = [r.t for rs, _q in pieces[i + 1:] for r in rs]
        for query in queries:
            assert not earlier or max(earlier) <= query.t
            assert not later or min(later) > query.t


class _Recovered:
    def __init__(self, positions):
        self.positions = positions

    def range_search(self, rect):
        return list(self.positions.items())


def _serve_check(inputs, recovered_positions):
    acks = {}
    oids = sorted(inputs.current)
    for seq in range(1, 41):
        oid = oids[seq % len(oids)]
        acks[seq] = (oid, (float(seq), float(seq)))
    session = serve.Session(acks=acks)
    final = oracle.final_positions(inputs.current, (acks[s] for s in range(1, 41)))
    report = SimpleNamespace(verify_ok=True, verify_violations=[])
    positions = recovered_positions(acks, final)
    serve.check(inputs, session, [], (_Recovered(positions), report))
    return session


def test_recovery_check_accepts_every_acknowledged_write(inputs):
    session = _serve_check(inputs, lambda acks, final: dict(final))
    assert session.problems == []


def test_recovery_check_catches_a_missing_acknowledged_write(inputs):
    def drop_first(acks, final):
        # The first write's object holds its pre-update position: a write
        # long since synced is missing from the recovered index.
        positions = dict(final)
        oid, _point = acks[1]
        if all(acks[s][0] != oid for s in range(2, 41)):
            positions[oid] = inputs.current[oid]
        return positions

    session = _serve_check(inputs, drop_first)
    assert any("recovered index" in p for p in session.problems)


def test_recovery_check_catches_a_missing_newest_write(inputs):
    def drop_last(acks, final):
        positions = oracle.final_positions(inputs.current, (acks[s] for s in range(1, 40)))
        return dict(positions)

    session = _serve_check(inputs, drop_last)
    assert any("recovered index" in p for p in session.problems)


def test_acked_prefix_finds_the_prefix_or_none(inputs):
    oids = sorted(inputs.current)[:3]
    acks = {s: (oids[s - 1], (float(s), 0.5)) for s in (1, 2, 3)}
    current = dict(inputs.current)
    first_two = oracle.final_positions(current, (acks[1], acks[2]))
    assert serve.acked_prefix(current, acks, dict(first_two)) == 2
    assert serve.acked_prefix(current, acks, dict(current)) == 0
    skipped = oracle.final_positions(current, (acks[2],))
    assert serve.acked_prefix(current, acks, dict(skipped)) is None


# -- smoke runs of every workload on a second seed ---------------------------


def _assert_outcome(outcome, names, failed=0):
    assert outcome.problems == []
    assert outcome.failed == failed and outcome.attempted > 0
    metrics = outcome.end_to_end if names is E2E else outcome.per_layer
    # Every workload reports every metric of the manifest.
    assert set(metrics) == set(names)
    for name, value in metrics.items():
        assert names[name] == value["unit"], name
        assert isinstance(value["value"], float), name
    return metrics


def test_paper_city_smoke(inputs, tmp_path):
    outcome = replay.paper_city(inputs, 0, False, tmp_path / "spans.jsonl")
    _assert_outcome(outcome, E2E)


def test_paper_city_traced_smoke(inputs, tmp_path):
    spans = tmp_path / "spans.jsonl"
    outcome = replay.paper_city(inputs, 0, True, spans)
    metrics = _assert_outcome(outcome, PER_LAYER)
    assert metrics["geometry.node_scans"]["value"] > 0
    first = json.loads(spans.read_text().splitlines()[0])
    assert set(first) == {"id", "parent", "name", "start", "end", "op"}
    assert any(line.startswith("named remainder") for line in outcome.report)
    assert any(line.startswith("layers vs untraced") for line in outcome.report)
    assert any(line.startswith("CT-R-tree build phases") for line in outcome.report)


def test_lsm_city_smoke(inputs, tmp_path):
    outcome = replay.lsm_city(inputs, 0, True, tmp_path / "spans.jsonl")
    metrics = _assert_outcome(outcome, PER_LAYER)
    assert metrics["index.update_us"]["value"] > 0
    assert set(outcome.end_to_end) == set(E2E)
    (lsm,) = [line for line in outcome.report if line.startswith("LSM:")]
    assert " 0 flushes" not in lsm


def test_serve_paced_smoke(inputs, tmp_path):
    """Every crash-probe write is lost (group commit acks before the fsync)."""
    outcome = serve.serve_paced(inputs, 2, False, tmp_path / "spans.jsonl", tmp_path)
    _assert_outcome(outcome, E2E, failed=serve.PROBE_WRITES)
    assert not any(p.name.startswith("serve-") for p in tmp_path.iterdir())


def test_serve_paced_traced_smoke(inputs, tmp_path):
    outcome = serve.serve_paced(inputs, 2, True, tmp_path / "spans.jsonl", tmp_path)
    metrics = _assert_outcome(outcome, PER_LAYER, failed=2 * serve.PROBE_WRITES)
    assert metrics["setup.load_s"]["value"] > 0
    assert metrics["index.update_us"]["value"] > 0
    assert (tmp_path / "spans-daemon.jsonl").read_text().count("\n") > 0


def test_run_refuses_without_the_program(tmp_path):
    """A directory holding only the benchmark exits non-zero, printing no result."""
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-city", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
