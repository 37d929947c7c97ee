"""The benchmark's oracle: range answers by brute force over latest positions.

The oracle is built from the generated inputs alone -- initial positions
plus the update stream -- and never calls the program.  Every workload
checks the program's answers against it:

* :func:`answers_at_queries` -- the expected answer of each range query at
  its own trace instant (updates at the same instant apply first, as the
  paper's driver orders them);
* :func:`answers_at_seqs` -- the expected answer of each read served from a
  snapshot taken after the first ``seq`` acknowledged writes (the serving
  daemon's replicas);
* :func:`mismatch` -- a one-line description of how an answer differs from
  the expected one, or ``None`` when they agree exactly.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

Point = Tuple[float, float]
Box = Tuple[Point, Point]
Answer = Dict[int, Point]


class Oracle:
    """A dict of latest positions, queried by scanning every object."""

    def __init__(self, positions: Mapping[int, Sequence[float]]) -> None:
        self.latest: Dict[int, Point] = {
            oid: (float(p[0]), float(p[1])) for oid, p in positions.items()
        }

    def apply(self, oid: int, point: Sequence[float]) -> None:
        self.latest[oid] = (float(point[0]), float(point[1]))

    def answer(self, lo: Point, hi: Point) -> Answer:
        lx, ly = lo
        hx, hy = hi
        return {
            oid: p
            for oid, p in self.latest.items()
            if lx <= p[0] <= hx and ly <= p[1] <= hy
        }


def answers_at_queries(
    initial: Mapping[int, Sequence[float]], records: Sequence, queries: Sequence
) -> List[Answer]:
    """Expected answer of each query (``.t``/``.lo``/``.hi``) at its instant.

    ``records`` carry ``.oid``/``.point``/``.t`` in time order; a record
    with ``t <= query.t`` is applied before the query is answered.
    """
    oracle = Oracle(initial)
    out: List[Answer] = []
    i = 0
    for query in sorted(queries, key=lambda q: q.t):
        while i < len(records) and records[i].t <= query.t:
            oracle.apply(records[i].oid, records[i].point)
            i += 1
        out.append(oracle.answer(query.lo, query.hi))
    return out


def final_positions(
    initial: Mapping[int, Sequence[float]], updates: Iterable[Tuple[int, Sequence[float]]]
) -> Dict[int, Point]:
    """Latest position per object after every ``(oid, point)`` update."""
    oracle = Oracle(initial)
    for oid, point in updates:
        oracle.apply(oid, point)
    return oracle.latest


def answers_at_seqs(
    initial: Mapping[int, Sequence[float]],
    acked: Mapping[int, Tuple[int, Sequence[float]]],
    reads: Sequence[Tuple[int, Box]],
) -> List[Answer]:
    """Expected answers for reads served at a write sequence number.

    ``acked`` maps each acknowledged write's sequence number to its
    ``(oid, point)``; a read ``(seq, (lo, hi))`` sees exactly the writes
    numbered ``1..seq``.  Answers come back in the order of ``reads``.
    """
    oracle = Oracle(initial)
    applied = 0
    out: List[Optional[Answer]] = [None] * len(reads)
    for idx in sorted(range(len(reads)), key=lambda k: reads[k][0]):
        seq, (lo, hi) = reads[idx]
        while applied < seq:
            applied += 1
            oid, point = acked[applied]
            oracle.apply(oid, point)
        out[idx] = oracle.answer(lo, hi)
    return out  # type: ignore[return-value]


def as_answer(matches: Iterable[Tuple[int, Sequence[float]]]) -> Answer:
    """Normalize a program answer (``(oid, point)`` pairs) for comparison."""
    return {int(oid): (float(p[0]), float(p[1])) for oid, p in matches}


def mismatch(got: Iterable[Tuple[int, Sequence[float]]], expected: Answer) -> Optional[str]:
    """Describe how ``got`` differs from ``expected``; None when equal.

    Duplicates count as a mismatch: an object must be reported once.
    """
    pairs = list(got)
    answer = as_answer(pairs)
    if len(pairs) != len(answer):
        return f"{len(pairs) - len(answer)} duplicate object(s) in the answer"
    if answer == expected:
        return None
    missing = sorted(set(expected) - set(answer))
    extra = sorted(set(answer) - set(expected))
    moved = sorted(
        oid for oid in set(answer) & set(expected) if answer[oid] != expected[oid]
    )
    parts = []
    if missing:
        parts.append(f"missing {missing[:5]}")
    if extra:
        parts.append(f"extra {extra[:5]}")
    if moved:
        parts.append(f"wrong position for {moved[:5]}")
    return ", ".join(parts)
