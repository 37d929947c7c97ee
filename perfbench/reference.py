"""A fixed pure-Python kernel that measures how fast the machine runs right now.

On a shared virtual machine the speed of Python code drifts by up to 1.75x
over minutes, and every kind of index moves with it (paper-city, one seed,
eight rounds in a row: the R-tree replayed at 6,400-11,200 ops/s, and the
other three kinds moved by the same factor within each round).  The
benchmark times this kernel next to every timed stretch of the program and
scales the stretch to the kernel's reference time ``REF_S``, so a time
metric reports what the stretch would take on a machine that runs the
kernel in ``REF_S``.  The kernel is the benchmark's own code and never
calls the program, so a change to the program moves the scaled metric
exactly as it moves the raw one.

The kernel does what an index update does in pure Python: looks an object
up by id, moves it, recomputes the bounding box of its 50-entry node and
filters the node.  Over five rounds on one seed, the R-tree's raw rate
ran 6,400-8,300 ops/s and its scaled rate stayed within 2%.
"""

from __future__ import annotations

import random
from time import perf_counter
from typing import Dict, List

#: The kernel's time on the machine the reference figures were taken on.
REF_S = 0.020
_OBJECTS = 20_000
_NODE = 50
_MOVES = 1_500


class _Obj:
    __slots__ = ("oid", "x", "y")

    def __init__(self, oid: int, x: float, y: float) -> None:
        self.oid, self.x, self.y = oid, x, y


class Reference:
    """The kernel's data, built once per run from a fixed seed."""

    def __init__(self) -> None:
        rng = random.Random(20050405)
        objs = [_Obj(i, rng.random(), rng.random()) for i in range(_OBJECTS)]
        self.by_id: Dict[int, _Obj] = {o.oid: o for o in objs}
        self.nodes: List[List[_Obj]] = [objs[i:i + _NODE] for i in range(0, _OBJECTS, _NODE)]
        self.moves = [
            (rng.randrange(_OBJECTS), rng.random(), rng.random()) for _ in range(_MOVES)
        ]

    def measure(self) -> float:
        """Run the kernel once -> seconds."""
        by_id, nodes = self.by_id, self.nodes
        t0 = perf_counter()
        for oid, x, y in self.moves:
            obj = by_id[oid]
            obj.x, obj.y = x, y
            node = nodes[oid // _NODE]
            lo = min(o.x for o in node)
            hi = max(o.x for o in node)
            [o for o in node if lo <= o.x <= hi and o.y < 0.5]
        return perf_counter() - t0


def scaled(seconds: float, kernel_s: float, calls: int = 1) -> float:
    """``seconds`` at reference speed, given ``calls`` kernel runs that took
    ``kernel_s`` in total next to them."""
    return seconds * calls * REF_S / kernel_s
