"""Span recording around the program's public entry points, from outside.

The traced run patches public functions and methods with wrappers that
time each call.  Every wrapped call charges its *self time* (its duration
minus the time of the wrapped calls it made) to its layer; a root span's
self time is the named remainder, the time no wrapped layer accounts for.
Coarse layers also keep one span each -- name, start, end, parent span and
operation id -- in memory, written as JSONL when the run ends.
Fine-grained layers (page store calls, geometry node scans, Bloom probes)
run millions of times per replay; they keep counts and self time only, so
tracing stays within memory.
"""

from __future__ import annotations

import gc
import itertools
import json
import threading
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from common import metric

#: (span id, parent span id, name, start, end, operation id)
Span = Tuple[int, int, str, float, float, int]


class _ThreadState:
    __slots__ = ("stack", "totals", "counts", "op", "gc_start")

    def __init__(self) -> None:
        #: Open frames: [child time, own span id, nearest kept ancestor id].
        self.stack: List[list] = []
        self.totals: Dict[str, list] = {}
        self.counts: Dict[str, int] = {}
        self.op = 0
        self.gc_start = 0.0


class Tracer:
    """Records spans and per-layer self time for wrapped calls."""

    def __init__(self) -> None:
        self.origin = perf_counter()
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._op_ids = itertools.count(1)
        self._tls = threading.local()
        self._threads: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: List[tuple] = []
        self._gc_callback: Optional[Callable] = None
        #: Layer name -> whether its calls keep a span.
        self.kept: Dict[str, bool] = {}

    def _state(self) -> _ThreadState:
        state = getattr(self._tls, "state", None)
        if state is None:
            state = self._tls.state = _ThreadState()
            with self._lock:
                self._threads.append(state)
        return state

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        keep: bool = True,
        op: bool = False,
        count_false: Optional[str] = None,
    ) -> Callable:
        """``fn`` timed as layer ``name``.

        ``keep`` records one span per call; ``op`` starts a new operation
        id when no operation is open on this thread (an index update or
        query, a served request); ``count_false`` counts calls that
        returned a false value under that name (Bloom rejections).
        """
        self.kept[name] = keep
        state_of = self._state
        spans = self.spans
        ids = self._ids
        op_ids = self._op_ids
        clock = perf_counter

        def traced(*args, **kwargs):
            state = state_of()
            stack = state.stack
            parent = stack[-1] if stack else None
            opened = op and state.op == 0
            if opened:
                state.op = next(op_ids)
            span_id = next(ids) if keep else 0
            frame = [0.0, span_id, span_id or (parent[2] if parent else 0)]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - t0
                acc = state.totals.get(name)
                if acc is None:
                    acc = state.totals[name] = [0, 0.0, 0.0]
                acc[0] += 1
                acc[1] += duration - frame[0]
                acc[2] += duration
                if parent is not None:
                    parent[0] += duration
                if keep:
                    spans.append(
                        (span_id, parent[2] if parent else 0, name, t0, t1, state.op)
                    )
                if opened:
                    state.op = 0
            if count_false is not None and not result:
                state.counts[count_false] = state.counts.get(count_false, 0) + 1
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def run(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a kept root span ``name`` (the benchmark's own)."""
        return self.wrap(name, fn)(*args, **kwargs)

    def patch(self, owner, attr: str, name: str, **options) -> None:
        """Replace ``owner.attr`` (class, instance or module) with a wrapper."""
        own = attr in vars(owner)
        previous = vars(owner)[attr] if own else None
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), **options))
        self._patches.append((owner, attr, own, previous))

    def mark(self) -> int:
        """A point to :meth:`restore` back to."""
        return len(self._patches)

    def restore(self, mark: int = 0) -> None:
        """Undo every :meth:`patch` made since ``mark``, newest first."""
        while len(self._patches) > mark:
            owner, attr, own, previous = self._patches.pop()
            if own:
                setattr(owner, attr, previous)
            else:
                delattr(owner, attr)

    def watch_gc(self) -> None:
        """Charge collector pauses to layers ``gc.gen<N>``.

        A pause is taken out of the self time of the call that triggered it,
        so the layer self times still add up.
        """

        def callback(phase: str, info: Dict) -> None:
            state = self._state()
            if phase == "start":
                state.gc_start = perf_counter()
                return
            pause = perf_counter() - state.gc_start
            acc = state.totals.setdefault(f"gc.gen{info['generation']}", [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += pause
            acc[2] += pause
            if state.stack:
                state.stack[-1][0] += pause

        self._gc_callback = callback
        gc.callbacks.append(callback)

    def unwatch_gc(self) -> None:
        if self._gc_callback is not None:
            gc.callbacks.remove(self._gc_callback)
            self._gc_callback = None

    # -- results ---------------------------------------------------------

    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """Layer name -> (calls, self seconds, inclusive seconds), merged
        over threads."""
        out: Dict[str, list] = {}
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            for name, values in list(state.totals.items()):
                acc = out.setdefault(name, [0, 0.0, 0.0])
                for i, value in enumerate(values):
                    acc[i] += value
        return {name: tuple(acc) for name, acc in out.items()}

    def layers(self) -> Dict[str, Tuple[int, float]]:
        """Layer name -> (calls, self seconds), merged over threads."""
        return {name: (calls, self_s) for name, (calls, self_s, _incl) in self.totals().items()}

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            for name, value in list(state.counts.items()):
                out[name] = out.get(name, 0) + value
        return out

    def calls(self, name: str) -> int:
        return self.layers().get(name, (0, 0.0))[0]

    def self_s(self, name: str) -> float:
        return self.layers().get(name, (0, 0.0))[1]

    def durations(self, prefix: str) -> List[float]:
        """Seconds of every kept span whose layer name starts with ``prefix``."""
        return [end - start for _id, _parent, name, start, end, _op in list(self.spans)
                if name.startswith(prefix)]

    def write_jsonl(self, path) -> int:
        """Write every kept span as one JSON line; returns the span count."""
        spans = list(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end, op in spans:
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start": start - self.origin,
                            "end": end - self.origin,
                            "op": op,
                        }
                    )
                    + "\n"
                )
        return len(spans)


def wrap_storage_and_scans(tracer: Tracer) -> None:
    """Count the page store's calls and the node-scan kernels (no spans)."""
    from repro.rtree import node
    from repro.storage.pager import Pager

    for attr in ("read", "write", "allocate", "free"):
        tracer.patch(Pager, attr, "storage", keep=False)
    for attr in (
        "node_intersecting_indices",
        "node_intersecting_children",
        "node_containing_point_indices",
        "node_points_in",
        "node_choose_subtree",
        "node_union",
    ):
        tracer.patch(node, attr, "geometry", keep=False)


def layer_metrics(totals: Dict[str, Tuple[int, float, float]]) -> Dict[str, Dict[str, object]]:
    """The per-layer metrics every workload reports, from a tracer's totals.

    ``index.update.*`` and ``index.query.*`` name the index's update and
    range-query calls (one layer per kind); their figures are inclusive
    time per call.  ``storage``, ``geometry`` and ``gc.gen<N>`` are the
    page store, the node-scan kernels and collector pauses.
    """
    def summed(prefix: str) -> Tuple[int, float, float]:
        rows = [v for name, v in totals.items() if name.startswith(prefix)]
        return (
            sum(r[0] for r in rows), sum(r[1] for r in rows), sum(r[2] for r in rows)
        )

    def per_call_us(prefix: str) -> float:
        calls, _self_s, incl_s = summed(prefix)
        return incl_s / calls * 1e6 if calls else 0.0

    storage, geometry, collections = summed("storage"), summed("geometry"), summed("gc.gen")
    return {
        "index.update_us": metric(per_call_us("index.update."), "us"),
        "index.query_us": metric(per_call_us("index.query."), "us"),
        "storage.calls": metric(float(storage[0]), "count"),
        "storage.self_s": metric(storage[1], "s"),
        "geometry.node_scans": metric(float(geometry[0]), "count"),
        "geometry.self_s": metric(geometry[1], "s"),
        "gc.collections": metric(float(collections[0]), "count"),
        "gc.gen2_collections": metric(float(summed("gc.gen2")[0]), "count"),
        "gc.pause_s": metric(collections[1], "s"),
    }


def self_time_table(layers: Dict[str, Tuple[int, float]]) -> str:
    """Per-layer self time, largest first, as an aligned text table."""
    total = sum(self_s for _calls, self_s in layers.values()) or 1.0
    rows = sorted(layers.items(), key=lambda item: -item[1][1])
    width = max([len("layer")] + [len(name) for name in layers])
    lines = [
        f"{'layer':<{width}} {'calls':>10} {'self s':>9} {'share':>7} {'us/call':>9}"
    ]
    for name, (calls, self_s) in rows:
        per_call = self_s / calls * 1e6 if calls else 0.0
        lines.append(
            f"{name:<{width}} {calls:>10} {self_s:>9.3f} "
            f"{self_s / total:>6.1%} {per_call:>9.2f}"
        )
    return "\n".join(lines)


def wrapper_cost(calls: int = 100_000) -> Dict[bool, float]:
    """Seconds a wrapper adds to one call, without and with a kept span,
    measured on a no-op inside a root span."""

    def noop() -> None:
        return None

    def loop(fn) -> float:
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        return perf_counter() - t0

    tracer = Tracer()
    bare = loop(noop)
    return {
        keep: max(0.0, tracer.run("root", loop, tracer.wrap("noop", noop, keep=keep)) - bare)
        / calls
        for keep in (False, True)
    }


#: A named remainder above this share of the traced wall time means the
#: wrapped layers miss a large part of the work.
REMAINDER_LIMIT = 0.25
#: The traced wall time less the wrappers' estimated cost should land
#: within this share of the untraced time.
PREDICTION_LIMIT = 0.15


def accounting(
    tracer: Tracer,
    wall_s: float,
    remainders: Tuple[str, ...],
    untraced_s: Optional[float] = None,
    scale: float = 1.0,
    own_s: float = 0.0,
) -> Tuple[List[str], float]:
    """Do the layers account for the end-to-end time?

    Two figures, each flagged past its limit: the named remainders' share
    of the traced wall time (``remainders`` are layer-name prefixes), and,
    when ``untraced_s`` is given, the traced wall time less the wrappers'
    cost (calls times :func:`wrapper_cost`) against the untraced time.
    ``scale`` turns the traced run's seconds into the untraced time's units
    (seconds at reference speed); ``own_s`` is time of the benchmark's own
    code inside the remainders, left out of ``wall_s`` and of them.
    Returns the report lines and the remainders' share.
    """
    layers = tracer.layers()
    rest = sum(v[1] for name, v in layers.items() if name.startswith(remainders)) - own_s
    share = rest / wall_s
    lines = [
        f"named remainder ({', '.join(p + '*' for p in remainders)}): {rest:.3f} s "
        f"= {share:.1%} of the traced wall {wall_s:.3f} s"
        + (f"  FLAG: above {REMAINDER_LIMIT:.0%}" if share > REMAINDER_LIMIT else "")
    ]
    if untraced_s is not None:
        cost = wrapper_cost()
        wrappers = sum(
            calls * cost[tracer.kept[name]]
            for name, (calls, _s) in layers.items()
            if name in tracer.kept
        )
        predicted = (wall_s - wrappers) * scale
        gap = predicted / untraced_s - 1.0
        lines.append(
            f"layers vs untraced: traced wall {wall_s:.3f} s - wrapper cost {wrappers:.3f} s "
            f"({cost[False] * 1e6:.2f}/{cost[True] * 1e6:.2f} us per call without/with "
            f"span) = {predicted:.3f} s vs untraced {untraced_s:.3f} s ({gap:+.1%})"
            + (f"  FLAG: beyond {PREDICTION_LIMIT:.0%}" if abs(gap) > PREDICTION_LIMIT else "")
        )
    return lines, share
