"""``repro serve`` with the benchmark's span recorder around its entry points.

    PYTHONPATH=src python3 perfbench/traced_daemon.py serve <trace.csv> ...

Takes the same arguments as ``python -m repro``.  Before handing over to
the program's CLI it wraps the public methods of the serving path (index
construction and load, write acknowledgement, writer apply, the lazy
R-tree's updates and range searches, replica fork and install, replica and
fresh reads, WAL append and fsync, checkpoints, page store, node scans)
and times collector pauses.  The daemon's ``stats`` op then also returns
each layer's calls, self time and inclusive time under ``"perfbench"``,
and writes the kept spans as JSONL to the path in ``PERFBENCH_SPANS`` --
the serve-paced workload SIGKILLs the daemon, so the last ``stats`` call
is where its run ends.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import use_checkout_source  # noqa: E402
from tracing import Tracer, wrap_storage_and_scans  # noqa: E402


def install(tracer: Tracer) -> None:
    from repro.durability.manager import DurabilityManager
    from repro.durability.wal import WriteAheadLog
    from repro.rtree.lazy import LazyRTree
    from repro.serve import bench
    from repro.serve.replica import ReplicaSet
    from repro.serve.server import ServeServer
    from repro.serve.service import EngineService

    tracer.patch(bench, "build_primary", "setup.build")
    tracer.patch(EngineService, "load", "setup.load")
    tracer.patch(LazyRTree, "update", "index.update.lazy", keep=False)
    tracer.patch(LazyRTree, "range_search", "index.query.lazy", keep=False)
    tracer.patch(EngineService, "ack_update", "serve.ack", op=True)
    tracer.patch(EngineService, "apply", "serve.apply", op=True)
    tracer.patch(EngineService, "query_range", "serve.fresh_query", op=True)
    tracer.patch(EngineService, "fork_document", "serve.replica.fork")
    tracer.patch(ReplicaSet, "install", "serve.replica.install")
    tracer.patch(ReplicaSet, "query_range", "serve.replica.query", op=True)
    tracer.patch(DurabilityManager, "log_update", "wal.append")
    tracer.patch(DurabilityManager, "log_insert", "wal.append")
    tracer.patch(DurabilityManager, "checkpoint", "durability.checkpoint")
    tracer.patch(WriteAheadLog, "sync", "wal.fsync")
    wrap_storage_and_scans(tracer)
    tracer.watch_gc()
    stats_dict = ServeServer.stats_dict

    def traced_stats(self):
        out = stats_dict(self)
        path = os.environ.get("PERFBENCH_SPANS")
        spans = tracer.write_jsonl(path) if path else 0
        out["perfbench"] = {
            "layers": {name: list(v) for name, v in tracer.totals().items()},
            "spans": spans,
        }
        return out

    ServeServer.stats_dict = traced_stats


def main() -> int:
    use_checkout_source()
    install(Tracer())
    from repro.cli import main as repro_main

    return repro_main(sys.argv[1:])


if __name__ == "__main__":
    raise SystemExit(main())
