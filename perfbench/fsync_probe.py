#!/usr/bin/env python3
"""WAL placement probe: the latency of a small append plus ``fsync``.

    python3 perfbench/fsync_probe.py [DIR ...]

For each directory (default: ``.perfbench-out`` in the checkout, where the
serve-paced workload keeps its WAL), appends ``SIZE`` bytes to a scratch
file and fsyncs it, ``APPENDS`` times, and prints the p50/p99/max latency
in microseconds.  Compare the working disk with a memory-backed directory
to see what the WAL's group commits cost on each.
"""

from __future__ import annotations

import argparse
import math
import os
import statistics
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
APPENDS = 2000
#: Bytes per append: about one WAL update frame.
SIZE = 64


def probe(directory: Path) -> list:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"fsync-probe-{os.getpid()}.bin"
    payload = b"x" * SIZE
    samples = []
    try:
        with open(path, "wb") as fh:
            for _ in range(APPENDS):
                t0 = perf_counter()
                fh.write(payload)
                fh.flush()
                os.fsync(fh.fileno())
                samples.append(perf_counter() - t0)
    finally:
        path.unlink(missing_ok=True)
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dirs", nargs="*", type=Path, default=[ROOT / ".perfbench-out"])
    args = parser.parse_args(argv)
    for directory in args.dirs:
        samples = sorted(probe(directory))
        p99 = samples[math.ceil(0.99 * len(samples)) - 1]
        print(
            f"{directory}: {SIZE}-byte append + fsync x{len(samples)}: "
            f"p50 {statistics.median(samples) * 1e6:.1f} us, "
            f"p99 {p99 * 1e6:.1f} us, max {samples[-1] * 1e6:.1f} us"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
