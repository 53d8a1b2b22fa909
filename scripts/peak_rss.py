#!/usr/bin/env python3
"""Peak memory of one pass of a benchmark workload, in a fresh process.

    python3 scripts/peak_rss.py SRC --workload resolve [--seed 1]

SRC is a directory that holds a `marked_bases` package (a checkout's
`src/`).  One `bench/worker.py` process, started as `bench/run.py` starts
it, imports the package from SRC, sets the workload up as many times as the
benchmark does, runs every op of the op list once and reports its peak
resident set size (`ru_maxrss`), the figure the benchmark's `peak_rss_mb`
reads.  The script prints that figure in MB, and exits 1 when an op's
output fails its check.  Each call is a new process, so two trees are
compared by calling this on each in turn, several times.

The worker writes the op inputs to its own directory under `.bench_work/`
at the root of this checkout and removes it; no bytecode is written, and
nothing is written under `bench/`.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import sys
from pathlib import Path

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent


def bench_run():
    """`bench/run.py` as a module: this script reads its `Worker` and
    `SETUP_REPEATS`, and `ab_ops.py` its `figures`."""
    sys.path.insert(0, str(ROOT / "bench"))  # run.py imports bench/tracing.py
    try:
        spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(str(ROOT / "bench"))
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    args.quick = False
    run = bench_run()
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"  # the worker inherits it
    worker = run.Worker(args.src.resolve(), args)
    try:
        for _ in range(run.SETUP_REPEATS):
            ops = worker.call("setup")["ops"]
        problems = [text for k in range(len(ops)) for text in worker.call("run", op=k)["problems"]]
        peak = worker.call("done")["peak_rss_mb"]
    finally:
        worker.close()
    for text in problems:
        print(text, file=sys.stderr)
    print(f"{peak:.2f}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
