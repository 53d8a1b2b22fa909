#!/usr/bin/env python3
"""Peak memory of one pass of a benchmark workload, in a fresh process.

    python3 scripts/peak_rss.py SRC --workload resolve [--seed 1]
    python3 scripts/peak_rss.py PARENT_SRC CHANGE_SRC --workload resolve \\
        --seeds 21 22 23

SRC is a directory that holds a `marked_bases` package (a checkout's
`src/`).  One `bench/worker.py` process, started as `bench/run.py` starts
it, imports the package from SRC, sets the workload up as many times as the
benchmark does, runs every op of the op list once and reports its peak
resident set size (`ru_maxrss`), the figure the benchmark's `peak_rss_mb`
reads.  The script prints that figure in MB, and exits 1 when an op's
output fails its check.

Given two trees, the script runs one pair of passes per seed (default: the
`--seed`), each pass in a new process; the tree that runs first alternates
from pair to pair.  It prints one line per pair with both figures and the
change - parent delta, then the median delta and the number of pairs in
which the change read lower.

The worker writes the op inputs to its own directory under `.bench_work/`
at the root of this checkout and removes it; no bytecode is written, and
nothing is written under `bench/`.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import statistics
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


def peak_rss(run, src: Path, workload: str, seed: int) -> tuple[float, list[str]]:
    """The peak RSS in MB of one pass of `workload` over the package in
    `src`, and the problems its ops' checks report."""
    args = argparse.Namespace(workload=workload, seed=seed, quick=False)
    worker = run.Worker(src.resolve(), args)
    try:
        for _ in range(run.SETUP_REPEATS):
            ops = worker.call("setup")["ops"]
        problems = [text for k in range(len(ops)) for text in worker.call("run", op=k)["problems"]]
        return worker.call("done")["peak_rss_mb"], problems
    finally:
        worker.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", type=Path, nargs="+", help="SRC, or PARENT_SRC CHANGE_SRC")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seeds", type=int, nargs="+", help="one pair per seed (two trees)")
    args = parser.parse_args(argv)
    if len(args.src) > 2:
        parser.error("give one tree, or a parent and a change")
    if args.seeds and len(args.src) == 1:
        parser.error("--seeds pairs two trees; give one tree --seed")
    run = bench_run()
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"  # the worker inherits it
    if len(args.src) == 1:
        peak, problems = peak_rss(run, args.src[0], args.workload, args.seed)
        for text in problems:
            print(text, file=sys.stderr)
        print(f"{peak:.2f}")
        return 1 if problems else 0
    trees = dict(zip(("parent", "change"), args.src))
    deltas = []
    failed = False
    for k, seed in enumerate(args.seeds or [args.seed]):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        peaks = {}
        for side in order:
            peaks[side], problems = peak_rss(run, trees[side], args.workload, seed)
            for text in problems:
                print(f"{side}: {text}", file=sys.stderr)
            failed = failed or bool(problems)
        deltas.append(peaks["change"] - peaks["parent"])
        print(f"seed {seed}: parent {peaks['parent']:.2f} MB, change {peaks['change']:.2f} MB, "
              f"delta {deltas[-1]:+.2f} MB ({order[0]} first)")
    lower = sum(d < 0 for d in deltas)
    print(f"median delta {statistics.median(deltas):+.2f} MB; "
          f"change lower in {lower} of {len(deltas)} pairs")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
