#!/usr/bin/env python3
"""Interleaved A/B timing of one benchmark op on two source trees.

    python3 scripts/ab_ops.py PARENT_SRC CHANGE_SRC --workload resolve \\
        --op "resolve C4" --rounds 20 [--seed 1]

PARENT_SRC and CHANGE_SRC are directories that each hold a `marked_bases`
package (a checkout's `src/`).  Both packages are loaded into this one
process under separate names, and `bench/workloads.py` is loaded once for
each, so each side builds its op list, input documents included, with its
own code.  Every round runs the op once on each side; the side that runs
first alternates from round to round.  Each run is timed in process time.
`--op` may be given several times: a round then runs all those ops in turn
on one side, then on the other, and times them together.  `--op all` runs
every op of the workload in each round, a whole pass:

    python3 scripts/ab_ops.py PARENT_SRC CHANGE_SRC --workload family --op all

Each round also builds each side's op list afresh, the side that builds
first alternating too, and times the build in process time.  That is the
benchmark's set-up of the whole workload, whatever `--op` picks (for
`survey` it makes the random cases); the ops timed are still the ones built
before the first round, so each op runs again on its own inputs, as in the
benchmark.

The report gives each side's median time, the median of the per-round ratios
change / parent, one `setup` line with the same figures for the builds, the
number of rounds the change ran its ops faster, and whether every output of
the two sides was byte-identical (compared through the op's own digest).
When several ops are timed, a `per-op medians` line gives, for each side,
the p50 and the tail of the ops' median times, computed by `bench/run.py`'s
`figures` as the benchmark's `op_p50_ms` and `op_tail_ms` are (below 100
ops the tail is the maximum), and the change / parent ratio of the two
p50s, so that an `op_p50_ms` claim can be sized in process first.
The two sides of a round run seconds apart in one process, so a change in
the machine's speed reaches both of them.

Nothing is written under `bench/`: the op documents go to a temporary
directory and no bytecode is written.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import tempfile
from pathlib import Path
from time import process_time

sys.dont_write_bytecode = True

from peak_rss import bench_run  # noqa: E402  (after the bytecode switch)

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "marked_bases"


def load_side(label: str, src: Path):
    """`bench/workloads.py`, loaded against the package in `src`, which is
    loaded under the name `<label>_marked_bases`."""
    name = f"{label}_{PACKAGE}"
    spec = importlib.util.spec_from_file_location(
        name, src / PACKAGE / "__init__.py", submodule_search_locations=[str(src / PACKAGE)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    # The workload module imports `marked_bases`: alias this side's modules
    # under that name while it loads, then drop the aliases.
    aliases = {
        PACKAGE + key[len(name):]: module
        for key, module in list(sys.modules.items())
        if key == name or key.startswith(name + ".")
    }
    sys.modules.update(aliases)
    try:
        spec = importlib.util.spec_from_file_location(
            f"{label}_workloads", ROOT / "bench" / "workloads.py"
        )
        workloads = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = workloads
        spec.loader.exec_module(workloads)
    finally:
        for key in aliases:
            del sys.modules[key]
    return workloads


def find_ops(workloads, workload: str, names: list[str], seed: int, workdir: Path):
    ops = {op.name: op for op in workloads.WORKLOADS[workload](seed, workdir)}
    if names == ["all"]:
        return list(ops.values())
    missing = [name for name in names if name not in ops]
    if missing:
        raise SystemExit(f"no op {missing[0]!r} in workload {workload!r} "
                         f"(ops: {', '.join(ops)})")
    return [ops[name] for name in names]


def timed(ops):
    """Process time of running each op in turn, and their digests."""
    seconds, digests = [], []
    for op in ops:
        start = process_time()
        result = op.run()
        seconds.append(process_time() - start)
        digests.append(op.digest(result))
    return seconds, digests


def ratio_line(times: list[list[float]]) -> str:
    """The median and quartiles of the per-round ratios change / parent."""
    ratios = [c / p for p, c in zip(*times)]
    q = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    return f"ratio median {statistics.median(ratios):.3f} (quartiles {q[0]:.3f}-{q[2]:.3f})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--workload", default="resolve")
    parser.add_argument("--op", action="append",
                        help='an op name, or "all" for every op (default: "resolve C4")')
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    names = args.op or ["resolve C4"]

    with tempfile.TemporaryDirectory() as tmp:
        sides, ops = [], []
        for label, src in (("parent", args.parent_src), ("change", args.change_src)):
            workdir = Path(tmp) / label
            workdir.mkdir()
            workloads = load_side(label, src.resolve())
            sides.append((workloads, workdir))
            ops.append(find_ops(workloads, args.workload, names, args.seed, workdir))
        times: list[list[float]] = [[], []]
        per_op: list[list[list[float]]] = [[[] for _ in ops[0]], [[] for _ in ops[1]]]
        setups: list[list[float]] = [[], []]
        identical = True
        for r in range(args.rounds):
            order = (0, 1) if r % 2 == 0 else (1, 0)
            for side in order:
                workloads, workdir = sides[side]
                start = process_time()
                find_ops(workloads, args.workload, names, args.seed, workdir)
                setups[side].append(process_time() - start)
            digests = [None, None]
            for side in order:
                seconds, digests[side] = timed(ops[side])
                times[side].append(sum(seconds))
                for k, t in enumerate(seconds):
                    per_op[side][k].append(t)
            identical = identical and digests[0] == digests[1]

    wins = sum(c < p for p, c in zip(*times))
    shown = f"all {len(ops[0])}" if names == ["all"] else ", ".join(names)
    print(f"ops {shown}; workload {args.workload}, seed {args.seed}, "
          f"{args.rounds} rounds")
    print(f"parent median {statistics.median(times[0]) * 1e3:.1f} ms")
    print(f"change median {statistics.median(times[1]) * 1e3:.1f} ms")
    print(ratio_line(times))
    if len(ops[0]) > 1:
        figures = bench_run().figures
        p50, tail = zip(*(
            (f["op_p50_ms"], f["op_tail_ms"])
            for f in (figures([statistics.median(t) for t in side]) for side in per_op)
        ))
        print(f"per-op medians: parent p50 {p50[0]:.2f} ms, tail {tail[0]:.2f} ms; "
              f"change p50 {p50[1]:.2f} ms, tail {tail[1]:.2f} ms; "
              f"p50 ratio {p50[1] / p50[0]:.3f}")
    print(f"setup parent median {statistics.median(setups[0]) * 1e3:.1f} ms, "
          f"change median {statistics.median(setups[1]) * 1e3:.1f} ms, {ratio_line(setups)}")
    print(f"change faster in {wins} of {args.rounds} rounds")
    print(f"outputs byte-identical: {'yes' if identical else 'no'}")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
