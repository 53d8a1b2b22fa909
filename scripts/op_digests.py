#!/usr/bin/env python3
"""Print a digest of the output of every benchmark op, one line per op.

    python3 scripts/op_digests.py --seeds 1 2

For each workload in `bench/workloads.WORKLOADS` and each seed, the op list
is built in a temporary directory and every op is run once, on the program
in this tree's `src/`.  Each op gives one line::

    <workload> <seed> <op name> <sha256 of op.digest(result)>

Two trees print the same lines exactly when every op gives the same output,
so checking that a change keeps the output byte-identical is one `diff` of
the lines printed at the parent and at the change.  Problems reported by an
op's own check go to standard error, and the exit status is then 1.
Nothing under `bench/` is written.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    args = parser.parse_args(argv)
    failed = False
    for workload, build in WORKLOADS.items():
        for seed in args.seeds:
            with tempfile.TemporaryDirectory() as workdir:
                for op in build(seed, Path(workdir)):
                    result = op.run()
                    for problem in op.check(result):
                        print(f"{workload} {seed} {op.name}: {problem}", file=sys.stderr)
                        failed = True
                    digest = hashlib.sha256(op.digest(result).encode()).hexdigest()
                    print(f"{workload} {seed} {op.name} {digest}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
