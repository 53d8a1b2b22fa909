#!/usr/bin/env python3
"""One copy of the program in its own process, driven by run.py.

    python3 bench/worker.py --package-root src --workload resolve --seed 1 [--traced]

Imports `marked_bases` from --package-root (the program under test in
`src`, or the frozen reference copy in `bench/frozen`) and answers one JSON
command per line of standard input with one JSON line on standard output:

    {"cmd": "setup"}                    -> {"seconds", "ops"}
    {"cmd": "run", "op": k}             -> {"seconds", "problems"}
    {"cmd": "done"}                     -> {"peak_rss_mb"[, "metrics"]}

Times are CPU times of this process.  Only `op.run()` is timed;
`gc.collect()` before it and the output checks after it are the
benchmark's own work.  With --traced, the per-layer wrappers of
bench/tracing.py are installed around each `op.run()` and removed after it.
The process exits when its standard input closes.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import shutil
import sys
from pathlib import Path
from time import process_time

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

import tracing  # noqa: E402


class Program:
    """The workload's ops on one copy of `marked_bases`.

    `mutate(op, result)` lets the benchmark's tests corrupt an output before
    it is checked.
    """

    def __init__(self, package_root: Path, workload: str, seed: int, quick: bool,
                 traced: bool = False, mutate=None):
        self.root = Path(package_root).resolve()
        self.workload, self.seed, self.quick = workload, seed, quick
        self.tracer = tracing.Tracer() if traced else None
        self.mutate = mutate
        self.workdir = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
        self.ops: list = []
        self.digests: dict[int, str] = {}
        for path in (str(BENCH), str(self.root)):
            if path in sys.path:
                sys.path.remove(path)
            sys.path.insert(0, path)

    def setup(self) -> float:
        """Import the program and write the workload's inputs; returns the
        seconds it took."""
        start = process_time()
        for name in list(sys.modules):
            if name == "workloads" or name == "marked_bases" or name.startswith("marked_bases."):
                del sys.modules[name]
        workloads = importlib.import_module("workloads")
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.ops = workloads.WORKLOADS[self.workload](self.seed, self.workdir, self.quick)
        self.runs = [0] * len(self.ops)
        seconds = process_time() - start
        package = Path(sys.modules["marked_bases"].__file__).resolve().parent
        if package.parent != self.root:
            raise ImportError(f"marked_bases came from {package}, not from {self.root}")
        return seconds

    def run(self, k: int) -> tuple[float, list[str]]:
        """Run op k once; returns its CPU time and the problems its output
        shows."""
        op = self.ops[k]
        gc.collect()
        tracing.assert_untraced()
        if self.tracer is not None:
            self.tracer.start_op(f"{self.runs[k]}:{k}")
            self.tracer.install()
        self.runs[k] += 1
        error = None
        start = process_time()
        try:
            result = op.run()
        except Exception as exc:  # a crashing op is a failed op, not a crashed run
            error = exc
        elapsed = process_time() - start
        if self.tracer is not None:
            self.tracer.remove()
        problems = [f"raised {error!r}"] if error is not None else self._check(op, k, result)
        return elapsed, [f"{op.name}: {text}" for text in problems]

    def _check(self, op, k, result) -> list[str]:
        if self.mutate is not None:
            result = self.mutate(op, result)
        try:
            found = list(op.check(result))
            digest = hashlib.sha256(op.digest(result).encode()).hexdigest()
        except Exception as exc:  # a malformed output is a failed op
            return [f"check raised {exc!r}"]
        if self.digests.setdefault(k, digest) != digest:
            found.append("output differs from its first run")
        return found

    def finish(self) -> dict:
        """Peak memory and, when traced, the per-layer metrics per pass; the
        spans are written to .bench_work."""
        answer = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        if self.tracer is not None:
            answer["metrics"] = self.tracer.metrics(max(self.runs))
            spans = ROOT / ".bench_work" / f"spans-{self.workload}-{self.seed}.jsonl"
            with open(spans, "w", encoding="utf-8") as fh:
                for span in self.tracer.spans:
                    fh.write(json.dumps(span) + "\n")
        return answer

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--package-root", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    channel = sys.stdout
    sys.stdout = sys.stderr  # stray prints must not reach run.py
    program = Program(args.package_root, args.workload, args.seed, args.quick, args.traced)
    try:
        for line in sys.stdin:
            cmd = json.loads(line)
            if cmd["cmd"] == "setup":
                answer = {"seconds": program.setup(), "ops": [op.name for op in program.ops]}
            elif cmd["cmd"] == "run":
                seconds, problems = program.run(cmd["op"])
                answer = {"seconds": seconds, "problems": problems}
            elif cmd["cmd"] == "done":
                answer = program.finish()
            else:
                raise ValueError(f"unknown command {cmd!r}")
            channel.write(json.dumps(answer) + "\n")
            channel.flush()
    finally:
        program.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
