#!/usr/bin/env python3
"""Benchmark of the `marked_bases` kernel and its `mbases` command line.

    python3 bench/run.py --workload resolve --seed 1 --seconds 20 --trace 0

Workloads are `resolve`, `family` and `survey` (see bench/README.md).  Two
worker processes (bench/worker.py) hold the workload: one imports the
program from ./src, the other a frozen copy of the program in bench/frozen.
Both are pinned to one CPU and get each command at once: SETUP_REPEATS
set-ups (import, then build the inputs from the seed), then a fixed number
of passes over the op list, one op at a time.  Each reports its CPU time.

The speed of a shared machine drifts by up to 2x within a minute.  Two
copies that share one CPU, time-sliced, share its slow and fast spells, so
the program's figure over the frozen copy's figure is steady where either
figure alone is not.  Each end-to-end time is that ratio times the frozen
copy's own figure (NOMINAL).  At the commit that defined the benchmark the
two copies are the same code and every time reads about its NOMINAL value;
a program twice as fast reads half of it.

Every op's output is checked and compared, by digest, with its output in
the first pass.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1, where the program runs
traced and an untraced copy of it is the reference.  The line before it
holds the full report.  --quick runs one pass over a tiny op list.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FROZEN = BENCH / "frozen"

# Seconds of --seconds budgeted for one pass of both copies at once.  They
# are fixed, so every commit makes the same number of passes and a faster
# program does the same work in less time.
SECONDS_PER_PASS = {"resolve": 18.0, "family": 28.0, "survey": 15.0}
SETUP_REPEATS = 3
TAIL_BEYOND = 10

# The frozen copy's figures, each the median over seeds 1-10 of runs of the
# frozen copy alone on a 2-CPU shared x86-64 virtual machine: one pass after
# three set-ups, CPU time.
NOMINAL = {
    "resolve": {"setup_s": 0.874, "wall_s": 9.83, "op_p50_ms": 66.7, "op_tail_ms": 6950.0},
    "family": {"setup_s": 2.05, "wall_s": 15.0, "op_p50_ms": 864.0, "op_tail_ms": 2300.0},
    "survey": {"setup_s": 1.14, "wall_s": 3.17, "op_p50_ms": 5.26, "op_tail_ms": 47.2},
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class Worker:
    """A bench/worker.py process holding one copy of the program."""

    def __init__(self, package_root: Path, args, traced: bool = False):
        command = [sys.executable, str(BENCH / "worker.py"), "--package-root",
                   str(package_root), "--workload", args.workload, "--seed", str(args.seed)]
        if args.quick:
            command.append("--quick")
        if traced:
            command.append("--traced")
        self.proc = subprocess.Popen(command, cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        os.sched_setaffinity(self.proc.pid, {max(os.sched_getaffinity(0))})

    def send(self, cmd: str, **fields):
        self.proc.stdin.write(json.dumps({"cmd": cmd, **fields}) + "\n")
        self.proc.stdin.flush()

    def receive(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def call(self, cmd: str, **fields) -> dict:
        self.send(cmd, **fields)
        return self.receive()

    def close(self):
        """Close the worker's input and wait for it to end; kill it if it
        does not."""
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def both(pair, cmd: str, **fields) -> list[dict]:
    """Send one command to both workers, then wait for both answers.  The
    two run at once on one CPU, so they share its slow and fast spells."""
    for side in pair:
        side.send(cmd, **fields)
    return [side.receive() for side in pair]


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it,
    and that percentile.  Below 10 * TAIL_BEYOND samples such a percentile
    is no tail, and the slowest sample is taken instead."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 10 * TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SECONDS_PER_PASS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true", help="one pass over a tiny op list")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def figures(latencies: list[float]) -> dict[str, float]:
    """Time of a pass, median and tail of one latency per op."""
    tail_s, _ = tail(latencies)
    return {"wall_s": sum(latencies), "op_p50_ms": 1000 * statistics.median(latencies),
            "op_tail_ms": 1000 * tail_s}


def benchmark(args) -> tuple[dict, dict]:
    """Run one workload; returns (report, final result line)."""
    if not (SRC / "marked_bases" / "__init__.py").is_file():
        raise FileNotFoundError(f"no marked_bases package under {SRC}")
    load_start = os.getloadavg()
    passes = 1 if args.quick else max(1, round(args.seconds / SECONDS_PER_PASS[args.workload]))
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "quick": args.quick, "passes": passes}
    measure_start = perf_counter()
    with contextlib.ExitStack() as stack:
        program = Worker(SRC, args, traced=bool(args.trace))
        stack.callback(program.close)
        # With --trace 1 the untraced program is the reference, and the
        # ratio gives the tracing overhead.
        other = Worker(SRC if args.trace else FROZEN, args)
        stack.callback(other.close)
        pair = (program, other)
        setups = {side: [] for side in pair}
        for _ in range(SETUP_REPEATS):
            for side, answer in zip(pair, both(pair, "setup")):
                setups[side].append(answer["seconds"])
                report.setdefault("ops", answer["ops"])
                if answer["ops"] != report["ops"]:
                    raise RuntimeError("the two copies have different op lists")
        times = {side: [[] for _ in report["ops"]] for side in pair}
        attempted, failed, problems = 0, 0, []
        for _ in range(passes):
            for k in range(len(report["ops"])):
                # A pair fails when either output fails its checks: without
                # the reference's time there is nothing to compare with.
                found = []
                for side, name, answer in zip(pair, ("", "reference: "), both(pair, "run", op=k)):
                    times[side][k].append(answer["seconds"])
                    found += [name + text for text in answer["problems"]]
                attempted += 1
                failed += bool(found)
                problems.extend(found)
        mine, ref = ({"setup_s": statistics.median(setups[side]),
                      **figures([statistics.median(t) for t in times[side]])}
                     for side in pair)
        ratios = {name: mine[name] / ref[name] for name in mine}
        ratios["setup_s"] = statistics.median(
            a / b for a, b in zip(setups[program], setups[other]))
        done = program.call("done")
    if args.trace:
        units = tracing.metric_units()
        values = {**done["metrics"], "trace.overhead_frac": ratios["wall_s"] - 1}
    else:
        units = END_TO_END_UNITS
        values = {name: r * NOMINAL[args.workload][name] for name, r in ratios.items()}
        values["peak_rss_mb"] = done["peak_rss_mb"]
    report.update({
        "ratio_to_reference": ratios,
        "program": mine,
        "reference": ref,
        "setup_samples": {"program": setups[program], "reference": setups[other]},
        "op_ms": {name: [1000 * s for s in t] for name, t in zip(report["ops"], times[program])},
        "tail_percentile": tail([statistics.median(t) for t in times[program]])[1],
    })
    report.update({
        "measure_s": perf_counter() - measure_start,
        "fail_frac": failed / attempted,
        "problems": problems[:20],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
    })
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return report, result


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        report, result = benchmark(args)
    except FileNotFoundError as exc:
        print(f"bench: cannot run: {exc}", file=sys.stderr)
        return 2
    print("report " + json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
