#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 bench/selftest.py

1. Quick mode, every workload, both --trace values: the last line names
   every metric of BENCHMARK.json with its unit, and nothing fails.
2. A copy of the tree whose program prints a wrong verdict raises
   `fail_frac`.  Corrupted outputs fail their checks on every workload, and
   so does a survey case whose marked basis is swapped for a marked set
   that is no basis but carries a stored "is a basis" verdict.
3. Without the program (only BENCHMARK.json and bench/ in a directory) the
   benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402

TIMEOUT_S = 180


def command(root: Path, workload: str, trace: int) -> list[str]:
    return [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
            "--seed", "0", "--seconds", "1", "--trace", str(trace), "--quick"]


def copy_tree(name: str, with_program: bool) -> Path:
    """BENCHMARK.json and bench/, and src/ if asked, in .bench_work/<name>."""
    root = ROOT / ".bench_work" / name
    shutil.rmtree(root, ignore_errors=True)
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(BENCH, root / "bench", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", root)
    if with_program:
        shutil.copytree(ROOT / "src", root / "src", ignore=skip)
    return root


def test_quick_mode_prints_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = subprocess.run(command(ROOT, workload, trace), capture_output=True,
                                  text=True, timeout=TIMEOUT_S, check=True)
            result = json.loads(done.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, (workload, trace)
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected, (workload, trace, set(got) ^ set(expected))


def test_wrong_program_raises_fail_frac():
    root = copy_tree("wrong", with_program=True)
    try:
        cli = root / "src" / "marked_bases" / "cli.py"
        text = cli.read_text()
        verdict = 'return 0, "marked basis: yes"'
        assert text.count(verdict) == 1
        cli.write_text(text.replace(verdict, 'return 0, "marked basis: no"'))
        done = subprocess.run(command(root, "resolve", 0), cwd=root, capture_output=True,
                              text=True, timeout=TIMEOUT_S, check=True)
        lines = done.stdout.splitlines()
        result, report = json.loads(lines[-1]), json.loads(lines[-2].removeprefix("report "))
        assert result["failed"] > 0 and not result["correct"]
        assert report["fail_frac"] == result["failed"] / result["attempted"] > 0
    finally:
        shutil.rmtree(root, ignore_errors=True)


def problems_with(workload: str, mutate) -> list[str]:
    """Problems of one quick pass in this process, outputs passed through
    `mutate` before they are checked."""
    program = worker.Program(ROOT / "src", workload, 0, True, mutate=mutate)
    try:
        program.setup()
        return [text for k in range(len(program.ops)) for text in program.run(k)[1]]
    finally:
        program.close()


def _corrupt(op, result):
    if isinstance(result, tuple):  # (exit code, stdout) of a CLI op
        code, stdout = result
        return code, stdout.replace("yes", "no", 1) + " "
    return {**result, "bounds": None}


def test_corrupted_outputs_fail_their_checks():
    for workload in ("resolve", "family", "survey"):
        assert problems_with(workload, _corrupt), workload


def _non_basis(op, result):
    """Swap the survey's marked basis for a random marked set that is no
    basis, with a wrong verdict stored on it."""
    from marked_bases import MarkedSet, is_marked_basis
    from marked_bases.randgen import random_marked_set

    basis = result["marked"].basis
    for k in range(50):
        mset = random_marked_set(random.Random(k), basis)
        if not is_marked_basis(MarkedSet(basis, mset.ordered())).is_basis:
            mset._certified = True
            return {**result, "marked": mset}
    return result


def test_non_basis_fails_the_survey_check():
    assert any("does not certify" in p for p in problems_with("survey", _non_basis))


def test_without_the_program_exits_nonzero():
    bare = copy_tree("bare", with_program=False)
    try:
        done = subprocess.run(command(bare, "resolve", 0), cwd=bare, capture_output=True,
                              text=True, timeout=TIMEOUT_S)
        assert done.returncode != 0
        assert '"metrics"' not in done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    tests = [value for name, value in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
