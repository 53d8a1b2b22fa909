"""Guards on the package source itself."""

import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "marked_bases"


def test_no_assert_statements():
    """The kernel's self-checks raise `InternalError` so that they also run
    under ``python -O``, which drops every ``assert`` statement."""
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) > 5
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_one_reduction_loop():
    """`marked.reduce_full` reduces over Q and over K[C] in one loop, whose
    lex-descent certificate is the only place `InternalNonTermination` is
    raised: a second copy of the kernel fails here."""
    tree = ast.parse((PACKAGE / "marked.py").read_text())
    raises = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and node.exc is not None
        and any(
            isinstance(name, ast.Name) and name.id == "InternalNonTermination"
            for name in ast.walk(node.exc)
        )
    ]
    assert len(raises) == 1


def test_one_cone_query():
    """`monom.ConeIndex` answers one query, `find`, which the structural
    test and every lookup share, and `MarkedSet` decides its coefficient
    domain once, in its `nparams`: a second cone query or a per-call domain
    probe fails here."""
    def methods(path, name):
        tree = ast.parse((PACKAGE / path).read_text())
        [cls] = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == name]
        return {n.name for n in cls.body if isinstance(n, ast.FunctionDef)}

    assert methods("monom.py", "ConeIndex") == {"__init__", "add", "find"}
    assert not methods("marked.py", "MarkedSet") & {"coefficient_sample", "one_like"}


def test_one_polynomial_reader():
    """`textio._parse_terms` reads every polynomial in one pass of one
    compiled token regex, whose last alternative takes any unexpected
    character, and no parser class sits beside it: a second reader fails
    here."""
    tree = ast.parse((PACKAGE / "textio.py").read_text())
    parsers = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and "Parser" in node.name
    ]
    patterns = [
        node.args[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "compile"
    ]
    token_patterns = [pattern for pattern in patterns if "|" in pattern]
    assert parsers == []
    assert len(token_patterns) == 1 and token_patterns[0].endswith(r"(?P<bad>\S)")


# Functions kept for the library although nothing in the package, the
# benchmark or the scripts calls them: the first four state the paper's
# results, and `contains` is membership by normal form.
LIBRARY_ONLY = {
    "triangular_representation",
    "tails_respect_min_variable",
    "x0_heads_are_divisible",
    "saturate",
    "contains",
}


def _referenced_names(paths) -> set[str]:
    """Every name the files read: identifiers, attributes, imported names,
    and the parts of dotted strings such as the attribute paths that
    `bench/tracing.py` wraps."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if re.fullmatch(r"[\w.]+", node.value):
                    names.update(node.value.split("."))
    return names


def test_every_function_has_a_caller_outside_the_tests():
    """Each top-level function of the package is used by the package
    itself (not counting the re-exports of `__init__.py`), by `bench/` or
    by `scripts/`.  A helper that only tests call belongs in `tests/`; the
    frozen copy under `bench/` does not count as a caller."""
    callers = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    callers += [*(ROOT / "bench").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    used = _referenced_names(callers) | LIBRARY_ONLY
    unused = [
        f"{path.name}:{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text(), str(path)).body
        if isinstance(node, ast.FunctionDef) and node.name not in used
    ]
    assert unused == []


def test_names_the_benchmark_needs(monkeypatch):
    """`bench/workloads.py` imports names of the package, and
    `bench/tracing.py` wraps every function listed in its `SPANS` and
    `COUNTS`; a deleted or renamed one fails here, not only in the
    benchmark.  Nothing is written under `bench/`."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    importlib.import_module("workloads")
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.remove()
    tracing.assert_untraced()


def test_ab_ops_loads_two_trees_side_by_side():
    """`scripts/ab_ops.py` on one tree against itself: both sides run, their
    outputs agree, the set-up of each side is timed, the p50 and tail of the
    per-op medians are given as the benchmark computes them, and nothing is
    written under `bench/`."""
    before = sorted(p for p in (ROOT / "bench").rglob("*"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab_ops.py"), str(ROOT / "src"), str(ROOT / "src"),
         "--workload", "resolve", "--op", "check TWISTED", "--op", "resolve TWISTED",
         "--rounds", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "ops check TWISTED, resolve TWISTED; workload resolve, seed 1, 2 rounds"
    per_op = re.fullmatch(
        r"per-op medians: parent p50 (\d+\.\d\d) ms, tail (\d+\.\d\d) ms; "
        r"change p50 (\d+\.\d\d) ms, tail (\d+\.\d\d) ms; p50 ratio \d+\.\d{3}",
        lines[-4],
    )
    p50_parent, tail_parent, p50_change, tail_change = map(float, per_op.groups())
    assert p50_parent <= tail_parent and p50_change <= tail_change
    assert re.fullmatch(
        r"setup parent median \d+\.\d ms, change median \d+\.\d ms, "
        r"ratio median \d+\.\d{3} \(quartiles \d+\.\d{3}-\d+\.\d{3}\)",
        lines[-3],
    )
    assert lines[-2].startswith("change faster in ") and lines[-2].endswith(" of 2 rounds")
    assert lines[-1] == "outputs byte-identical: yes"
    assert sorted(p for p in (ROOT / "bench").rglob("*")) == before
