"""Guards on the package source itself."""

import ast
import importlib
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
