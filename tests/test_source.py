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
    under ``python -O``, which drops every ``assert`` statement; the checks
    of the scripts exit non-zero for the same reason."""
    paths = sorted([*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py")])
    assert len(paths) > 10
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_every_self_check_is_named_by_a_test():
    """Every self-check of the package, a `raise InternalError(...)` or
    `raise InternalNonTermination(...)`, is named by some test file: the
    text of its message before the first placeholder or parenthesis occurs
    in a file under `tests/` other than this one.  A new check that no test
    names fails here (ROADMAP item 15)."""
    names = {"InternalError", "InternalNonTermination"}
    messages = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and isinstance(node.exc.func, ast.Name) and node.exc.func.id in names):
                [message] = node.exc.args
                parts = message.values if isinstance(message, ast.JoinedStr) else [message]
                text = ""
                for part in parts:
                    if not isinstance(part, ast.Constant):
                        break
                    text += part.value
                messages[f"{path.name}:{node.lineno}"] = text.split("(")[0].strip()
    assert len(messages) >= 18 and all(messages.values())
    tests = "".join(
        path.read_text() for path in sorted(ROOT.glob("tests/*.py")) if path.name != "test_source.py"
    )
    assert {site: text for site, text in messages.items() if text not in tests} == {}


def test_one_reduction_loop():
    """`marked._reduce`, the kernel of `reduce_full` and `prolongation_rep`,
    reduces over Q and over K[C] in one loop, whose lex-descent certificate
    is the only place `InternalNonTermination` is raised: a second copy of
    the kernel fails here."""
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


def test_one_chain_composer():
    """`syzygy._evaluate_column` is the one composer of a column with the map
    below it: the syzygy step's chain check and `verify_complex` call it,
    minimization checks through `verify_complex`, and the elimination step
    `_add_scaled_column` serves minimization only.  A second composer, such
    as a tuple-keyed one built on the elimination step, fails here."""
    tree = ast.parse((PACKAGE / "syzygy.py").read_text())
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}

    def callers(name):
        return {
            caller
            for caller, node in functions.items()
            for call in ast.walk(node)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            and call.func.id == name
        }

    assert callers("_evaluate_column") == {"syzygy_marked_basis", "verify_complex"}
    assert callers("verify_complex") == {"minimize_resolution"}
    assert callers("_add_scaled_column") == {"minimize_resolution"}
    assert [name for name in functions if "compose" in name or "vanish" in name] == []


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


# Liveness: `src/` holds the kernel and the CLI, and nothing that only the
# tests use; checks on the kernel's output live in `tests/oracles.py`.
def _bound_names(function) -> set[str]:
    """Every name a function (or lambda) binds anywhere in its body:
    parameters, assignment and loop targets, imports and nested defs."""
    bound = {arg.arg for arg in ast.walk(function.args) if isinstance(arg, ast.arg)}
    for node in ast.walk(function):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((alias.asname or alias.name).partition(".")[0] for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node is not function:
            bound.add(node.name)
    return bound


def _uses(paths, modules, *, dotted: bool) -> tuple[set[str], set[str], set[str]]:
    """(names, attributes, constructed) that the files use.

    A name is used where it is loaded (called or taken as a value) and no
    enclosing function binds it, or where it is read as an attribute of an
    imported module (`mod.f`).  An attribute is used where it is read.  A
    function's uses of its own name do not count.  With `dotted`, every
    part of a dotted string constant counts as both, as for the attribute
    paths that `bench/tracing.py` wraps.  A used name is constructed where
    it is called, or passed as an argument of any call but `isinstance` or
    `issubclass` (`partial(Cls, n)`); reading an attribute of a class
    (`Cls.const`) or testing an instance's type constructs nothing."""
    names, attributes, constructed = set(), set(), set()

    def visit(node, imported, scopes):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            scopes = [*scopes, (getattr(node, "name", None), _bound_names(node))]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if not any(node.id == own or node.id in bound for own, bound in scopes):
                names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if not any(node.attr == own for own, _ in scopes):
                attributes.add(node.attr)
                if isinstance(node.value, ast.Name) and node.value.id in imported:
                    names.add(node.attr)
        elif isinstance(node, ast.Call):
            values = [node.func]
            if not (isinstance(node.func, ast.Name) and node.func.id in ("isinstance", "issubclass")):
                values += [*node.args, *(keyword.value for keyword in node.keywords)]
            for value in values:
                if isinstance(value, ast.Name):
                    if not any(value.id == own or value.id in bound for own, bound in scopes):
                        constructed.add(value.id)
                elif isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name) \
                        and value.value.id in imported:
                    constructed.add(value.attr)
        elif dotted and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"[\w.]+", node.value):
                names.update(node.value.split("."))
                attributes.update(node.value.split("."))
        for child in ast.iter_child_nodes(node):
            visit(child, imported, scopes)

    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        imported = {
            (alias.asname or alias.name).partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
            if isinstance(node, ast.Import) or alias.name in modules
        }
        visit(tree, imported, [])
    return names, attributes, constructed


def test_every_function_has_a_caller_outside_the_tests():
    """Each top-level function of the package is called, or taken as a
    value under a name that no enclosing function binds, each method other
    than a dunder is read as an attribute, and each class that defines
    `__init__` is called or passed as an argument, by the package itself,
    by `bench/` or by `scripts/`.  The re-exports of `__init__.py` do not
    count, dotted strings count only in `bench/` and `scripts/`, and the
    frozen copy under `bench/` is no caller.  A helper that only tests use
    belongs in `tests/`.

    Limits, each checked by hand instead:
    - a method is matched by its name alone, so one whose name is also
      read as another attribute passes unseen: `ParamPoly.variable` could
      hide behind `NotQuasiStable.variable`, and `PommaretBasis.component`
      behind `MonomialModule.component`; both were moved or deleted;
    - dunder methods other than `__init__` are not checked, so an
      operator or `__len__` that only the tests use passes unseen, as
      `ModuleElement.__add__` and `MarkedSet.__len__` did before they
      were deleted."""
    sources = sorted(PACKAGE.glob("*.py"))
    modules = {path.stem for path in sources}
    names, attributes, constructed = _uses(
        [path for path in sources if path.name != "__init__.py"], modules, dotted=False
    )
    tools = [*(ROOT / "bench").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    more_names, more_attributes, more_constructed = _uses(tools, modules, dotted=True)
    names |= more_names
    attributes |= more_attributes
    constructed |= more_constructed
    unused = []
    for path in sources:
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.FunctionDef) and node.name not in names:
                unused.append(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                unused += [
                    f"{path.stem}.{node.name}.{method.name}"
                    for method in node.body
                    if isinstance(method, ast.FunctionDef)
                    and (node.name not in constructed if method.name == "__init__"
                         else not method.name.startswith("__") and method.name not in attributes)
                ]
    assert unused == []


def test_src_line_budget():
    """The package stays at or below 3,705 lines (ROADMAP item 3): a change
    that adds lines gives as many back in the same change."""
    lines = sum(len(path.read_text().splitlines()) for path in PACKAGE.glob("*.py"))
    assert lines <= 3705


def test_names_the_benchmark_needs(monkeypatch, tmp_path):
    """`bench/workloads.py` imports names of the package, and
    `bench/tracing.py` wraps every function listed in its `SPANS` and
    `COUNTS`; a deleted or renamed one fails here, not only in the
    benchmark.  Each workload's quick op list then runs once under the
    installed tracer, as `--trace 1` runs it: every op passes its own
    check, `rref` is traced on `survey` (its hook reads the rows as a
    list), and removing the tracer leaves nothing wrapped.  Nothing is
    written under `bench/`."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    workloads = importlib.import_module("workloads")
    tracing = importlib.import_module("tracing")
    for name, build in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        ops = build(1, workdir, quick=True)
        tracer = tracing.Tracer()
        results = []
        try:
            tracer.install()
            for k, op in enumerate(ops):
                tracer.start_op(f"0:{k}")
                results.append(op.run())
        finally:
            tracer.remove()
        tracing.assert_untraced()
        assert [problem for op, result in zip(ops, results) for problem in op.check(result)] == []
        if name == "survey":
            assert tracer.counts["linalg.rref.calls"] > 0
            assert tracer.counts["linalg.rref.cells"] > 0


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


def test_peak_rss_runs_one_pass_in_a_fresh_process():
    """`scripts/peak_rss.py` on this tree's `src/`: one pass of a workload in
    a fresh worker process prints one figure in MB, and nothing is written
    under `bench/`."""
    before = sorted(p for p in (ROOT / "bench").rglob("*"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "peak_rss.py"), str(ROOT / "src"),
         "--workload", "survey", "--seed", "3"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert re.fullmatch(r"\d+\.\d\d\n", done.stdout)
    assert 1.0 < float(done.stdout) < 4096.0
    assert sorted(p for p in (ROOT / "bench").rglob("*")) == before
