"""Inputs, op lists and output checks of the three benchmark workloads.

Everything here is derived from the workload seed alone: the same seed
gives byte-identical input documents and the same op list.  Importing this
module imports `marked_bases`, so `run.py` times the import as part of
set-up.

An op is the unit that is timed.  `run()` is the timed part; `check()` and
`digest()` run afterwards, outside the timed interval, and see the value
`run()` returned.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from marked_bases import (
    FreeModuleLayout,
    MarkedSet,
    ModuleTerm,
    MonomialModule,
    basis_invariants,
    cli,
    family,
    format_marked_element,
    format_module_term,
    invariant_bounds,
    is_marked_basis,
    marked,
    monom,
    pommaret_completion,
    predicted_ranks,
    randgen,
    syzygy,
    truncate_basis,
)
from marked_bases.randgen import random_quasi_stable_exponents

# The two examples of the paper, as in the package's own test documents.
TWISTED_DOC = """\
ring 3
ideal J = x2^3, x2^2*x1, x2*x1, x1*x0, x1^2
marked G = [x2^3], [x2^2*x1], [x2*x1], [x1*x0] + x2^2, [x1^2]
"""

NON_GROEBNER_DOC = """\
ring 3
ideal J = x2*x1, x2^2*x1, x2^3, x1^3, x2^2*x0, x1^2*x0
marked G = [x2*x1] - x2^2 - x1^2, [x2^2*x1], [x2^3], [x1^3], [x2^2*x0], [x1^2*x0]
"""

# Truncated quasi-stable ideals and one rank-2 module: name -> (n, weights,
# generators as (exponent, component), truncation degree).
CORPUS = {
    "C1": (2, (0,), [((0, 0, 1), 1), ((0, 6, 0), 1)], 6),
    "C2": (3, (0,), [((0, 0, 0, 1), 1), ((0, 0, 1, 0), 1), ((0, 6, 0, 0), 1)], 6),
    "C3": (3, (0,), [((0, 0, 0, 1), 1), ((0, 0, 2, 0), 1), ((0, 2, 1, 0), 1),
                     ((0, 4, 0, 0), 1)], 5),
    "C4": (5, (0,), [((0, 0, 0, 0, 0, 1), 1), ((0, 0, 0, 0, 1, 0), 1),
                     ((0, 0, 0, 1, 0, 0), 1), ((0, 0, 2, 0, 0, 0), 1)], 3),
    "C5": (2, (0, 0), [((0, 0, 1), 1), ((0, 3, 0), 1), ((0, 0, 2), 2),
                       ((0, 2, 0), 2)], 4),
}

# The survey's cost per case is dominated by random choices inside the op
# (coordinate changes retried by random_marked_basis, the early exit of the
# basis test on a random marked set), so its totals and its tail are steady
# across seeds only over many cases.
SURVEY_CASES = 300
SURVEY_QUICK_CASES = 5
SURVEY_MAX_DEGREE = {3: 4, 4: 3}  # by number of variables


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list]
    digest: Callable[[Any], str]


def corpus_basis(name: str):
    n, weights, gens, degree = CORPUS[name]
    layout = FreeModuleLayout(n, weights)
    module = MonomialModule(layout, [ModuleTerm(e, k) for e, k in gens])
    return truncate_basis(pommaret_completion(module), degree)


def _header(layout) -> str:
    text = f"ring {layout.nvars}\n"
    if layout.rank > 1:
        text += f"module {layout.rank} " + " ".join(map(str, layout.weights)) + "\n"
    return text


def marked_document(mset: MarkedSet) -> str:
    elements = ", ".join(format_marked_element(el.body, el.head) for el in mset.ordered())
    return _header(mset.layout) + f"marked G = {elements}\n"


def ideal_document(basis) -> str:
    terms = ", ".join(format_module_term(t, basis.layout.rank) for t in basis.sorted_terms())
    return _header(basis.layout) + f"ideal J = {terms}\n"


def heads_basis(document: str):
    """The certified Pommaret basis on the heads of a marked document."""
    doc = cli.parse_document(document)
    [raw] = doc.marked.values()
    return monom.PommaretBasis(doc.layout, frozenset(h for _, h in raw.elements),
                               certified=True)


def cli_run(argv: list[str]):
    """Run one `mbases` command in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def cli_digest(result) -> str:
    code, stdout = result
    return f"{code}\n{stdout}"


def cli_op(name: str, argv: list[str], check: Callable[[int, str], list]) -> Op:
    return Op(name, lambda: cli_run(argv), lambda r: check(*r), cli_digest)


def _ranks_json(pairs) -> dict:
    table: dict = {}
    for (i, j), c in sorted(pairs.items()):
        table.setdefault(str(i), {})[str(j)] = c
    return table


# ---------- resolve ----------


def resolve_ops(seed: int, workdir: Path, quick: bool = False) -> list[Op]:
    documents = {"TWISTED": TWISTED_DOC, "NON_GROEBNER": NON_GROEBNER_DOC}
    if not quick:
        for case in ("C2", "C3", "C4"):
            rng = random.Random(f"{seed}:{case}")
            documents[case] = marked_document(randgen.random_marked_basis(rng, corpus_basis(case)))
    ops = []
    for case, text in documents.items():
        path = workdir / f"resolve-{case}.mb"
        path.write_text(text, encoding="utf-8")
        heads = heads_basis(text)
        ops.append(cli_op(f"check {case}", ["check", str(path)], _check_yes))
        ops.append(cli_op(
            f"resolve {case}", ["resolve", str(path), "--minimize", "--json"],
            _resolve_checker(heads)))
    return ops


def _check_yes(code: int, stdout: str) -> list:
    if code != 0 or stdout != "marked basis: yes\n":
        return [f"check: exit {code}, output {stdout[:60]!r}"]
    return []


def _resolve_checker(heads):
    expected = _ranks_json(predicted_ranks(heads))
    length = heads.layout.n - basis_invariants(heads).D
    bounds = invariant_bounds(heads).betti_bound_table

    def check(code: int, stdout: str) -> list:
        if code != 0:
            return [f"resolve: exit {code}"]
        data = json.loads(stdout)
        problems = []
        if data.get("ok") is not True:
            problems.append("resolve: ok is not true")
        if data["ranks"] != expected:
            problems.append("resolve: ranks differ from the predicted ranks")
        if data["resolution"]["length"] != length:
            problems.append("resolve: length is not n - D")
        for i, row in data["minimal"]["ranks"].items():
            for j, c in row.items():
                if c > bounds.get((int(i), int(j)), 0):
                    problems.append(f"resolve: minimal rank [{i},{j}] above its bound")
        return problems

    return check


# ---------- family ----------


def _assignment(generic, mset: MarkedSet) -> list[Fraction]:
    """Parameter values giving `mset` (generic tails carry -C, so C = -c)."""
    return [-mset.elements[head].body.coefficient(tail) for head, tail in generic.param_pairs]


def off_family_point(generic, values, rng: random.Random) -> list[Fraction]:
    """`values` with one coordinate moved so the set is no marked basis."""
    order = list(range(len(values)))
    rng.shuffle(order)
    for i in order:
        moved = list(values)
        moved[i] += 1
        point = family.specialize(generic, dict(enumerate(moved))).marked
        if not is_marked_basis(point).is_basis:
            return moved
    raise RuntimeError("every single-coordinate move stays in the family")


def _set_argument(generic, values) -> str:
    return ",".join(f"{name}={v}" for name, v in zip(generic.param_names, values))


def family_ops(seed: int, workdir: Path, quick: bool = False) -> list[Op]:
    ops = []
    for case in (("C1",) if quick else ("C1", "C2", "C3", "C4", "C5")):
        basis = corpus_basis(case)
        path = workdir / f"family-{case}.mb"
        path.write_text(ideal_document(basis), encoding="utf-8")
        generic = family.generic_marked_set(basis)
        rng = random.Random(f"{seed}:{case}")
        on = _assignment(generic, randgen.random_marked_basis(rng, basis))
        off = off_family_point(generic, on, rng)
        ops.append(cli_op(f"family {case}", ["family", str(path)],
                          _family_checker(generic.nparams)))
        ops.append(cli_op(f"specialize-on {case}",
                          ["specialize", str(path), "--set", _set_argument(generic, on)],
                          _check_on_family))
        ops.append(cli_op(f"specialize-off {case}",
                          ["specialize", str(path), "--set", _set_argument(generic, off)],
                          _check_off_family))
    return ops


def _family_checker(nparams: int):
    def check(code: int, stdout: str) -> list:
        lines = stdout.splitlines()
        if code != 0 or not lines or not lines[0].startswith(f"parameters ({nparams}):"):
            return [f"family: exit {code}, first line {lines[:1]!r}"]
        if not any(l.startswith("equations") for l in lines):
            return ["family: no equations line"]
        return []

    return check


def _check_on_family(code: int, stdout: str) -> list:
    lines = stdout.splitlines()
    if code != 0 or "family equations vanish: yes" not in lines or "marked basis: yes" not in lines:
        return [f"specialize on the family: exit {code}"]
    return []


def _check_off_family(code: int, stdout: str) -> list:
    lines = stdout.splitlines()
    if (code != 1 or "family equations vanish: no" not in lines
            or not any(l.startswith("certificate: ") for l in lines)):
        return [f"specialize off the family: exit {code}"]
    return []


# ---------- survey ----------


@dataclass
class SurveyCase:
    layout: FreeModuleLayout
    generators: list
    seed: str


def survey_cases(seed: int, count: int) -> list[SurveyCase]:
    """Small random quasi-stable ideals, alternately in 3 and 4 variables;
    every fifth case is a rank-2 module.  Sizes are capped as in
    scripts/random_survey.py, and degrees so that no case dominates a pass."""
    rng = random.Random(f"{seed}:survey")
    cases = []
    while len(cases) < count:
        nvars = 3 + len(cases) % 2
        if len(cases) % 5 == 4:
            layout = FreeModuleLayout(nvars - 1, tuple(rng.randint(0, 1) for _ in range(2)))
            gens = [ModuleTerm(e, k) for k in (1, 2)
                    for e in random_quasi_stable_exponents(rng, nvars, 2)]
            cap = 16
        else:
            layout = FreeModuleLayout(nvars - 1)
            gens = [ModuleTerm(e, 1) for e in random_quasi_stable_exponents(rng, nvars, 3)]
            cap = 12
        basis = pommaret_completion(MonomialModule(layout, gens))
        if 0 < len(basis.terms) <= cap and basis.max_degree() <= SURVEY_MAX_DEGREE[nvars]:
            cases.append(SurveyCase(layout, sorted(gens), f"{seed}:survey:{len(cases)}"))
    return cases


def survey_run(case: SurveyCase) -> dict:
    rng = random.Random(case.seed)
    basis = monom.pommaret_completion(MonomialModule(case.layout, case.generators))
    if case.layout.rank == 1:
        bounds = syzygy.invariant_bounds(basis)
    else:
        bounds = monom.basis_invariants(basis)
    mset = randgen.random_marked_basis(rng, basis)
    full = syzygy.free_resolution(mset)
    minimal = syzygy.minimize_resolution(full)
    verdict = marked.is_marked_basis(randgen.random_marked_set(rng, basis))
    return {"basis": basis, "bounds": bounds, "marked": mset, "full": full,
            "minimal": minimal, "verdict": verdict}


def survey_check(r: dict) -> list:
    problems = []
    # A fresh copy, so that the verdict stored by random_marked_basis is
    # recomputed rather than read back.
    mset = r["marked"]
    if not is_marked_basis(MarkedSet(mset.basis, mset.ordered())).is_basis:
        problems.append("survey: the random marked basis does not certify")
    bounds, minimal = r["bounds"], r["minimal"]
    if r["basis"].layout.rank == 1:
        table = bounds.betti_bound_table
        if any(c > table.get(key, 0) for key, c in minimal.rank_pairs().items()):
            problems.append("survey: a minimal Betti number exceeds its bound")
        if minimal.length != bounds.pdim_bound:
            problems.append("survey: minimal length differs from the pdim bound")
    return problems


def survey_digest(r: dict) -> str:
    minimal, verdict = r["minimal"], r["verdict"]
    return repr((sorted(r["basis"].terms), r["bounds"], r["full"].degrees,
                 minimal.degrees, minimal.bodies, minimal.matrices,
                 verdict.is_basis, verdict.certificate))


def survey_ops(seed: int, workdir: Path, quick: bool = False) -> list[Op]:
    cases = survey_cases(seed, SURVEY_QUICK_CASES if quick else SURVEY_CASES)
    return [Op(f"survey {k}", lambda c=case: survey_run(c), survey_check, survey_digest)
            for k, case in enumerate(cases)]


WORKLOADS = {"resolve": resolve_ops, "family": family_ops, "survey": survey_ops}
