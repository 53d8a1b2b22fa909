"""The coefficient rule: an integral rational is stored as an int, every
other rational as a Fraction, and a ParamPoly's coefficients follow the same
rule.  No float may appear anywhere.

The walker below visits every coefficient an object holds: module-element
terms, differential entries, the representations memoised on marked sets,
family equations.  It runs over every stage that creates coefficients:
parsing, random generation, resolution, minimization (which divides by its
pivots), generic sets with their family equations, and specialization.  It
also checks that no differential stores an empty entry, and minimization is
compared with the dense reference of oracles.py.
"""

import random
from fractions import Fraction

import pytest

import marked_bases.syzygy as syzygy_module
from marked_bases import (
    MarkedElement,
    MarkedSet,
    ModuleElement,
    ParamPoly,
    family_equations,
    free_resolution,
    generic_marked_set,
    is_marked_basis,
    minimize_resolution,
    pommaret_completion,
    reduce_full,
    specialize,
)
from marked_bases.linalg import rref
from marked_bases.randgen import random_marked_basis
from marked_bases.ring import poly_add_product, rational
from marked_bases.textio import parse_document, parse_polynomial, resolution_to_dict
from conftest import LAY3, NON_GROEBNER_DOC, TWISTED_DOC, T, survey_bases
from oracles import (
    dense_minimize_resolution, evaluate, param_variable, syzygy_levels, vanishes_at,
)

# The paper examples with non-integral tails: reductions over Fractions.
HALVES_DOCS = [
    """\
ring 3
ideal J = x2^3, x2^2*x1, x2*x1, x1*x0, x1^2
marked G = [x2^3], [x2^2*x1], [x2*x1], [x1*x0] + 1/2*x2^2, [x1^2]
""",
    """\
ring 3
ideal J = x2*x1, x2^2*x1, x2^3, x1^3, x2^2*x0, x1^2*x0
marked G = [x2*x1] - 1/2*x2^2 - 3/2*x1^2, [x2^2*x1], [x2^3], [x1^3], [x2^2*x0], [x1^2*x0]
""",
]

# NON_GROEBNER with other tail coefficients: its minimization cancels one
# constant entry, and that entry is 2.
PIVOT_TWO_DOC = """\
ring 3
ideal J = x2*x1, x2^2*x1, x2^3, x1^3, x2^2*x0, x1^2*x0
marked G = [x2*x1] + x2^2 + 3*x1^2, [x2^2*x1], [x2^3], [x1^3], [x2^2*x0], [x1^2*x0]
"""


def assert_rule(c, where=""):
    if type(c) is int:
        return
    if type(c) is Fraction:
        assert c.denominator != 1, f"integral Fraction {c!r} at {where}"
        return
    assert type(c) is ParamPoly, f"{type(c).__name__} {c!r} at {where}"
    for value in c._terms.values():
        assert_rule(value, f"{where} (ParamPoly)")


def walk_element(elem: ModuleElement, where):
    for c in elem.terms.values():
        assert_rule(c, where)


def walk_marked(marked: MarkedSet, where):
    for el in marked.ordered():
        walk_element(el.body, where)
    for rep in marked._prolongations.values():
        for c, _, _ in rep.summands:
            assert_rule(c, f"{where} summand")
        walk_element(rep.remainder, f"{where} remainder")


def walk_resolution(res, where, marked=None):
    """Every stored entry of `res`; with the level-0 set `marked`, also
    every marked set of the construction that built `res`."""
    maps = [("body", res.bodies)] + [("differential", mat) for mat in res.matrices]
    for what, mat in maps:
        for col in mat:
            for entry in col.values():
                assert entry, f"empty {what} entry stored at {where}"
                for c in entry.values():
                    assert_rule(c, f"{where} {what}")
    for level in syzygy_levels(marked) if marked is not None else []:
        walk_marked(level, f"{where} level")


def marked_from_doc(text) -> MarkedSet:
    doc = parse_document(text)
    for raw in doc.marked.values():
        for body, _ in raw.elements:
            walk_element(body, "parse_document")
    basis = pommaret_completion(doc.ideals["J"])
    marked = MarkedSet(basis, [MarkedElement(b, h) for b, h in doc.marked["G"].elements])
    assert is_marked_basis(marked).is_basis
    return marked


@pytest.fixture
def pivots(monkeypatch):
    """Records the pivots minimization cancels, as (differential, row,
    column, value) in the column layout's indices."""
    seen = []
    find = syzygy_module._find_pivot

    def recording(matrices, degrees):
        found = find(matrices, degrees)
        if found is not None:
            seen.append(found)
        return found

    monkeypatch.setattr(syzygy_module, "_find_pivot", recording)
    return seen


class TestRational:
    def test_integral_fraction_becomes_int(self):
        assert type(rational(Fraction(6, 3))) is int
        assert rational(Fraction(-4, 2)) == -2

    def test_other_values_unchanged(self):
        half = Fraction(1, 2)
        assert rational(half) is half
        assert rational(7) == 7 and type(rational(7)) is int


class TestStoredCoefficients:
    def test_element_constructor_applies_the_rule(self):
        elem = ModuleElement(LAY3, {T((0, 0, 1)): Fraction(4, 2), T((0, 1, 0)): Fraction(1, 3)})
        assert type(elem.terms[T((0, 0, 1))]) is int
        walk_element(elem, "constructor")

    def test_poly_add_product(self):
        # 1/2 * (x2 + 3*x1) added to 1/2 * x2.
        target = {(0, 0, 1): Fraction(1, 2)}
        poly_add_product(target, {(0, 0, 0): Fraction(1, 2)}, {(0, 0, 1): 1, (0, 1, 0): 3}, 1)
        assert target == {(0, 0, 1): 1, (0, 1, 0): Fraction(3, 2)}
        assert type(target[(0, 0, 1)]) is int

    def test_reduction_summands(self):
        # 3/4 of x2^2*x1 from h and 1/4 created by reducing x2*x1^2 add up
        # to the summand 1 on that head.
        marked = marked_from_doc(HALVES_DOCS[1])
        h = parse_polynomial("3/4*x2^2*x1 + 1/2*x2*x1^2 - 3/4*x1^3", marked.layout)
        rep = reduce_full(h, marked)
        assert rep.remainder.is_zero()
        assert rep.summands == ((Fraction(1, 2), (0, 1, 0), T((0, 1, 1))), (1, (0, 0, 0), T((0, 1, 2))))
        for c, _, _ in rep.summands:
            assert_rule(c, "reduce_full")

    def test_param_poly_constructors(self):
        p = ParamPoly(2, {((0, 1),): 2, ((1, 1),): Fraction(1, 2)})
        assert_rule(ParamPoly.const(2, Fraction(8, 4)))
        assert_rule(param_variable(2, 1))
        assert type(evaluate(p, {0: Fraction(1, 2), 1: 2})) is int
        assert type(ParamPoly.const(2, Fraction(8, 4)).constant_value()) is int
        assert type(ParamPoly(2, {}).constant_value()) is int


class TestPipelines:
    @pytest.mark.parametrize("text", [TWISTED_DOC, NON_GROEBNER_DOC] + HALVES_DOCS)
    def test_documents(self, text):
        marked = marked_from_doc(text)
        walk_marked(marked, "marked set")
        full = free_resolution(marked)
        walk_resolution(full, "free_resolution", marked)
        walk_resolution(minimize_resolution(full), "minimize_resolution")

    def test_parser_totals(self):
        doc = parse_document("ring 2\nmarked G = [x1] + 4/2*x0 + 1/3*x0 - 1/3*x0\n")
        [(body, _)] = doc.marked["G"].elements
        assert body.terms == {T((0, 1)): 1, T((1, 0)): 2}
        walk_element(body, "parse_document")

    def test_survey_cases(self, pivots):
        rng = random.Random(0)
        fractional_entries = 0
        for basis in survey_bases(0, 30):
            marked = random_marked_basis(rng, basis)
            walk_marked(marked, "random_marked_basis")
            full = free_resolution(marked)
            walk_resolution(full, "free_resolution", marked)
            minimal = minimize_resolution(full)
            walk_resolution(minimal, "minimize_resolution")
            fractional_entries += sum(
                type(c) is Fraction
                for mat in minimal.matrices for col in mat for entry in col.values()
                for c in entry.values()
            )
        # The cases divide by pivots other than 1 and -1 and keep the
        # non-integral quotients, so the rule is tested on real Fractions.
        assert {-4, -2} <= {v for *_, v in pivots}
        assert fractional_entries > 0

    @pytest.mark.parametrize("text", [TWISTED_DOC, NON_GROEBNER_DOC])
    def test_family_and_specialize(self, text):
        basis = pommaret_completion(parse_document(text).ideals["J"])
        generic = generic_marked_set(basis)
        walk_marked(generic.marked, "generic_marked_set")
        fam = family_equations(generic)
        assert fam.generators
        for g in fam.generators:
            assert_rule(g, "family_equations")
        walk_marked(generic.marked, "family memo")
        values = [Fraction(4, 2), Fraction(1, 2), -3, Fraction(-3, 4)]
        point = {i: values[i % len(values)] for i in range(generic.nparams)}
        spec = specialize(generic, point)
        walk_marked(spec.marked, "specialize")
        assert vanishes_at(fam, spec.assignment) == is_marked_basis(spec.marked).is_basis


class TestDivision:
    """`linalg.rref` on sparse rows {column: value}: a zero is never stored."""

    def test_rref_of_integer_rows_is_exact(self):
        reduced, pivots = rref([{0: 2, 1: 1}, {0: 4, 1: 3}])
        assert pivots == [0, 1]
        assert reduced == [{0: 1}, {1: 1}]
        [row], _ = rref([{0: 2, 1: 1}])
        assert row == {0: 1, 1: Fraction(1, 2)}
        assert type(row[1]) is Fraction
        assert not any(isinstance(x, float) for x in row.values())

    def test_rref_keeps_integral_quotients_as_ints(self):
        reduced, _ = rref([{0: -1, 1: 2}, {0: 3, 1: -6, 2: 1}])
        assert reduced == [{0: 1, 1: -2}, {2: 1}]
        assert all(type(x) is int for x in reduced[0].values())

    def test_minimization_with_pivot_two(self, pivots):
        full = free_resolution(marked_from_doc(PIVOT_TWO_DOC))
        minimal = minimize_resolution(full)
        assert [v for *_, v in pivots] == [2]
        walk_resolution(minimal, "minimize_resolution")
        levels = resolution_to_dict(minimal)["levels"]
        assert levels[1]["differential"] == [
            ["-1/2*x2^2 + 3/2*x2*x1", "-1/2*x2*x1 + 1/2*x1^2", "1/2*x2*x0 - 3/2*x1*x0",
             "0", "0", "-1/2*x2*x0 + 1/2*x1*x0"],
            ["1/2*x2 - x1", "1/2*x1", "-1/2*x0", "-x0", "0", "1/2*x0"],
            ["-9/2*x2", "x2 - 3/2*x1", "9/2*x0", "0", "-x0", "-3/2*x0"],
            ["0", "0", "x1", "x2", "0", "0"],
            ["0", "0", "0", "0", "x1", "x2"],
        ]


def assert_matches_dense(full, pivots):
    """Sparse minimization of `full` cancels the pivots of the dense
    reference, in its order, and prints the same JSON."""
    start = len(pivots)
    minimal = minimize_resolution(full)
    reference, reference_pivots = dense_minimize_resolution(full)
    assert pivots[start:] == reference_pivots
    assert resolution_to_dict(minimal) == resolution_to_dict(reference)
    return minimal


class TestDenseReference:
    """Minimization over sparse columns against the dense reference in
    oracles.py.  The pivot sequence is compared as well as the output.
    Cancelling a pivot leaves the Schur complement, so the output depends
    on the set of cancelled pivots only, and a column-then-row search
    cancels the same set here (the rank profile of the constant entries):
    on these cases a changed pivot order shows in the sequence alone."""

    @pytest.mark.parametrize("text", [TWISTED_DOC, NON_GROEBNER_DOC, PIVOT_TWO_DOC])
    def test_documents(self, text, pivots):
        assert_matches_dense(free_resolution(marked_from_doc(text)), pivots)

    def test_survey_cases(self, pivots):
        ranks = set()
        fractional_entries = 0
        for seed in (0, 2):
            rng = random.Random(seed)
            for basis in survey_bases(seed, 60):
                ranks.add(basis.layout.rank)
                minimal = assert_matches_dense(
                    free_resolution(random_marked_basis(rng, basis)), pivots
                )
                walk_resolution(minimal, "minimize_resolution")
                fractional_entries += sum(
                    type(c) is Fraction
                    for mat in minimal.matrices for col in mat for entry in col.values()
                    for c in entry.values()
                )
        # Ideals and rank-2 modules, pivots other than 1 and -1, and
        # non-integral quotients left in the minimal differentials.
        assert ranks == {1, 2}
        assert {-4, -2, 2, 4} <= {v for *_, v in pivots}
        assert fractional_entries > 0
