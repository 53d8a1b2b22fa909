import dataclasses
import functools
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from marked_bases import (
    FreeModuleLayout,
    MissingParameter,
    MonomialModule,
    ParamPoly,
    basis_invariants,
    family_equations,
    generic_marked_set,
    is_marked_basis,
    parse_document,
    pommaret_completion,
    reduce_full,
    specialize,
    truncate_basis,
)
from marked_bases import marked as marked_module
from marked_bases import monom as monom_module
from marked_bases.family import specialized_set, tail_parameters
from marked_bases.monom import nonmultiplicative_variables
from marked_bases.randgen import random_marked_basis
from marked_bases.ring import min_index, var_exp
from conftest import LAY3, NON_GROEBNER_DOC, T, TWISTED_DOC
import oracles
from oracles import (
    HypothesisViolated,
    evaluate,
    mul_term,
    param_variable,
    saturate,
    specialize_by_evaluation,
    tails_respect_min_variable,
    triangular_representation,
    vanishes_at,
    x0_heads_are_divisible,
)
from samplers import random_saturated_basis

LAY2 = FreeModuleLayout(1)


def line_basis():
    return pommaret_completion(MonomialModule(LAY2, [T((0, 1))]))


def double_point_basis():
    # heads x1^2 and x1x0; one complement term x0^2 in degree 2
    return pommaret_completion(MonomialModule(LAY2, [T((0, 2)), T((1, 1))]))


class TestGenericMarkedSet:
    def test_line(self):
        generic = generic_marked_set(line_basis())
        assert generic.param_names == ("C_{0,0}",)
        [el] = generic.marked.ordered()
        assert el.head == T((0, 1))
        assert el.body.terms[T((1, 0))] == -param_variable(1, 0)

    def test_double_point(self):
        generic = generic_marked_set(double_point_basis())
        assert generic.param_names == ("C_{0,0}", "C_{1,0}")
        assert generic.param_pairs == (
            (T((0, 2)), T((2, 0))),
            (T((1, 1)), T((2, 0))),
        )

    def test_twisted_parameter_count(self, twisted):
        generic = generic_marked_set(twisted.basis)
        # complement has 3 terms in each of the degrees 2 and 3
        assert generic.nparams == 3 * 3 + 2 * 3


class TestFamilyEquations:
    def test_line_has_no_equations(self):
        fam = family_equations(generic_marked_set(line_basis()))
        assert fam.generators == ()

    def test_double_point_single_equation(self):
        generic = generic_marked_set(double_point_basis())
        fam = family_equations(generic)
        assert len(fam.generators) == 1
        a = param_variable(2, 0)
        b = param_variable(2, 1)
        target = a - b * b
        rng = random.Random(5)
        g = fam.generators[0]
        ratios = set()
        for _ in range(25):
            pt = {0: Fraction(rng.randint(-9, 9)), 1: Fraction(rng.randint(-9, 9))}
            lhs, rhs = evaluate(g, pt), evaluate(target, pt)
            assert (lhs == 0) == (rhs == 0)
            if rhs:
                ratios.add(lhs / rhs)
        assert len(ratios) == 1  # equal up to one non-zero constant

    def test_twisted_coefficients_are_a_root(self, twisted):
        generic = generic_marked_set(twisted.basis)
        fam = family_equations(generic)
        assignment = {i: Fraction(0) for i in range(generic.nparams)}
        idx = generic.param_pairs.index((T((1, 1, 0)), T((0, 0, 2))))
        assignment[idx] = Fraction(-1)  # tail stores -C, and g4 carries +x2^2
        assert vanishes_at(fam, assignment)
        spec = specialize(generic, assignment)
        assert spec.marked.elements[T((1, 1, 0))].body == twisted.marked.elements[
            T((1, 1, 0))
        ].body

    def test_order_independence(self, twisted):
        generic = generic_marked_set(twisted.basis)
        fam = family_equations(generic)
        rng = random.Random(11)
        jobs = [
            (el, j)
            for el in generic.marked.ordered()
            for j in nonmultiplicative_variables(el.head, 2)
        ]
        rng.shuffle(jobs)
        collected = set()
        for el, j in jobs:
            rep = reduce_full(mul_term(el.body, var_exp(3, j)), generic.marked)
            collected.update(rep.remainder.terms.values())
        assert collected == set(fam.generators)

    def test_reductions_build_no_param_poly_per_step(self, twisted, monkeypatch):
        """Over K[C] the reduction kernel `marked._reduce` multiply-subtracts
        sparse dicts in place, so no `ParamPoly` product or difference comes
        from it, nor from `prolongation_rep`, which builds its input."""
        generic = generic_marked_set(twisted.basis)
        callers = []
        for name in ("__mul__", "__rmul__", "__sub__", "__rsub__"):
            def counted(self, other, original=getattr(ParamPoly, name)):
                callers.append(sys._getframe(1).f_code)
                return original(self, other)

            monkeypatch.setattr(ParamPoly, name, counted)
        fam = family_equations(generic)
        assert fam.generators
        kernel = {marked_module._reduce.__code__, marked_module.prolongation_rep.__code__}
        assert [code for code in callers if code in kernel] == []
        # The counter sees an operator call.
        param_variable(generic.nparams, 0) * param_variable(generic.nparams, 1)
        assert callers[-1] is sys._getframe().f_code


class TestSpecialize:
    def test_root_gives_basis(self):
        generic = generic_marked_set(double_point_basis())
        fam = family_equations(generic)
        spec = specialize(generic, {"C_{0,0}": 1, "C_{1,0}": 1})
        assert vanishes_at(fam, spec.assignment)
        assert is_marked_basis(spec.marked).is_basis

    def test_non_root_fails(self):
        generic = generic_marked_set(double_point_basis())
        fam = family_equations(generic)
        spec = specialize(generic, {"C_{0,0}": 2, "C_{1,0}": 1})
        assert not vanishes_at(fam, spec.assignment)
        result = is_marked_basis(spec.marked)
        assert not result.is_basis
        assert result.certificate is not None

    def test_zero_assignment_gives_monomial_basis(self, twisted):
        generic = generic_marked_set(twisted.basis)
        spec = specialize(generic, {i: 0 for i in range(generic.nparams)})
        for el in spec.marked.ordered():
            assert list(el.body.terms) == [el.head]
        assert is_marked_basis(spec.marked).is_basis

    def test_missing_parameter(self):
        generic = generic_marked_set(double_point_basis())
        with pytest.raises(MissingParameter):
            specialize(generic, {"C_{0,0}": 1})

    def test_vanishing_iff_basis(self, rng):
        generic = generic_marked_set(double_point_basis())
        fam = family_equations(generic)
        seen = {True: 0, False: 0}
        for _ in range(20):
            b = Fraction(rng.randint(-4, 4))
            a = b * b if rng.random() < 0.5 else Fraction(rng.randint(-9, 9))
            spec = specialize(generic, {0: a, 1: b})
            verdict = is_marked_basis(spec.marked).is_basis
            assert vanishes_at(fam, spec.assignment) == verdict
            seen[verdict] += 1
        assert seen[True] and seen[False]


class TestTriangularRepresentation:
    def test_line_has_no_eligible_head(self):
        base = line_basis()
        trunc_deg = 1
        generic = generic_marked_set(truncate_basis(base, trunc_deg))
        with pytest.raises(HypothesisViolated):
            triangular_representation(
                generic, T((0, 1)), 1, base=base, truncation_degree=trunc_deg
            )

    def test_plane_ideal_uses_x0_multipliers(self):
        base = pommaret_completion(MonomialModule(LAY3, [T((0, 1, 0)), T((0, 0, 1))]))
        m = 2
        generic = generic_marked_set(truncate_basis(base, m))
        for head in generic.basis.sorted_terms():
            if min_index(head.exp) == 0:
                report = triangular_representation(
                    generic, head, 1, base=base, truncation_degree=m
                )
                assert report.verified
                for _, mult, _ in report.representation.summands:
                    assert mult == (1, 0, 0)

    def test_saturated_twisted_truncation(self, twisted):
        base = saturate(twisted.basis)
        inv = basis_invariants(base)
        assert inv.saturated
        m = inv.regularity
        generic = generic_marked_set(truncate_basis(base, m))
        checked = 0
        for head in generic.basis.sorted_terms():
            hmin = min_index(head.exp)
            hmin = 2 if hmin is None else hmin
            for i in range(hmin + 1, 3):
                report = triangular_representation(
                    generic, head, i, base=base, truncation_degree=m
                )
                assert report.verified
                for _, mult, _ in report.representation.summands:
                    assert sum(mult) == 1 and min_index(mult) < i
                checked += 1
        assert checked > 0

    def test_truncation_degree_too_small(self):
        base = pommaret_completion(MonomialModule(LAY3, [T((0, 1, 0)), T((0, 0, 3))]))
        with pytest.raises(HypothesisViolated):
            generic = generic_marked_set(truncate_basis(base, 1))
            triangular_representation(
                generic, T((1, 1, 0)), 1, base=base, truncation_degree=1
            )

    def test_unsaturated_base_rejected(self, twisted):
        m = 3
        generic = generic_marked_set(truncate_basis(twisted.basis, m))
        head = next(
            t for t in generic.basis.sorted_terms() if min_index(t.exp) == 0
        )
        with pytest.raises(HypothesisViolated):
            triangular_representation(
                generic, head, 1, base=twisted.basis, truncation_degree=m
            )


class TestTailStructure:
    def test_specialized_bases_respect_tail_bounds(self, rng):
        for _ in range(4):
            base = random_saturated_basis(rng, 2, max_deg=3)
            m = basis_invariants(base).regularity
            trunc = truncate_basis(base, m)
            marked = random_marked_basis(rng, trunc)
            assert is_marked_basis(marked).is_basis
            assert tails_respect_min_variable(marked)
            assert x0_heads_are_divisible(marked)


class TestComplementEnumeration:
    """The generic marked set enumerates the complement once per degree,
    whatever the number of heads of that degree: the basis memoises each
    degree's split, and every head of that degree reads it."""

    @pytest.fixture
    def enumerations(self, monkeypatch):
        """The degrees of the `terms_of_degree` enumerations, one per
        component of each degree split."""
        calls = []
        original = monom_module.terms_of_degree

        def counting(nvars, d):
            calls.append(d)
            return original(nvars, d)

        monkeypatch.setattr(monom_module, "terms_of_degree", counting)
        return calls

    @pytest.mark.parametrize("build", [
        lambda twisted: twisted.basis,
        lambda twisted: truncate_basis(twisted.basis, 4),
        lambda twisted: truncate_basis(pommaret_completion(MonomialModule(
            FreeModuleLayout(2, (0, 0)),
            [T((0, 0, 1), 1), T((0, 3, 0), 1), T((0, 0, 2), 2), T((0, 2, 0), 2)],
        )), 4),
    ])
    def test_once_per_head_degree(self, enumerations, twisted, build):
        basis = build(twisted)
        enumerations.clear()  # the truncation enumerates the cone slices
        generic = generic_marked_set(basis)
        degrees = {basis.layout.term_degree(h) for h in basis.terms}
        assert len(basis.terms) > len(degrees)
        weights = basis.layout.weights
        assert sorted(enumerations) == sorted(s - w for s in degrees for w in weights if s >= w)
        assert generic.nparams


# The shapes of the C1-C5 family corpus: (n, weights, generators as
# (exponent, component), truncation degree).
FAMILY_CORPUS = {
    "C1": (2, (0,), [((0, 0, 1), 1), ((0, 6, 0), 1)], 6),
    "C2": (3, (0,), [((0, 0, 0, 1), 1), ((0, 0, 1, 0), 1), ((0, 6, 0, 0), 1)], 6),
    "C3": (3, (0,), [((0, 0, 0, 1), 1), ((0, 0, 2, 0), 1), ((0, 2, 1, 0), 1),
                     ((0, 4, 0, 0), 1)], 5),
    "C4": (5, (0,), [((0, 0, 0, 0, 0, 1), 1), ((0, 0, 0, 0, 1, 0), 1),
                     ((0, 0, 0, 1, 0, 0), 1), ((0, 0, 2, 0, 0, 0), 1)], 3),
    "C5": (2, (0, 0), [((0, 0, 1), 1), ((0, 3, 0), 1), ((0, 0, 2), 2),
                       ((0, 2, 0), 2)], 4),
}


@functools.cache
def corpus_family(name):
    """The corpus basis, its generic marked set and its family equations."""
    n, weights, gens, degree = FAMILY_CORPUS[name]
    module = MonomialModule(FreeModuleLayout(n, weights), [T(e, k) for e, k in gens])
    basis = truncate_basis(pommaret_completion(module), degree)
    generic = generic_marked_set(basis)
    return basis, generic, family_equations(generic)


def family_point(name, seed: int, kind: str) -> list:
    """A point of the parameter space of a corpus case (see `point_of`)."""
    basis, generic, _ = corpus_family(name)
    return point_of(basis, generic, seed, kind)


def point_of(basis, generic, seed: int, kind: str) -> list:
    """A point of the parameter space: "on" the family (the tails of a random
    marked basis; generic tails carry -C), "moved" off it in one coordinate
    (usually), or a "random" one (almost never on it)."""
    rng = random.Random(seed)
    if kind == "random":
        return [Fraction(rng.randint(-3, 3)) for _ in range(generic.nparams)]
    marked = random_marked_basis(rng, basis)
    values = [-marked.elements[head].body.coefficient(tail)
              for head, tail in generic.param_pairs]
    if kind == "moved":
        values[rng.randrange(len(values))] += rng.choice((-2, -1, 1, 2))
    return values


def cross_check(name, values) -> bool:
    """The family equations vanish at the point exactly when the specialized
    set passes the basis test; returns the common verdict."""
    _, generic, fam = corpus_family(name)
    spec = specialize(generic, dict(enumerate(values)))
    vanishes = oracles.vanishes_at(fam, spec.assignment)
    is_basis = marked_module.is_marked_basis(spec.marked).is_basis
    if vanishes != is_basis:
        raise AssertionError(f"family equations vanish: {vanishes}, basis test: {is_basis}")
    return is_basis


class TestSpecializeOracle:
    """`mbases specialize` reads "family equations vanish" from the basis
    test of the specialized set; the symbolic family is the oracle here."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(sorted(FAMILY_CORPUS)), st.integers(0, 2**32 - 1),
           st.sampled_from(["on", "moved", "random"]))
    def test_family_vanishes_iff_basis(self, name, seed, kind):
        verdict = cross_check(name, family_point(name, seed, kind))
        if kind == "on":
            assert verdict

    def test_both_verdicts_occur(self):
        verdicts = {
            cross_check(name, family_point(name, seed, kind))
            for name in FAMILY_CORPUS for seed in (1, 2) for kind in ("on", "moved")
        }
        assert verdicts == {True, False}

    @pytest.mark.parametrize("kind", ["on", "moved"])
    def test_corrupted_family_verdict_fails(self, monkeypatch, kind):
        values = family_point("C1", 1, kind)
        cross_check("C1", values)
        real = oracles.vanishes_at
        monkeypatch.setattr(oracles, "vanishes_at", lambda fam, a: not real(fam, a))
        with pytest.raises(AssertionError, match="family equations vanish"):
            cross_check("C1", values)

    @pytest.mark.parametrize("kind", ["on", "moved"])
    def test_corrupted_basis_verdict_fails(self, monkeypatch, kind):
        values = family_point("C1", 1, kind)
        cross_check("C1", values)
        real = marked_module.is_marked_basis

        def flipped(marked, **kwargs):
            result = real(marked, **kwargs)
            return dataclasses.replace(result, is_basis=not result.is_basis)

        monkeypatch.setattr(marked_module, "is_marked_basis", flipped)
        with pytest.raises(AssertionError, match="family equations vanish"):
            cross_check("C1", values)


# A rank-2 module with weights (0, 1), beside the (0, 0) of C5.
MODULE_DOC = "ring 3\nmodule 2 0 1\nideal J = x2*e1, x1^2*e1, x2*e2\n"
DOCUMENTS = {"twisted": TWISTED_DOC, "non_groebner": NON_GROEBNER_DOC, "module": MODULE_DOC}


@functools.cache
def differential_case(name):
    """The basis and generic set of a corpus case or of a document's ideal."""
    if name in FAMILY_CORPUS:
        basis, generic, _ = corpus_family(name)
        return basis, generic
    basis = pommaret_completion(parse_document(DOCUMENTS[name]).ideals["J"])
    return basis, generic_marked_set(basis)


def shape(marked):
    """Heads in order, each with its body's terms in order, coefficient
    types included (a stored rational is an int when integral)."""
    return [
        (el.head, [(t, c, type(c)) for t, c in el.body.terms.items()])
        for el in marked.ordered()
    ]


def refuse_parameter_polynomials(*args):
    raise AssertionError("a parameter polynomial was built")


class TestSpecializeFromTheHeads:
    """`specialize` and the CLI's route (`specialized_set` over
    `tail_parameters`) build the point's set from the heads; evaluating the
    generic set's coefficients is the reference."""

    @pytest.mark.parametrize("kind", ["on", "moved", "random"])
    @pytest.mark.parametrize("name", [*sorted(FAMILY_CORPUS), *DOCUMENTS])
    def test_equals_evaluating_the_generic_set(self, monkeypatch, name, kind):
        basis, generic = differential_case(name)
        assert tail_parameters(basis) == (list(generic.param_pairs), list(generic.param_names))
        for seed in (1, 2):
            values = point_of(basis, generic, seed, kind)
            by_name = dict(zip(generic.param_names, values))
            expected, assignment = specialize_by_evaluation(generic, by_name)
            with monkeypatch.context() as patch:
                patch.setattr(ParamPoly, "__init__", refuse_parameter_polynomials)
                spec = specialize(generic, dict(enumerate(values)))
                cli_route, cli_values = specialized_set(basis, *tail_parameters(basis), by_name)
            assert shape(spec.marked) == shape(cli_route) == shape(expected)
            assert spec.assignment == dict(enumerate(cli_values)) == assignment

    def test_value_spellings(self):
        """Ints and Fractions are taken as they are; any other value goes
        through `Fraction`, and integral values are stored as ints."""
        generic = generic_marked_set(double_point_basis())
        for values in [(3, Fraction(1, 2)), (Fraction(6, 3), "3/4"), (0.5, "-0"), ("1e2", 7)]:
            assignment = dict(zip(generic.param_names, values))
            expected, stored = specialize_by_evaluation(generic, assignment)
            spec = specialize(generic, assignment)
            assert shape(spec.marked) == shape(expected)
            assert [(v, type(v)) for v in spec.assignment.values()] == [
                (v, type(v)) for v in stored.values()
            ]
