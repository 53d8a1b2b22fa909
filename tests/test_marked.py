import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from marked_bases import (
    HeadCoefficientNotOne,
    HeadMismatch,
    InternalNonTermination,
    MarkedElement,
    MarkedSet,
    ModuleElement,
    MonomialModule,
    NotABasis,
    ParamPoly,
    PommaretBasis,
    TailTermInU,
    complement_terms,
    generic_marked_set,
    is_marked_basis,
    nonmultiplicative_variables,
    pommaret_completion,
    prolongation_rep,
    prolongations,
    reduce_full,
    truncate_basis,
)
from marked_bases.ring import FreeModuleLayout, var_exp
from marked_bases.randgen import random_marked_basis, random_marked_set, random_quasi_stable_basis
from conftest import E, LAY3, T, build_twisted_example, survey_bases
from test_coefficients import assert_rule
from test_family import FAMILY_CORPUS
from samplers import random_homogeneous_element, random_quasi_stable_module
from oracles import (
    all_module_terms,
    all_products,
    cone_divisor_scan,
    contains,
    assert_same_representation,
    evaluate_representation,
    lex_greatest,
    lex_key,
    monomial_marked_set,
    mul_term,
    multiplicative_products,
    param_variable,
    reduce_in_order,
    span_rank,
)


class TestNewMarkedSet:
    def test_twisted_is_valid(self, twisted):
        assert len(twisted.marked.elements) == 5
        assert set(twisted.marked.elements) == set(twisted.heads)

    def test_tail_term_inside_module(self, twisted):
        bad = E(LAY3, {T((1, 1, 0)): 1, T((0, 1, 1)): 1})
        elements = [
            MarkedElement(E(LAY3, {h: 1}), h) for h in twisted.heads if h != T((1, 1, 0))
        ]
        elements.append(MarkedElement(bad, T((1, 1, 0))))
        with pytest.raises(TailTermInU) as err:
            MarkedSet(twisted.basis, elements)
        assert err.value.term == T((0, 1, 1))

    def test_missing_head(self, twisted):
        elements = [
            MarkedElement(E(LAY3, {h: 1}), h)
            for h in twisted.heads
            if h != T((0, 1, 2))
        ]
        with pytest.raises(HeadMismatch) as err:
            MarkedSet(twisted.basis, elements)
        assert str(err.value) == "heads do not match the basis (missing [x2^2*x1], extra [])"

    def test_head_coefficient_must_be_one(self):
        with pytest.raises(HeadCoefficientNotOne):
            MarkedElement(
                ModuleElement(LAY3, {T((0, 0, 3)): Fraction(2)}), T((0, 0, 3))
            )


class TestReduceFull:
    def test_prolongation_with_two_summands(self, twisted):
        g4 = twisted.marked.elements[T((1, 1, 0))]
        rep = reduce_full(mul_term(g4.body, (0, 0, 1)), twisted.marked)
        assert rep.remainder.is_zero()
        assert set(rep.summands) == {
            (Fraction(1), (1, 0, 0), T((0, 1, 1))),
            (Fraction(1), (0, 0, 0), T((0, 0, 3))),
        }
        # multipliers come out lex-descending
        assert [m for _, m, _ in rep.summands] == [(1, 0, 0), (0, 0, 0)]

    def test_single_step_with_remainder(self, twisted):
        rep = reduce_full(E(LAY3, {T((1, 1, 0)): 1}), twisted.marked)
        assert rep.summands == ((Fraction(1), (0, 0, 0), T((1, 1, 0))),)
        assert rep.remainder == E(LAY3, {T((0, 0, 2)): -1})

    def test_zero_input(self, twisted):
        rep = reduce_full(ModuleElement(LAY3, {}), twisted.marked)
        assert rep.summands == ()
        assert rep.remainder.is_zero()

    def test_representation_evaluates_back(self, twisted, rng):
        for _ in range(25):
            h = random_homogeneous_element(rng, LAY3, rng.randint(2, 5))
            rep = reduce_full(h, twisted.marked)
            assert evaluate_representation(rep, twisted.marked) == h

    def test_remainder_outside_module(self, twisted, rng):
        for _ in range(10):
            h = random_homogeneous_element(rng, LAY3, rng.randint(2, 5))
            rep = reduce_full(h, twisted.marked)
            for t in rep.remainder.terms:
                assert cone_divisor_scan(twisted.basis.terms, t) is None


class TestIsMarkedBasis:
    def test_twisted(self, twisted):
        assert is_marked_basis(twisted.marked).is_basis

    def test_non_groebner(self, non_groebner):
        assert is_marked_basis(non_groebner.marked).is_basis

    def test_broken_tail_yields_certificate(self, twisted):
        bodies = {h: E(LAY3, {h: 1}) for h in twisted.heads}
        bodies[T((1, 1, 0))] = E(LAY3, {T((1, 1, 0)): 1, T((2, 0, 0)): 1})
        marked = MarkedSet(
            twisted.basis, [MarkedElement(bodies[h], h) for h in twisted.heads]
        )
        result = is_marked_basis(marked)
        assert not result.is_basis
        head, var, remainder = result.certificate
        assert head == T((1, 1, 0))
        assert var in (1, 2)
        assert not remainder.is_zero()
        # the certificate is reproducible
        el = marked.elements[head]
        shift = tuple(1 if i == var else 0 for i in range(3))
        again = reduce_full(mul_term(el.body, shift), marked)
        assert again.remainder == remainder

    def test_up_to_degree_is_inconclusive_below_bound(self, twisted):
        fresh = build_twisted_example().marked
        partial = is_marked_basis(fresh, up_to_degree=3)
        assert partial.is_basis and partial.inconclusive_beyond == 3
        conclusive = is_marked_basis(fresh, up_to_degree=4)
        assert conclusive.is_basis and conclusive.inconclusive_beyond is None


class TestContains:
    def test_prolongation_is_inside(self, twisted):
        is_marked_basis(twisted.marked)
        g4 = twisted.marked.elements[T((1, 1, 0))]
        assert contains(twisted.marked, mul_term(g4.body, (0, 0, 1)))

    def test_head_term_alone_is_not(self, twisted):
        is_marked_basis(twisted.marked)
        assert not contains(twisted.marked, E(LAY3, {T((1, 1, 0)): 1}))

    def test_zero_is_inside(self, twisted):
        is_marked_basis(twisted.marked)
        assert contains(twisted.marked, ModuleElement(LAY3, {}))

    def test_uncertified_set_refuses(self):
        fresh = build_twisted_example().marked
        with pytest.raises(NotABasis):
            contains(fresh, ModuleElement(LAY3, {}))


class TestConfluence:
    def test_random_strategies_agree(self, rng):
        for _ in range(6):
            basis = random_quasi_stable_basis(rng, 2, max_deg=3)
            marked = random_marked_set(rng, basis)
            for _ in range(4):
                h = random_homogeneous_element(
                    rng, basis.layout, rng.randint(1, basis.max_degree() + 2)
                )
                reference = reduce_full(h, marked)
                for seed in range(5):
                    chaos = random.Random(seed)
                    rep = reduce_in_order(h, marked, lambda c: chaos.choice(sorted(c)))
                    assert_same_representation(rep, reference)
                    assert evaluate_representation(rep, marked) == h

    def test_heap_order_is_the_lex_greatest_scan(self, rng, monkeypatch):
        """The heap attacks the terms a rescan for the lex-greatest term of U
        would.  Any order gives the same representation, so the steps are
        counted too: the kernel looks up one cone per term of h and one per
        term each step creates, and no other.  A target above the basis's
        packing is reduced over a copy of the set, whose tail check looks
        up each tail term once more."""
        lookups = []
        original = PommaretBasis.cone_divisor

        def counting(basis, t):
            lookups.append(t)
            return original(basis, t)

        monkeypatch.setattr(PommaretBasis, "cone_divisor", counting)
        for _ in range(6):
            basis = random_quasi_stable_basis(rng, 2, max_deg=3)
            marked = random_marked_set(rng, basis)
            for _ in range(4):
                h = random_homogeneous_element(
                    rng, basis.layout, rng.randint(1, basis.max_degree() + 2)
                )
                targets = []

                def scan(candidates):
                    targets.append(lex_greatest(candidates))
                    return targets[-1]

                expected = reduce_in_order(h, marked, scan)
                created = sum(
                    len(marked.elements[cone_divisor_scan(basis.terms, t)].body.terms) - 1
                    for t in targets
                )
                if h.degree > basis.packing.degree:
                    created += sum(len(el.body.terms) - 1 for el in marked.ordered())
                lookups.clear()
                assert_same_representation(reduce_full(h, marked), expected)
                assert len(lookups) == len(h.terms) + created


class TestRepresentationShape:
    def test_single_terms_unique_representation(self, twisted, rng):
        from marked_bases.monom import module_terms_of_degree

        for s in range(2, 6):
            for t in module_terms_of_degree(twisted.basis, s):
                rep = reduce_full(E(LAY3, {t: 1}), twisted.marked)
                assert evaluate_representation(rep, twisted.marked) == E(LAY3, {t: 1})
                mults = [m for _, m, _ in rep.summands]
                # weakly descending overall, strictly within one head
                assert all(
                    lex_key(mults[i]) >= lex_key(mults[i + 1])
                    for i in range(len(mults) - 1)
                )
                per_head = {}
                for _, m, head in rep.summands:
                    assert m not in per_head.get(head, set())
                    per_head.setdefault(head, set()).add(m)

    def test_multiplier_is_multiplicative(self, twisted, rng):
        for _ in range(20):
            h = random_homogeneous_element(rng, LAY3, rng.randint(2, 5))
            rep = reduce_full(h, twisted.marked)
            for _, mult, head in rep.summands:
                support = {i for i, x in enumerate(mult) if x}
                assert support.isdisjoint(nonmultiplicative_variables(head, 2))


class TestDecomposition:
    def test_twisted_slices(self, twisted):
        from marked_bases import complement_terms, hilbert_function

        reg = twisted.basis.max_degree()
        for s in range(reg + 3):
            columns = all_module_terms(LAY3, s)
            g_s = multiplicative_products(twisted.marked, s)
            n_s = [E(LAY3, {t: 1}) for t in complement_terms(twisted.basis, s)]
            assert len(g_s) + len(n_s) == len(columns)
            assert span_rank(g_s + n_s, columns) == len(columns)
            assert span_rank(all_products(twisted.marked, s), columns) == (
                hilbert_function(twisted.basis, s)
            )


def test_monomial_marked_set_is_basis(rng):
    for _ in range(5):
        basis = random_quasi_stable_basis(rng, 2, max_deg=3)
        assert is_marked_basis(monomial_marked_set(basis)).is_basis


def test_random_marked_basis_certifies(rng):
    for _ in range(5):
        basis = random_quasi_stable_basis(rng, 2, max_deg=3)
        marked = random_marked_basis(rng, basis)
        assert is_marked_basis(marked).is_basis


def _first_failing_prolongation(marked):
    """(head, variable, remainder) of the first prolongation, in element
    order then variable index, that a direct full reduction leaves non-zero."""
    nvars = marked.layout.nvars
    for el in marked.ordered():
        for j in nonmultiplicative_variables(el.head, marked.layout.n):
            rep = reduce_full(mul_term(el.body, var_exp(nvars, j)), marked)
            if not rep.remainder.is_zero():
                return el.head, j, rep.remainder
    return None


class TestCertificate:
    def test_broken_tail_matches_direct_reduction(self, twisted):
        bodies = {h: E(LAY3, {h: 1}) for h in twisted.heads}
        bodies[T((1, 1, 0))] = E(LAY3, {T((1, 1, 0)): 1, T((2, 0, 0)): 1})
        elements = [MarkedElement(bodies[h], h) for h in twisted.heads]
        expected = _first_failing_prolongation(MarkedSet(twisted.basis, elements))
        result = is_marked_basis(MarkedSet(twisted.basis, elements))
        assert expected is not None
        assert result.certificate == expected

    def test_random_non_bases_match_direct_reduction(self, rng):
        failures = 0
        for _ in range(12):
            basis = random_quasi_stable_basis(rng, 2, max_deg=3)
            elements = random_marked_set(rng, basis).ordered()
            expected = _first_failing_prolongation(MarkedSet(basis, elements))
            result = is_marked_basis(MarkedSet(basis, elements))
            assert result.is_basis == (expected is None)
            assert result.certificate == expected
            failures += expected is not None
        assert failures >= 3


def over_parameters(rng, h: ModuleElement, generic, degree: int) -> ModuleElement:
    """h over K[C]: each coefficient c becomes c * (1 + C_i) for a random
    parameter C_i (the constant c when there are none), and a random
    generic element times a power of x0, which is multiplicative for every
    head, is added, so that its tail terms cancel in the work element."""
    nparams = generic.nparams
    terms = {}
    for t, c in h.terms.items():
        lifted = ParamPoly.const(nparams, c)
        if nparams:
            lifted = lifted * (param_variable(nparams, rng.randrange(nparams)) + 1)
        terms[t] = lifted
    layout = h.layout
    h_params = ModuleElement(layout, terms)
    fitting = [el for el in generic.marked.ordered() if layout.term_degree(el.head) <= degree]
    if not fitting:
        return h_params
    el = rng.choice(fitting)
    shift = (degree - layout.term_degree(el.head),) + (0,) * layout.n
    total = dict(h_params.terms)
    for t, c in mul_term(el.body, shift).terms.items():
        total[t] = total.get(t, 0) + c
    return ModuleElement(layout, total)


class TestPackedKernel:
    """The kernel keys its work on packed ints; the scan oracle keys its
    work on module terms.  Both attack the lex-greatest term of U, so they
    must agree in every summand and in the remainder, down to the order in
    which the remainder's terms entered the work element.  Over K[C] the
    kernel multiply-subtracts sparse dicts in place, and the oracle keeps
    the `ParamPoly` operators: the values must still be the same."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 2), st.integers(1, 3))
    def test_matches_the_lex_greatest_scan(self, seed, n, rank):
        rng = random.Random(seed)
        basis = random_quasi_stable_module(rng, n, rank, max_deg=3, max_terms=16)
        marked = random_marked_set(rng, basis)
        generic = generic_marked_set(basis)
        top = basis.max_degree()
        # The high-degree target, between the others, is reduced over a
        # copy of the set whose basis is packed for its degree.
        degrees = [rng.randint(1, top + 2) for _ in range(3)]
        degrees.insert(rng.randint(0, 3), top + rng.randint(10, 16))
        for d in degrees:
            h = random_homogeneous_element(rng, basis.layout, d)
            cases = [(h, marked)]
            # Parameter coefficients grow fast with the degree and with the
            # number of parameters, so the generic set reduces targets up to
            # the degree of a prolongation only, and only with at most 100
            # parameters (most of these bases).
            if d <= top + 1 and generic.nparams <= 100:
                cases.append((over_parameters(rng, h, generic, d), generic.marked))
            for target, over in cases:
                expected = reduce_in_order(target, over, lex_greatest)
                got = reduce_full(target, over)
                assert_same_representation(got, expected)
                assert list(got.remainder.terms) == list(expected.remainder.terms)
                assert got.remainder.degree == expected.remainder.degree
                for c, _, _ in got.summands:
                    assert_rule(c, "summand")
                for c in got.remainder.terms.values():
                    assert_rule(c, "remainder")

    @pytest.mark.parametrize("domain", ["Q", "K[C]"])
    def test_certificate_refuses_a_multiplier_that_does_not_descend(self, twisted, domain):
        """A tail term that is itself a head recreates the multiplier just
        used, which a valid marked set never does; the certificate must
        refuse equality, not only growth, over either coefficient domain."""
        one = tail = 1
        elements = twisted.marked.ordered()
        if domain == "K[C]":
            generic = generic_marked_set(twisted.basis)
            one = ParamPoly.const(generic.nparams, 1)
            tail = param_variable(generic.nparams, 0)
            elements = generic.marked.ordered()
        marked = MarkedSet(twisted.basis, elements)
        head = T((1, 1, 0))
        # Forged past the tail check: the element and the packed body the
        # kernel reads, its one body store over either domain, are replaced.
        marked.elements[head] = MarkedElement(
            ModuleElement(LAY3, {head: one, T((0, 2, 0)): tail}), head
        )
        pack = twisted.basis.packing.pack
        marked.packed_bodies[pack(head)] = (head, (pack(T((0, 2, 0))),), (tail,))
        assert (marked.nparams is not None) == (domain == "K[C]")
        with pytest.raises(InternalNonTermination, match="created multiplier"):
            reduce_full(ModuleElement(LAY3, {T((2, 1, 0)): one}), marked)

    def test_packing_and_memo_outlive_a_high_target(self, twisted, rng):
        """Two marked sets over one basis share its packing and its cone
        memo, keyed by packed ints.  A target of degree max_degree() + 10,
        reduced and split with `complement_terms`, replaces neither and
        drops no memo entry, and every reduction agrees with the oracle."""
        basis = twisted.basis
        first = MarkedSet(basis, twisted.marked.ordered())
        second = random_marked_set(rng, basis)
        small = random_homogeneous_element(rng, LAY3, 4)
        reduce_full(small, first)
        reduce_full(small, second)
        packing = basis.packing
        keys = set(basis._cone_cache)
        assert keys and all(type(k) is int for k in keys)
        degree = basis.max_degree() + 10
        assert degree > packing.degree
        assert complement_terms(basis, degree) == tuple(sorted(
            t for t in all_module_terms(LAY3, degree) if cone_divisor_scan(basis.terms, t) is None
        ))
        big = random_homogeneous_element(rng, LAY3, degree)
        for marked in (first, second, first):
            for h in (big, small):
                got = reduce_full(h, marked)
                expected = reduce_in_order(h, marked, lex_greatest)
                assert_same_representation(got, expected)
                assert list(got.remainder.terms) == list(expected.remainder.terms)
        assert basis.packing is packing
        assert keys <= set(basis._cone_cache)


class TestTwoEntryPoints:
    """`prolongation_rep` shifts the packed body of an element and hands its
    summands over packed, to be unpacked on the first read; `reduce_full`
    packs the element that `oracles.mul_term` shifts term by term.  Both
    must give the same representation: the summands and the remainder's
    terms in the same order, with coefficients of the same types (int,
    Fraction, ParamPoly)."""

    @staticmethod
    def agree(marked) -> int:
        """Compares the two on every prolongation of a fresh copy of
        `marked`, whose memo is empty; every prolongation is reduced before
        any summand is read.  Returns the number of prolongations."""
        fresh = MarkedSet(marked.basis, marked.ordered())
        nvars = fresh.layout.nvars
        jobs = list(prolongations(fresh))
        reps = [prolongation_rep(fresh, head, j) for head, j in jobs]
        for (head, j), rep in zip(jobs, reps):
            ref = reduce_full(mul_term(fresh.elements[head].body, var_exp(nvars, j)), fresh)
            summands = rep.summands
            assert rep.summands is summands
            assert [(type(c), c, m, h) for c, m, h in summands] == [
                (type(c), c, m, h) for c, m, h in ref.summands
            ]
            assert [(t, type(c), c) for t, c in rep.remainder.terms.items()] == [
                (t, type(c), c) for t, c in ref.remainder.terms.items()
            ]
            assert rep.remainder.degree == ref.remainder.degree
        return len(jobs)

    @pytest.mark.parametrize("seed", [1, 7])
    def test_random_sets_of_the_survey_cases(self, seed):
        rng = random.Random(seed)
        bases = survey_bases(seed, 60)
        assert any(basis.layout.rank == 2 for basis in bases)
        walked = sum(self.agree(random_marked_basis(rng, basis)) for basis in bases)
        assert walked > 0

    @pytest.mark.parametrize("name", ["C1", "C5"])
    def test_generic_sets_over_parameters(self, name):
        n, weights, gens, degree = FAMILY_CORPUS[name]
        module = MonomialModule(FreeModuleLayout(n, weights), [T(e, k) for e, k in gens])
        generic = generic_marked_set(truncate_basis(pommaret_completion(module), degree))
        assert generic.nparams
        assert self.agree(generic.marked) > 0
