import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from marked_bases import (
    FreeModuleLayout,
    MonomialModule,
    NotQuasiStable,
    PommaretBasis,
    StabilityClass,
    basis_invariants,
    complement_rank,
    complement_terms,
    hilbert_function,
    is_pommaret_basis,
    nonmultiplicative_variables,
    pommaret_completion,
    quasi_stability_witness,
    stability_class,
    truncate_basis,
)
from marked_bases import monom as monom_module
from marked_bases.cli import main
from marked_bases.monom import (
    ConeIndex,
    _complete_component,
    _quasi_stable_witness,
    certified_basis,
    minimalize,
    module_terms_of_degree,
)
from marked_bases.ring import InternalError, TermPacking
from marked_bases.randgen import random_quasi_stable_basis, random_quasi_stable_exponents
from conftest import LAY3, T, TWISTED_MINIMAL_DOC, cone_divisor_of
from samplers import random_quasi_stable_module
from oracles import (
    all_module_terms,
    brute_hilbert,
    colon_saturation_basis,
    complete_component_scan,
    completion_without_fast_path,
    cone_divisor_scan,
    covering_scan,
    ideal_slice,
    is_pommaret_basis_scan,
    is_stable_scan,
    module_slice,
    quasi_stable_witness_scan,
    rho,
    saturate,
)

LAY2 = FreeModuleLayout(1)
SRC = str(Path(__file__).resolve().parent.parent / "src")


def multiplicative_variables(t, n: int) -> set[int]:
    """The Pommaret-multiplicative variables of t: all but the
    non-multiplicative ones."""
    return set(range(n + 1)) - set(nonmultiplicative_variables(t, n))


class TestMultiplicativeVariables:
    def test_mixed_term(self):
        assert multiplicative_variables(T((1, 1, 0)), 2) == {0}

    def test_top_power(self):
        assert multiplicative_variables(T((0, 0, 3)), 2) == {0, 1, 2}

    def test_smallest_variable(self):
        assert multiplicative_variables(T((1, 0, 0)), 2) == {0}

    def test_constant_has_all(self):
        assert multiplicative_variables(T((0, 0, 0)), 2) == {0, 1, 2}


class TestConeDivisor:
    def test_multiplicative_multiple(self, twisted):
        assert cone_divisor_of(twisted.basis, T((0, 1, 3))) == T((0, 0, 3))

    def test_outside_module(self, twisted):
        assert cone_divisor_of(twisted.basis, T((2, 0, 0))) is None

    def test_deep_in_cone(self, twisted):
        assert cone_divisor_of(twisted.basis, T((5, 1, 0))) == T((1, 1, 0))

    def test_unique_divisor_on_slices(self, twisted):
        for s in range(2, 7):
            for t in module_terms_of_degree(twisted.basis, s):
                hits = [
                    g
                    for g in twisted.basis.terms
                    if g.comp == t.comp
                    and cone_divisor_of(PommaretBasis(LAY3, frozenset({g}), certified=True), t)
                ]
                assert len(hits) == 1


class TestIsPommaretBasis:
    def test_twisted_heads(self, twisted):
        assert is_pommaret_basis(twisted.heads, LAY3)

    def test_single_mixed_term_fails(self):
        assert not is_pommaret_basis([T((1, 1))], LAY2)

    def test_irrelevant_ideal(self):
        assert is_pommaret_basis([T((1, 0, 0)), T((0, 1, 0)), T((0, 0, 1))], LAY3)


class TestCompletion:
    def test_twisted_minimal_generators(self, twisted):
        module = MonomialModule(
            LAY3, [T((0, 1, 1)), T((1, 1, 0)), T((0, 2, 0)), T((0, 0, 3))]
        )
        basis = pommaret_completion(module)
        assert basis.terms == frozenset(twisted.heads)
        assert basis.certified

    def test_not_quasi_stable(self):
        with pytest.raises(NotQuasiStable) as err:
            pommaret_completion(MonomialModule(LAY2, [T((1, 1))]))
        assert err.value.witness == T((1, 1))
        assert err.value.variable == 1

    def test_principal_top_variable(self):
        basis = pommaret_completion(MonomialModule(LAY3, [T((0, 0, 1))]))
        assert basis.terms == frozenset({T((0, 0, 1))})

    def test_generates_same_module(self, rng):
        for _ in range(10):
            basis = random_quasi_stable_basis(rng, 2, max_deg=3)
            gens = minimalize(e for e, _ in basis.terms)
            reg = basis.max_degree()
            for s in range(reg + 3):
                assert {t.exp for t in module_terms_of_degree(basis, s)} == ideal_slice(
                    gens, 3, s
                )

    def test_completion_output_is_basis(self, rng):
        for _ in range(10):
            basis = random_quasi_stable_basis(rng, 3, max_deg=3)
            assert is_pommaret_basis(basis.terms, basis.layout)

    def test_completion_size_limit_counts_the_terms_exactly(self, monkeypatch):
        """The completion is refused as soon as its basis passes
        `TERM_LIMIT`: a limit equal to the size of the completed basis lets
        it through, and one term less refuses it."""
        gens = {(0, 5, 0, 0), (0, 0, 5, 0), (0, 0, 0, 5)}
        size = len(_complete_component(set(gens), 4))
        monkeypatch.setattr(monom_module, "TERM_LIMIT", size)
        assert len(_complete_component(set(gens), 4)) == size
        monkeypatch.setattr(monom_module, "TERM_LIMIT", size - 1)
        with pytest.raises(monom_module.TooLarge, match=f"more than the {size - 1} terms"):
            _complete_component(set(gens), 4)


class TestStabilityClass:
    def test_not_quasi_stable(self):
        module = MonomialModule(LAY2, [T((1, 1))])
        cls, refusal = stability_class(module)
        assert cls == StabilityClass.NOT_QUASI_STABLE
        assert (refusal.witness, refusal.variable) == quasi_stability_witness(module)

    def test_twisted_is_quasi_stable_not_stable(self):
        module = MonomialModule(
            LAY3, [T((0, 1, 1)), T((1, 1, 0)), T((0, 2, 0)), T((0, 0, 3))]
        )
        assert stability_class(module) == (StabilityClass.QUASI_STABLE, None)

    def test_irrelevant_ideal_stable(self):
        module = MonomialModule(LAY3, [T((1, 0, 0)), T((0, 1, 0)), T((0, 0, 1))])
        assert stability_class(module) == (StabilityClass.STABLE, None)

    def test_stable_iff_completion_adds_nothing(self, rng):
        for _ in range(8):
            basis = random_quasi_stable_basis(rng, 2, max_deg=3)
            gens = minimalize(e for e, _ in basis.terms)
            module = MonomialModule(LAY3, [T(g) for g in gens])
            cls, _ = stability_class(module)
            added = basis.terms != frozenset(T(g) for g in gens)
            assert (cls == StabilityClass.STABLE) == (not added)

    def test_matches_the_exchange_scan(self):
        """The completion's verdict against the definition of stability,
        componentwise, on random quasi-stable modules of ranks 1-3."""
        rng = random.Random(12)
        seen = set()
        for _ in range(48):
            nvars, rank = rng.randint(2, 4), rng.randint(1, 3)
            layout = FreeModuleLayout(nvars - 1, (0,) * rank)
            module = MonomialModule(layout, [
                T(g, k)
                for k in range(1, rank + 1)
                for g in random_quasi_stable_exponents(rng, nvars, max_deg=3)
            ])
            stable = all(
                is_stable_scan(module.component(k), nvars) for k in range(1, rank + 1)
            )
            cls, _ = stability_class(module)
            assert cls == (StabilityClass.STABLE if stable else StabilityClass.QUASI_STABLE)
            seen.add(cls)
        assert seen == {StabilityClass.STABLE, StabilityClass.QUASI_STABLE}


exponent_sets = st.integers(2, 4).flatmap(
    lambda nvars: st.tuples(
        st.just(nvars),
        st.frozensets(st.tuples(*[st.integers(0, 3)] * nvars), min_size=1, max_size=5),
    )
)


class TestQuasiStableWitness:
    """The per-generator witness test against the plain scan in oracles.py."""

    @settings(max_examples=300, deadline=None)
    @given(exponent_sets, st.booleans())
    def test_matches_scan(self, case, minimal):
        nvars, gens = case
        if minimal:
            gens = minimalize(gens)
        assert _quasi_stable_witness(gens, nvars) == quasi_stable_witness_scan(gens, nvars)

    def test_both_verdicts_occur_and_agree(self, rng):
        verdicts = []
        for _ in range(60):
            nvars = rng.randint(2, 4)
            if rng.random() < 0.5:
                gens = random_quasi_stable_exponents(rng, nvars, 3)
            else:
                gens = minimalize(
                    tuple(rng.randint(0, 3) for _ in range(nvars))
                    for _ in range(rng.randint(1, 4))
                )
            witness = _quasi_stable_witness(gens, nvars)
            assert witness == quasi_stable_witness_scan(gens, nvars)
            verdicts.append(witness is None)
        assert any(verdicts) and not all(verdicts)


class TestInvariants:
    def test_twisted(self, twisted):
        inv = basis_invariants(twisted.basis)
        assert inv.regularity == 3
        assert inv.satiety == 2
        assert inv.projective_dimension == 2
        assert inv.D == 0
        assert not inv.saturated

    def test_principal_power(self):
        basis = pommaret_completion(MonomialModule(LAY3, [T((0, 0, 4))]))
        inv = basis_invariants(basis)
        assert inv.regularity == 4
        assert inv.projective_dimension == 0
        assert inv.satiety == 0 and inv.saturated

    def test_non_groebner_regularity(self, non_groebner):
        assert basis_invariants(non_groebner.basis).regularity == 3


class TestColonSaturation:
    def test_twisted_saturation(self, twisted):
        weak = colon_saturation_basis(twisted.basis, 0)
        assert weak == frozenset(
            {(0, 1, 0), (0, 0, 3), (0, 1, 2), (0, 1, 1), (0, 2, 0)}
        )
        assert minimalize(weak) == frozenset({(0, 1, 0), (0, 0, 3)})
        sat = saturate(twisted.basis)
        assert minimalize(e for e, _ in sat.terms) == frozenset(
            {(0, 1, 0), (0, 0, 3)}
        )

    def test_saturated_ideal_unchanged(self):
        basis = pommaret_completion(MonomialModule(LAY3, [T((0, 1, 0)), T((0, 0, 3))]))
        weak = colon_saturation_basis(basis, 0)
        assert weak == frozenset(e for e, _ in basis.terms)

    def test_full_colon_gives_unit(self):
        basis = pommaret_completion(MonomialModule(LAY3, [T((0, 0, 1))]))
        assert colon_saturation_basis(basis, 2) == frozenset({(0, 0, 0)})


class TestTruncate:
    def test_principal_line(self):
        basis = pommaret_completion(MonomialModule(LAY2, [T((0, 1))]))
        cut = truncate_basis(basis, 2)
        assert cut.terms == frozenset({T((0, 2)), T((1, 1))})

    def test_degree_zero_keeps_everything(self, twisted):
        assert truncate_basis(twisted.basis, 0).terms == twisted.basis.terms

    def test_twisted_at_regularity(self, twisted):
        cut = truncate_basis(twisted.basis, 3)
        expected = {t for t in module_terms_of_degree(twisted.basis, 3)}
        assert cut.terms == frozenset(expected)
        assert len(cut.terms) == 7

    def test_size_limit_counts_the_terms_exactly(self, monkeypatch, rng):
        """The count made before building equals the size of the output: a
        limit equal to the size of a truncation lets it through, and one
        term less refuses it."""
        for _ in range(8):
            basis = random_quasi_stable_module(rng, 2, rng.randint(1, 2))
            m = basis.max_degree() + rng.randint(-1, 3)
            size = len(truncate_basis(basis, m).terms)
            monkeypatch.setattr(monom_module, "TERM_LIMIT", size)
            assert len(truncate_basis(basis, m).terms) == size
            monkeypatch.setattr(monom_module, "TERM_LIMIT", size - 1)
            with pytest.raises(monom_module.TooLarge, match=f"at degree {m} has {size} terms"):
                truncate_basis(basis, m)
            monkeypatch.undo()

    def test_truncation_stays_certified(self, rng):
        for _ in range(8):
            basis = random_quasi_stable_basis(rng, 2, max_deg=3)
            m = rng.randint(0, basis.max_degree() + 1)
            cut = truncate_basis(basis, m)
            assert is_pommaret_basis(cut.terms, basis.layout)
            reg = basis.max_degree()
            if m >= reg:
                # at or past the regularity the basis is the full slice
                assert cut.terms == frozenset(module_terms_of_degree(basis, m))
            for s in range(m, reg + 2):
                assert {t for t in module_terms_of_degree(cut, s)} == {
                    t for t in module_terms_of_degree(basis, s)
                }


class TestRho:
    def test_twisted_values(self, twisted):
        assert rho(twisted.basis, 1) == 3  # x2^2*x1
        assert rho(twisted.basis, 2) == 3  # x2^3

    def test_missing_variable(self):
        basis = pommaret_completion(MonomialModule(LAY3, [T((0, 0, 4))]))
        assert rho(basis, 1) == 0


class TestHilbert:
    def test_twisted_degree_three(self, twisted):
        assert hilbert_function(twisted.basis, 3) == 7

    def test_below_generators(self, twisted):
        assert hilbert_function(twisted.basis, 1) == 0

    def test_irrelevant_ideal(self):
        basis = pommaret_completion(
            MonomialModule(LAY3, [T((1, 0, 0)), T((0, 1, 0)), T((0, 0, 1))])
        )
        assert hilbert_function(basis, 1) == 3

    def test_matches_enumeration(self, rng):
        for _ in range(8):
            basis = random_quasi_stable_basis(rng, 2, max_deg=4)
            for s in range(basis.max_degree() + 4):
                assert hilbert_function(basis, s) == brute_hilbert(
                    basis.terms, basis.layout, s
                )
                assert complement_rank(basis, s) == len(complement_terms(basis, s))

    def test_module_case(self, rng):
        basis = random_quasi_stable_module(rng, 2, rank=2, max_deg=2)
        for s in range(basis.max_degree() + 3):
            assert hilbert_function(basis, s) == brute_hilbert(
                basis.terms, basis.layout, s
            )


def test_unit_ideal_is_its_own_basis():
    basis = pommaret_completion(MonomialModule(LAY2, [T((0, 0))]))
    assert basis.terms == frozenset({T((0, 0))})
    assert hilbert_function(basis, 3) == 4  # the whole degree-3 slice
    assert complement_terms(basis, 3) == ()


def test_disjoint_cover_on_random_inputs(rng):
    for _ in range(6):
        basis = random_quasi_stable_basis(rng, 2, max_deg=3)
        reg = basis.max_degree()
        for s in range(reg + 4):
            for t in module_terms_of_degree(basis, s):
                assert cone_divisor_of(basis, t) is not None
            for t in complement_terms(basis, s):
                assert cone_divisor_of(basis, t) is None
            outside = set(all_module_terms(basis.layout, s)) - module_slice(
                basis.terms, basis.layout, s
            )
            assert set(complement_terms(basis, s)) == outside


def test_degree_split_once_per_basis_in_listing_order(monkeypatch, rng):
    """Each degree is enumerated once per basis, for both of its lists, which
    are tuples in listing order; every call hands out the same tuple."""
    real = monom_module.terms_of_degree
    degrees = []

    def counting(nvars, d):
        degrees.append(d)
        return real(nvars, d)

    monkeypatch.setattr(monom_module, "terms_of_degree", counting)
    for basis in random_pommaret_bases(rng, 8):
        layout = basis.layout
        key = lambda t: (layout.term_degree(t), t.exp, t.comp)  # listing_key
        for s in range(basis.max_degree() + 2):
            degrees.clear()
            inside = module_terms_of_degree(basis, s)
            outside = complement_terms(basis, s)
            assert type(inside) is tuple and type(outside) is tuple
            assert list(inside) == sorted(inside, key=key)
            assert list(outside) == sorted(outside, key=key)
            assert set(inside) | set(outside) == set(all_module_terms(layout, s))
            enumerated = len(degrees)
            assert enumerated <= layout.rank
            assert complement_terms(basis, s) is outside
            assert module_terms_of_degree(basis, s) is inside
            assert list(inside) == sorted(module_slice(basis.terms, layout, s), key=key)
            assert len(degrees) == enumerated


def test_degree_split_size_limit_counts_the_terms_exactly(monkeypatch, twisted):
    """The split of a degree counts the terms of that degree before it
    enumerates any: a limit equal to their number lets the split through,
    and one term less refuses it."""
    for s in (3, 6):
        size = len(all_module_terms(LAY3, s))
        monkeypatch.setattr(monom_module, "TERM_LIMIT", size)
        basis = certified_basis(twisted.basis.terms, LAY3)
        assert len(module_terms_of_degree(basis, s)) + len(complement_terms(basis, s)) == size
        monkeypatch.setattr(monom_module, "TERM_LIMIT", size - 1)
        basis = certified_basis(twisted.basis.terms, LAY3)
        with pytest.raises(monom_module.TooLarge, match=f"degree {s} has {size} terms"):
            complement_terms(basis, s)


# ---------- the cone index against the scans it replaced ----------


@st.composite
def term_sets(draw):
    """A layout with 2-5 variables and 1-3 components, and a term set on it:
    a few exponents (the zero exponent among them half the time), each put
    in one or more components, so equal exponents in different components
    occur.  Most such sets are not Pommaret bases."""
    nvars = draw(st.integers(2, 5))
    rank = draw(st.integers(1, 3))
    exps = draw(st.lists(st.tuples(*[st.integers(0, 3)] * nvars), min_size=1, max_size=6))
    if draw(st.booleans()):
        exps.append((0,) * nvars)
    terms = set()
    for e in exps:
        for k in draw(st.sets(st.integers(1, rank), min_size=1)):
            terms.add(T(e, k))
    return FreeModuleLayout(nvars - 1, (0,) * rank), frozenset(terms)


def probe_terms(layout, terms, extra):
    """Each term, each of its prolongations by one variable, and `extra`."""
    out = set(terms) | set(extra)
    for t in terms:
        for j in range(layout.nvars):
            out.add(T(tuple(x + (i == j) for i, x in enumerate(t.exp)), t.comp))
    return out


def random_pommaret_bases(rng, count):
    """Completions of random quasi-stable ideals and modules."""
    for i in range(count):
        if i % 2:
            yield random_quasi_stable_module(rng, rng.randint(1, 3), rank=rng.randint(1, 3))
        else:
            yield random_quasi_stable_basis(rng, rng.randint(1, 4), max_deg=3)


class TestConeIndex:
    """`ConeIndex`, the structural test and the completion against the
    vertex scans in oracles.py."""

    @settings(max_examples=300, deadline=None)
    @given(term_sets(), st.data())
    def test_find_matches_scan(self, case, data):
        """`find` is None exactly when no vertex's cone holds the term, and
        otherwise one of the vertices whose cones do."""
        layout, terms = case
        extra = data.draw(st.lists(
            st.builds(T, st.tuples(*[st.integers(0, 4)] * layout.nvars),
                      st.integers(1, layout.rank)),
            max_size=8,
        ))
        probes = probe_terms(layout, terms, extra)
        packing = TermPacking(layout, max(layout.term_degree(t) for t in probes))
        index = ConeIndex(packing)
        for t in terms:
            index.add(packing.pack(t))
        for t in probes:
            covering = covering_scan(terms, t)
            found = index.find(packing.pack(t))
            assert (found is None) == (not covering)
            assert found is None or packing.unpack(found) in covering

    @settings(max_examples=300, deadline=None)
    @given(term_sets())
    def test_structural_test_matches_scan(self, case):
        """`certified_basis` returns None exactly when the scan rejects the
        terms, and otherwise a basis that keeps the index of the test, and
        its packing, one degree above the largest term."""
        layout, terms = case
        verdict = is_pommaret_basis_scan(terms, layout)
        assert is_pommaret_basis(terms, layout) == verdict
        basis = certified_basis(terms, layout)
        assert (basis is not None) == verdict
        if basis is not None:
            assert basis.certified and basis.terms == terms
            cones = basis._cones
            assert basis.packing is cones.packing
            assert basis.packing.degree == basis.max_degree() + 1
            assert basis._cones is cones

    def test_term_in_a_lower_degree_cone_is_rejected(self):
        """In ring 2, x1*x0 lies in the cone of x1, which is filed first
        whatever order the terms come in; without x1*x0 the prolongation
        x1*x0 of x0 is covered."""
        x1, x1x0, x0 = T((0, 1)), T((1, 1)), T((1, 0))
        for terms in ([x1x0, x1], [x1, x1x0], [x1x0, x0, x1]):
            assert certified_basis(terms, LAY2) is None
            assert not is_pommaret_basis_scan(terms, LAY2)
        assert certified_basis([x0, x1], LAY2) is not None

    def test_structural_test_on_bases_and_broken_bases(self, rng):
        verdicts = []
        for basis in random_pommaret_bases(rng, 20):
            terms = set(basis.terms)
            assert is_pommaret_basis(terms, basis.layout)
            assert is_pommaret_basis_scan(terms, basis.layout)
            # Dropping or adding a term mostly breaks the cover.
            victim = sorted(terms)[rng.randrange(len(terms))]
            moved = T(tuple(x + 1 for x in victim.exp), victim.comp)
            for broken in (terms - {victim}, terms | {moved}):
                verdict = is_pommaret_basis(broken, basis.layout)
                assert verdict == is_pommaret_basis_scan(broken, basis.layout)
                verdicts.append(verdict)
        assert not all(verdicts)

    def test_cone_divisor_matches_scan(self, rng):
        lookups = 0
        for basis in random_pommaret_bases(rng, 20):
            layout = basis.layout
            extra = [
                T(tuple(rng.randint(0, 4) for _ in range(layout.nvars)),
                  rng.randint(1, layout.rank))
                for _ in range(30)
            ]
            for t in probe_terms(layout, basis.terms, extra):
                assert cone_divisor_of(basis, t) == cone_divisor_scan(basis.terms, t)
                lookups += 1
        assert lookups > 500

    @settings(max_examples=200, deadline=None)
    @given(exponent_sets, st.integers(0, 2**32 - 1))
    def test_completion_matches_scan(self, case, seed):
        """The drawn ideal if it is quasi-stable (else its completion would
        not end), otherwise a random quasi-stable ideal in as many variables."""
        nvars, gens = case
        gens = minimalize(gens)
        if _quasi_stable_witness(gens, nvars) is not None:
            gens = random_quasi_stable_exponents(random.Random(seed), nvars, 3)
        assert _complete_component(set(gens), nvars) == complete_component_scan(gens, nvars)

    def test_completion_files_one_index(self, monkeypatch):
        """(x1^5, x2^5, x3^5) completes up to degree 13, and the completion
        files its one index up front, packed for deg lcm + 1 = 16."""
        built = []

        class Counting(ConeIndex):
            __slots__ = ()

            def __init__(self, packing, vertices=()):
                built.append(packing.degree)
                super().__init__(packing, vertices)

        monkeypatch.setattr(monom_module, "ConeIndex", Counting)
        gens = {(0, 5, 0, 0), (0, 0, 5, 0), (0, 0, 0, 5)}
        completed = _complete_component(set(gens), 4)
        assert max(map(sum, completed)) == 13
        assert built == [16]
        assert completed == complete_component_scan(gens, 4)

    @pytest.mark.parametrize("slack", [0, -1])
    def test_completion_refuses_a_prolongation_beyond_its_bound(self, monkeypatch, slack):
        """With its packing forced to the degree 14 of the largest
        prolongation of (x1^5, x2^5, x3^5) the completion still ends; one
        degree less, and the prolongation that outgrows it is refused."""
        gens = {(0, 5, 0, 0), (0, 0, 5, 0), (0, 0, 0, 5)}

        class Forced(TermPacking):
            __slots__ = ()

            def __init__(self, layout, degree):
                super().__init__(layout, 14 + slack)

        monkeypatch.setattr(monom_module, "TermPacking", Forced)
        if slack:
            with pytest.raises(InternalError, match="a prolongation of degree 14 outgrows"):
                _complete_component(set(gens), 4)
        else:
            assert _complete_component(set(gens), 4) == complete_component_scan(gens, 4)

    def test_completion_of_random_quasi_stable_ideals(self, rng):
        grew = 0
        for _ in range(40):
            nvars = rng.randint(2, 5)
            gens = random_quasi_stable_exponents(rng, nvars, 3)
            completed = _complete_component(set(gens), nvars)
            assert completed == complete_component_scan(gens, nvars)
            grew += completed != set(gens)
        assert grew


LISTINGS = ("basis", "minimal", "redundant", "basis and redundant", "basis less one")


def listed_terms(basis, listing, rng):
    """Terms that generate the module of `basis`, or a module close to it:
    its Pommaret basis, its minimal generators, either with multiples of
    their own terms added, or the basis with one term dropped; shuffled."""
    gens = [
        T(e, k) for k in range(1, basis.layout.rank + 1)
        for e in minimalize(t.exp for t in basis.terms if t.comp == k)
    ]
    terms = list(basis.terms) if listing.startswith("basis") else gens
    if "redundant" in listing:
        for t in rng.sample(terms, k=min(3, len(terms))):
            e = list(t.exp)
            e[rng.randrange(len(e))] += rng.randint(1, 2)
            terms.append(T(e, t.comp))
    if listing == "basis less one":
        terms.remove(rng.choice(terms))
    rng.shuffle(terms)
    return terms


def completion_outcome(module, complete=lambda m: pommaret_completion(m).terms):
    """The completed terms in their iteration order, or the witness of the
    refusal."""
    try:
        return list(complete(module))
    except NotQuasiStable as exc:
        return exc.witness, exc.variable


class TestCompletionFastPath:
    """A listed Pommaret basis is returned as the completion, and iterates as
    the full completion does (`completion_without_fast_path` in oracles.py);
    any other input gets the full completion, or its refusal."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.sampled_from(LISTINGS))
    def test_equals_the_full_completion(self, seed, rank, listing):
        rng = random.Random(seed)
        basis = random_quasi_stable_module(rng, rng.randint(1, 3), rank)
        module = MonomialModule(basis.layout, listed_terms(basis, listing, rng))
        outcome = completion_outcome(module)
        assert outcome == completion_outcome(module, completion_without_fast_path)
        if listing == "basis":
            assert set(outcome) == basis.terms

    @settings(max_examples=200, deadline=None)
    @given(term_sets())
    def test_refusals_carry_the_same_witness(self, case):
        """Arbitrary term sets, mostly not quasi-stable."""
        layout, terms = case
        module = MonomialModule(layout, terms)
        assert completion_outcome(module) == completion_outcome(
            module, completion_without_fast_path
        )

    def test_listed_basis_skips_the_scan_and_the_completion(self, monkeypatch, rng):
        def refuse(*args):
            raise AssertionError("the fast path ran the full completion")

        bases = list(random_pommaret_bases(rng, 10))
        monkeypatch.setattr(monom_module, "_quasi_stable_witness", refuse)
        monkeypatch.setattr(monom_module, "_complete_component", refuse)
        for basis in bases:
            terms = sorted(basis.terms)
            rng.shuffle(terms)
            assert pommaret_completion(MonomialModule(basis.layout, terms)).terms == basis.terms


def _drop_last_added(complete):
    """Wraps `_complete_component` to lose the last term it added."""
    def broken(exps, nvars):
        out = complete(exps, nvars)
        added = out - set(exps)
        if added:
            out.discard(max(added, key=lambda e: (sum(e), e)))
        return out
    return broken


TWISTED_GENERATORS = [T((0, 1, 1)), T((1, 1, 0)), T((0, 2, 0)), T((0, 0, 3))]


class TestSelfChecksRaise:
    """The structural re-checks raise `InternalError`, so `python -O`
    keeps them (scripts/tier1.sh runs this file under -O as well)."""

    def test_completion_that_loses_a_term(self, monkeypatch):
        monkeypatch.setattr(
            monom_module, "_complete_component",
            _drop_last_added(monom_module._complete_component),
        )
        with pytest.raises(InternalError, match="not a Pommaret basis"):
            pommaret_completion(MonomialModule(LAY3, TWISTED_GENERATORS))

    def test_truncation_that_loses_a_term(self, monkeypatch, twisted):
        real = monom_module.terms_of_degree

        def short(nvars, d):
            # Loses x_top^d * t, which the prolongation of x_(top-1) *
            # x_top^(d-1) * t by x_top needs as its cone.
            return list(real(nvars, d))[:-1]

        monkeypatch.setattr(monom_module, "terms_of_degree", short)
        with pytest.raises(InternalError, match="truncation lost the cone cover"):
            truncate_basis(twisted.basis, 4)

    def test_cli_reports_the_failed_check(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setattr(
            monom_module, "_complete_component",
            _drop_last_added(monom_module._complete_component),
        )
        # Minimal generators only: a listed Pommaret basis would skip the
        # completion that the patch breaks.
        path = tmp_path / "twisted-minimal.mb"
        path.write_text(TWISTED_MINIMAL_DOC)
        assert main(["pommaret", str(path)]) == 3  # exit code of InternalError
        out = capsys.readouterr()
        assert "not a Pommaret basis" in out.out
        assert "Traceback" not in out.out + out.err

    def test_survives_python_O(self):
        script = (
            "from marked_bases import monom, MonomialModule, FreeModuleLayout, ModuleTerm\n"
            "from marked_bases.ring import InternalError\n"
            "assert False, 'asserts run'\n"
        )
        probe = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert probe.returncode == 0, probe.stderr  # asserts are really off
        script += (
            "real = monom._complete_component\n"
            "def broken(exps, nvars):\n"
            "    out = real(exps, nvars)\n"
            "    out.discard(max(out - set(exps), key=lambda e: (sum(e), e)))\n"
            "    return out\n"
            "monom._complete_component = broken\n"
            "gens = [(0, 1, 1), (1, 1, 0), (0, 2, 0), (0, 0, 3)]\n"
            "module = MonomialModule(FreeModuleLayout(2), [ModuleTerm(g, 1) for g in gens])\n"
            "try:\n"
            "    monom.pommaret_completion(module)\n"
            "except InternalError as exc:\n"
            "    print('raised:', exc)\n"
        )
        run = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.startswith("raised: the completion is not a Pommaret basis")
