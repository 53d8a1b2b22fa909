"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines;
every expected value is exact (rational arithmetic throughout), and the
stated runtime budgets are asserted with time.perf_counter.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from marked_bases import (
    FreeModuleLayout,
    MarkedElement,
    MarkedSet,
    ModuleElement,
    PommaretBasis,
    basis_invariants,
    family_equations,
    free_resolution,
    generic_marked_set,
    hilbert_function,
    invariant_bounds,
    is_marked_basis,
    minimize_resolution,
    complement_terms,
    parse_document,
    pommaret_completion,
    predicted_ranks,
    reduce_full,
    specialize,
    syzygy_marked_basis,
    truncate_basis,
    verify_complex,
)
from marked_bases.monom import MonomialModule, minimalize
from marked_bases.randgen import random_marked_basis, random_marked_set, random_quasi_stable_basis
from marked_bases.ring import min_index
from conftest import E, NON_GROEBNER_DOC, T, TWISTED_DOC
from samplers import (
    random_homogeneous_element,
    random_quasi_stable_module,
    random_saturated_basis,
)
from oracles import (
    all_module_terms,
    all_products,
    assert_same_representation,
    evaluate,
    evaluate_representation,
    monomial_marked_set,
    multiplicative_products,
    param_variable,
    reduce_in_order,
    regularity_oracle,
    satiety_oracle,
    span_rank,
    tails_respect_min_variable,
    triangular_representation,
    vanishes_at,
    x0_heads_are_divisible,
)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({label}): PASS")


def _marked_from_doc(doc_text):
    doc = parse_document(doc_text)
    raw = next(iter(doc.marked.values()))
    heads = [h for _, h in raw.elements]
    basis = PommaretBasis(doc.layout, frozenset(heads), certified=True)
    return MarkedSet(basis, [MarkedElement(b, h) for b, h in raw.elements])


def test_criterion_1_twisted_example_end_to_end():
    with criterion(1, "worked example, length-two resolution"):
        start = time.perf_counter()
        marked = _marked_from_doc(TWISTED_DOC)
        assert is_marked_basis(marked).is_basis

        syz, _ = syzygy_marked_basis(marked)
        lay5 = syz.layout
        expected = [
            {T((0, 0, 1), 2): 1, T((0, 1, 0), 1): -1},
            {T((0, 0, 1), 3): 1, T((0, 0, 0), 2): -1},
            {T((0, 1, 0), 4): 1, T((1, 0, 0), 5): -1, T((0, 0, 0), 2): -1},
            {T((0, 0, 1), 4): 1, T((1, 0, 0), 3): -1, T((0, 0, 0), 1): -1},
            {T((0, 0, 1), 5): 1, T((0, 1, 0), 3): -1},
        ]
        got = [el.body for el in syz.ordered()]
        for body, terms in zip(got, expected):
            reference = E(lay5, terms)
            assert body == reference or body == -reference
        assert len(got) == 5

        res = free_resolution(marked)
        assert res.rank_table() == {0: {2: 3, 3: 2}, 1: {3: 4, 4: 1}, 2: {4: 1}}
        assert verify_complex(res)
        minimal = minimize_resolution(res)
        assert minimal.rank_table() == {0: {2: 3}, 1: {3: 2}}
        assert time.perf_counter() - start < 1.0


def test_criterion_2_non_groebner_example_end_to_end():
    with criterion(2, "non-Groebner marked basis, resolution and minimization"):
        start = time.perf_counter()
        marked = _marked_from_doc(NON_GROEBNER_DOC)
        assert is_marked_basis(marked).is_basis
        res = free_resolution(marked)
        assert res.rank_table() == {0: {2: 1, 3: 5}, 1: {3: 1, 4: 6}, 2: {5: 2}}
        minimal = minimize_resolution(res)
        assert minimal.rank_table() == {0: {2: 1, 3: 4}, 1: {4: 6}, 2: {5: 2}}
        assert time.perf_counter() - start < 1.0


def test_criterion_3_rank_formula_consistency():
    with criterion(3, "predicted ranks equal observed level sizes"):
        start = time.perf_counter()
        for doc in (TWISTED_DOC, NON_GROEBNER_DOC):
            marked = _marked_from_doc(doc)
            assert free_resolution(marked).rank_pairs() == predicted_ranks(
                marked.basis
            )
        rng = random.Random(101)
        for trial in range(25):
            n = rng.choice((1, 2, 2, 2, 3))
            basis = random_quasi_stable_basis(
                rng, n, max_deg=5 if n < 3 else 3, max_terms=22
            )
            marked = (
                random_marked_basis(rng, basis)
                if trial % 5 == 0
                else monomial_marked_set(basis)
            )
            assert free_resolution(marked).rank_pairs() == predicted_ranks(basis)
        assert time.perf_counter() - start < 30.0


def test_criterion_4_bounds():
    with criterion(4, "Betti/regularity/pdim bounds, strict and sharp cases"):
        twisted = _marked_from_doc(TWISTED_DOC)
        plane = _marked_from_doc(NON_GROEBNER_DOC)
        for marked, strict in ((twisted, True), (plane, False)):
            report = invariant_bounds(marked.basis)
            minimal = minimize_resolution(free_resolution(marked))
            betti = minimal.rank_pairs()
            for key, count in betti.items():
                assert count <= report.betti_bound_table.get(key, 0)
            actual_pdim = minimal.length
            actual_reg = max(
                j - i for i, degs in enumerate(minimal.degrees) for j in degs
            )
            assert actual_reg <= report.regularity_bound
            assert actual_pdim <= report.pdim_bound
            if strict:
                assert (actual_reg, actual_pdim) == (2, 1)
                assert (report.regularity_bound, report.pdim_bound) == (3, 2)
            else:
                assert (actual_reg, actual_pdim) == (3, 2)
                assert (report.regularity_bound, report.pdim_bound) == (3, 2)


def test_criterion_5_confluence():
    with criterion(5, "confluent, terminating reduction under random strategies"):
        start = time.perf_counter()
        rng = random.Random(55)
        done = 0
        while done < 200:
            n = rng.choice((1, 2, 2))
            basis = random_quasi_stable_basis(rng, n, max_deg=3, max_terms=14)
            marked = random_marked_set(rng, basis)
            for _ in range(10):
                if done == 200:
                    break
                degree = rng.randint(1, basis.max_degree() + 2)
                h = random_homogeneous_element(rng, basis.layout, degree)
                reference = reduce_full(h, marked)
                assert evaluate_representation(reference, marked) == h
                for seed in range(20):
                    chaos = random.Random(seed * 997 + done)
                    rep = reduce_in_order(h, marked, lambda c: chaos.choice(sorted(c)))
                    assert_same_representation(rep, reference)
                done += 1
        assert time.perf_counter() - start < 60.0


def test_criterion_6_decomposition_and_hilbert_oracle():
    with criterion(6, "graded decomposition and Hilbert function by exact rank"):
        rng = random.Random(66)
        for trial in range(25):
            if trial % 8 == 3:
                basis = random_quasi_stable_module(rng, 2, rank=2, max_deg=2)
            elif trial % 8 == 6:
                basis = random_quasi_stable_basis(rng, 3, max_deg=2, max_terms=14)
            else:
                basis = random_quasi_stable_basis(rng, 2, max_deg=3, max_terms=14)
            marked = random_marked_basis(rng, basis)
            assert is_marked_basis(marked).is_basis
            reg = basis.max_degree()
            for s in range(reg + 3):
                columns = all_module_terms(basis.layout, s)
                g_s = multiplicative_products(marked, s)
                n_s = [
                    ModuleElement(basis.layout, {t: 1})
                    for t in complement_terms(basis, s)
                ]
                assert len(g_s) + len(n_s) == len(columns)
                assert span_rank(g_s + n_s, columns) == len(columns)
                assert span_rank(all_products(marked, s), columns) == (
                    hilbert_function(basis, s)
                )


def test_criterion_7_finite_criterion_agrees_with_full():
    with criterion(7, "degree-capped basis test agrees with the full test"):
        rng = random.Random(77)
        bases = non_bases = 0
        for trial in range(50):
            basis = random_quasi_stable_basis(rng, 2, max_deg=3, max_terms=12)
            kind = trial % 3
            if kind == 0:
                build = lambda: random_marked_set(rng, basis)
                built = build()
                data = [(el.body, el.head) for el in built.ordered()]
            elif kind == 1:
                built = random_marked_basis(rng, basis)
                data = [(el.body, el.head) for el in built.ordered()]
            else:
                built = monomial_marked_set(basis)
                data = [(el.body, el.head) for el in built.ordered()]
            fresh_a = MarkedSet(basis, [MarkedElement(b, h) for b, h in data])
            fresh_b = MarkedSet(basis, [MarkedElement(b, h) for b, h in data])
            full = is_marked_basis(fresh_a)
            capped = is_marked_basis(fresh_b, up_to_degree=basis.max_degree() + 1)
            assert capped.inconclusive_beyond is None
            assert full.is_basis == capped.is_basis
            bases += full.is_basis
            non_bases += not full.is_basis
        assert bases and non_bases


def test_criterion_8_family_scheme():
    with criterion(8, "family equations represent the marked family"):
        start = time.perf_counter()
        lay2 = FreeModuleLayout(1)
        double = pommaret_completion(
            MonomialModule(lay2, [T((0, 2)), T((1, 1))])
        )
        generic = generic_marked_set(double)
        fam = family_equations(generic)
        assert len(fam.generators) == 1
        a = param_variable(2, 0)
        b = param_variable(2, 1)
        target = a - b * b
        rng = random.Random(88)
        ratios = set()
        for _ in range(25):
            pt = {0: Fraction(rng.randint(-9, 9)), 1: Fraction(rng.randint(-9, 9))}
            lhs = evaluate(fam.generators[0], pt)
            rhs = evaluate(target, pt)
            assert (lhs == 0) == (rhs == 0)
            if rhs:
                ratios.add(lhs / rhs)
        assert len(ratios) == 1

        seen = {True: 0, False: 0}
        for _ in range(30):
            bval = Fraction(rng.randint(-5, 5))
            aval = bval * bval if rng.random() < 0.5 else Fraction(rng.randint(-9, 9))
            spec = specialize(generic, {0: aval, 1: bval})
            verdict = is_marked_basis(spec.marked).is_basis
            assert vanishes_at(fam, spec.assignment) == verdict
            seen[verdict] += 1
        assert seen[True] and seen[False]

        line = pommaret_completion(MonomialModule(lay2, [T((0, 1))]))
        assert family_equations(generic_marked_set(line)).generators == ()
        assert time.perf_counter() - start < 5.0


def test_criterion_9_truncation_structure():
    with criterion(9, "triangular representations and tail structure"):
        start = time.perf_counter()
        rng = random.Random(99)
        for trial in range(10):
            base = random_saturated_basis(rng, 2, max_deg=3, max_terms=10)
            # an ideal of pure top-variable powers makes the check vacuous
            while basis_invariants(base).D >= 2:
                base = random_saturated_basis(rng, 2, max_deg=3, max_terms=10)
            inv = basis_invariants(base)
            assert inv.saturated
            m = inv.regularity
            trunc = truncate_basis(base, m)
            generic = generic_marked_set(trunc)
            checked = 0
            for head in trunc.sorted_terms():
                hmin = min_index(head.exp)
                hmin = 2 if hmin is None else hmin
                for i in range(hmin + 1, 3):
                    report = triangular_representation(
                        generic, head, i, base=base, truncation_degree=m
                    )
                    assert report.verified
                    checked += 1
            assert checked > 0
            specialized = random_marked_basis(rng, trunc)
            assert is_marked_basis(specialized).is_basis
            assert tails_respect_min_variable(specialized)
            assert x0_heads_are_divisible(specialized)
        assert time.perf_counter() - start < 60.0


def test_criterion_10_invariant_readout():
    with criterion(10, "regularity/satiety/pdim against brute-force oracles"):
        rng = random.Random(110)
        for trial in range(25):
            n = 2 if trial % 4 else 1
            basis = random_quasi_stable_basis(rng, n, max_deg=3, max_terms=12)
            inv = basis_invariants(basis)
            gens = minimalize(e for e, _ in basis.terms)
            nvars = basis.layout.nvars
            assert inv.regularity == regularity_oracle(gens, nvars)
            assert inv.satiety == satiety_oracle(gens, nvars)
            minimal = minimize_resolution(
                free_resolution(monomial_marked_set(basis))
            )
            assert inv.projective_dimension == minimal.length
