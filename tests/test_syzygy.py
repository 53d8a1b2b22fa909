import copy
import dataclasses
import gc
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import marked_bases.marked as marked_module
import marked_bases.monom as monom_module
import marked_bases.syzygy as syzygy_module
from marked_bases import (
    FreeModuleLayout,
    MarkedSet,
    MonomialModule,
    NotABasis,
    ParamPoly,
    ParametricCoefficients,
    Representation,
    basis_invariants,
    family_equations,
    free_resolution,
    generic_marked_set,
    invariant_bounds,
    is_marked_basis,
    minimize_resolution,
    pommaret_completion,
    predicted_ranks,
    prolongation_rep,
    prolongations,
    specialize,
    syzygy_marked_basis,
    truncate_basis,
    verify_complex,
)
from marked_bases.monom import PommaretBasis, pommaret_class
from marked_bases.ring import InternalError, ModuleElement, TermPacking
from marked_bases.syzygy import FreeResolution
from marked_bases.randgen import (
    random_marked_basis,
    random_quasi_stable_basis,
    random_quasi_stable_exponents,
)
from samplers import random_quasi_stable_module
from conftest import (
    E,
    LAY3,
    T,
    build_non_groebner_example,
    build_twisted_example,
    c2_basis,
    c3_basis,
    c4_basis,
    survey_bases,
)
from oracles import (
    all_module_terms, evaluate, is_stable_scan, monomial_marked_set, naive_complex_vanishes, saturate,
    syzygy_levels, triangular_representation,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


def poly(**entries):
    """poly(x2=1) -> {(0,0,1): 1}; poly(one=-1) -> constant."""
    table = {"one": (0, 0, 0), "x0": (1, 0, 0), "x1": (0, 1, 0), "x2": (0, 0, 1)}
    return {table[k]: Fraction(v) for k, v in entries.items()}


def as_columns(rows):
    """A dense matrix, written row by row with {} for zero, as the stored
    sparse columns {row: entry}."""
    return [
        {r: row[c] for r, row in enumerate(rows) if row[c]} for c in range(len(rows[0]))
    ]


class TestSyzygyMarkedBasis:
    def test_twisted_syzygies_exact(self, twisted):
        syz, columns = syzygy_marked_basis(twisted.marked)
        lay5 = syz.layout
        assert lay5.weights == (3, 3, 2, 2, 2)
        expected = [
            {T((0, 0, 1), 2): 1, T((0, 1, 0), 1): -1},
            {T((0, 0, 1), 3): 1, T((0, 0, 0), 2): -1},
            {T((0, 1, 0), 4): 1, T((1, 0, 0), 5): -1, T((0, 0, 0), 2): -1},
            {T((0, 0, 1), 4): 1, T((1, 0, 0), 3): -1, T((0, 0, 0), 1): -1},
            {T((0, 0, 1), 5): 1, T((0, 1, 0), 3): -1},
        ]
        got = [el.body for el in syz.ordered()]
        assert got == [E(lay5, terms) for terms in expected]
        # The returned columns are the syzygies, in the element order.
        assert columns == [syzygy_module._column(body) for body in got]
        heads = [el.head for el in syz.ordered()]
        assert heads == [
            T((0, 0, 1), 2),
            T((0, 0, 1), 3),
            T((0, 1, 0), 4),
            T((0, 0, 1), 4),
            T((0, 0, 1), 5),
        ]

    def test_second_level_syzygy(self, twisted):
        syz1, _ = syzygy_marked_basis(twisted.marked)
        syz2, _ = syzygy_marked_basis(syz1)
        assert len(syz2.elements) == 1
        el = syz2.ordered()[0]
        assert el.head == T((0, 0, 1), 3)
        lay = syz2.layout
        assert el.body == E(
            lay,
            {
                T((0, 0, 1), 3): 1,
                T((0, 1, 0), 4): -1,
                T((1, 0, 0), 5): 1,
                T((0, 0, 0), 1): 1,
            },
        )

    def test_principal_ideal_has_no_syzygies(self):
        basis = pommaret_completion(MonomialModule(LAY3, [T((0, 0, 4))]))
        syz, columns = syzygy_marked_basis(monomial_marked_set(basis))
        assert len(syz.elements) == 0 and columns == []

    def test_requires_a_basis(self, twisted):
        from marked_bases import MarkedElement

        bodies = {h: E(LAY3, {h: 1}) for h in twisted.heads}
        bodies[T((1, 1, 0))] = E(LAY3, {T((1, 1, 0)): 1, T((2, 0, 0)): 1})
        broken = MarkedSet(
            twisted.basis, [MarkedElement(bodies[h], h) for h in twisted.heads]
        )
        with pytest.raises(NotABasis):
            syzygy_marked_basis(broken)

    @pytest.mark.parametrize("forgery", ["multiplier degree", "row"])
    def test_forged_summand_is_refused(self, twisted, monkeypatch, forgery):
        """A syzygy is built without checking its terms one by one, so a
        representation with one forged summand in its packed form, the
        form the step reads, must still be refused: a multiplier of the
        wrong degree (times an extra x0, which keeps it multiplicative), or
        the right multiplier filed under another element of the same
        degree, for which it is multiplicative too.  Either column fails
        the chain check."""
        original = syzygy_module.prolongation_rep
        forged = []

        def forging(marked, head, j):
            rep = original(marked, head, j)
            packing, n = marked.basis.packing, marked.layout.n
            degree = marked.layout.term_degree
            for i, (mult, divisor, coeff) in enumerate(rep.packed):
                if forgery == "row":
                    tau = marked.packed_bodies[divisor][0]
                    top = max((v for v, x in enumerate(packing.unpack_exp(mult)) if x), default=-1)
                    others = [
                        p for p, (h, _, _) in marked.packed_bodies.items()
                        if h != tau and degree(h) == degree(tau)
                        and pommaret_class(h.exp, n) >= top
                    ]
                    if not others:
                        continue
                    divisor = others[0]
                else:
                    mult += 1 << packing.shifts[0]
                forged.append((head, j))
                packed = (*rep.packed[:i], (mult, divisor, coeff), *rep.packed[i + 1:])
                return Representation(rep.summands, rep.remainder, packed)
            return rep

        monkeypatch.setattr(syzygy_module, "prolongation_rep", forging)
        with pytest.raises(InternalError, match="not a syzygy"):
            syzygy_marked_basis(twisted.marked)
        assert len(forged) == 1


class TestFreeResolution:
    def test_twisted_matrices_match_the_worked_example(self, twisted):
        res = free_resolution(twisted.marked)
        assert res.rank_table() == {0: {2: 3, 3: 2}, 1: {3: 4, 4: 1}, 2: {4: 1}}
        delta1 = [
            [poly(x1=-1), {}, {}, poly(one=-1), {}],
            [poly(x2=1), poly(one=-1), poly(one=-1), {}, {}],
            [{}, poly(x2=1), {}, poly(x0=-1), poly(x1=-1)],
            [{}, {}, poly(x1=1), poly(x2=1), {}],
            [{}, {}, poly(x0=-1), {}, poly(x2=1)],
        ]
        delta2 = [[poly(one=1)], [{}], [poly(x2=1)], [poly(x1=-1)], [poly(x0=1)]]
        assert res.matrices[0] == as_columns(delta1)
        assert res.matrices[1] == as_columns(delta2)
        assert verify_complex(res)

    @pytest.mark.parametrize("build", [
        lambda: random_marked_basis(random.Random(1), c4_basis()),
        lambda: build_twisted_example().marked,
    ])
    def test_syzygy_levels_are_built_packed(self, monkeypatch, build):
        """Levels >= 1 are built straight from the packed reductions below
        them: while `free_resolution` runs, no structural test
        (`certified_basis`) and no cone index are built, and each syzygy
        step unpacks each distinct multiplier of its level at most once."""
        drawn = build()
        marked = MarkedSet(drawn.basis, drawn.ordered())
        calls = {"certified_basis": 0, "ConeIndex": 0, "unpack_exp": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name, module in list(sys.modules.items()):
            if name.startswith("marked_bases") and hasattr(module, "certified_basis"):
                monkeypatch.setattr(module, "certified_basis",
                                    counting("certified_basis", module.certified_basis))
        monkeypatch.setattr(monom_module.ConeIndex, "__init__",
                            counting("ConeIndex", monom_module.ConeIndex.__init__))
        monkeypatch.setattr(TermPacking, "unpack_exp",
                            counting("unpack_exp", TermPacking.unpack_exp))
        step, unpacked = syzygy_module.syzygy_marked_basis, []

        def counted_step(*args):
            before = calls["unpack_exp"]
            out = step(*args)
            unpacked.append(calls["unpack_exp"] - before)
            return out

        monkeypatch.setattr(syzygy_module, "syzygy_marked_basis", counted_step)
        res = free_resolution(marked)
        assert calls["certified_basis"] == calls["ConeIndex"] == 0
        distinct = [len({e for col in mat for entry in col.values() for e in entry})
                    for mat in res.matrices]
        assert len(unpacked) == len(distinct) == res.length > 0
        assert all(0 < u <= d for u, d in zip(unpacked, distinct))

    @pytest.mark.parametrize("seed", [1, 7])
    def test_shape_lookups_agree_with_a_cone_index(self, seed):
        """At every syzygy level of random marked bases over the survey
        shapes, the shape rule finds the vertex a `ConeIndex` of the level's
        heads finds, for every term of every degree up to one above the
        largest head; and the level's elements, unpacked, pass the checks
        of `MarkedSet.__init__` over that index and pack to its bodies."""
        rng = random.Random(seed)
        checked = 0
        for basis in survey_bases(seed, 12):
            for level in syzygy_levels(random_marked_basis(rng, basis))[1:]:
                shape, packing = level.basis, level.basis.packing
                index = monom_module.ConeIndex(packing, map(packing.pack, shape.terms))
                for s in range(min(shape.layout.weights), shape.max_degree() + 2):
                    for t in all_module_terms(shape.layout, s):
                        p = packing.pack(t)
                        assert shape.cone_divisor(p) == index.find(p)
                        checked += 1
                plain = PommaretBasis(shape.layout, shape.terms, True, index)
                assert MarkedSet(plain, level.ordered()).packed_bodies == level.packed_bodies
        assert checked > 0

    def test_keeps_no_level_set(self):
        """A resolution holds each level's heads, not its marked set: once
        `free_resolution` returns, the only marked set it made or was given
        that is still alive is its input."""
        drawn = random_marked_basis(random.Random(1), c4_basis())
        before = [o for o in gc.get_objects() if isinstance(o, MarkedSet)]
        known = {id(o) for o in before}
        marked = MarkedSet(drawn.basis, drawn.ordered())
        res = free_resolution(marked)
        gc.collect()
        alive = [
            o for o in gc.get_objects() if isinstance(o, MarkedSet) and id(o) not in known
        ]
        assert [o is marked for o in alive] == [True]
        assert len(res.heads) == len(res.degrees) == 6

    def test_non_groebner_ranks(self, non_groebner):
        res = free_resolution(non_groebner.marked)
        assert res.rank_table() == {0: {2: 1, 3: 5}, 1: {3: 1, 4: 6}, 2: {5: 2}}

    def test_principal_resolution_is_trivial(self):
        basis = pommaret_completion(MonomialModule(LAY3, [T((0, 0, 4))]))
        res = free_resolution(monomial_marked_set(basis))
        assert res.length == 0
        assert res.rank_table() == {0: {4: 1}}
        assert verify_complex(res)

    def test_length_is_n_minus_d(self, rng):
        from marked_bases import basis_invariants

        for _ in range(6):
            basis = random_quasi_stable_basis(rng, 2, max_deg=3)
            res = free_resolution(monomial_marked_set(basis))
            assert res.length == basis_invariants(basis).projective_dimension

    def test_head_column_structure(self, twisted):
        # Each syzygy column carries its non-multiplicative variable in the
        # row of its own element, and degrees grow by one per level.
        res = free_resolution(twisted.marked)
        levels = syzygy_levels(twisted.marked)
        assert res.heads == [[el.head for el in level.ordered()] for level in levels]
        for i in range(1, len(levels)):
            lower, upper = levels[i - 1], levels[i]
            mat = res.matrices[i - 1]
            for c, el in enumerate(upper.ordered()):
                row = el.head.comp - 1
                assert mat[c][row] == {el.head.exp: Fraction(1)}
                assert upper.layout.term_degree(el.head) == (
                    lower.layout.term_degree(lower.ordered()[row].head) + 1
                )


class TestModuleInput:
    def test_module_resolution_verifies(self, rng):
        from marked_bases import basis_invariants

        basis = random_quasi_stable_module(rng, 2, rank=2, max_deg=2)
        marked = random_marked_basis(rng, basis)
        res = free_resolution(marked)
        assert verify_complex(res)
        assert res.length == basis_invariants(basis).projective_dimension

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 2), st.integers(1, 3))
    def test_rank_formula_covers_modules(self, seed, n, rank):
        """The level ranks of the resolution of a random marked basis over a
        random quasi-stable module (weights 0-2 per component) are the
        predicted ones, and the minimal ranks lie under them."""
        rng = random.Random(seed)
        basis = random_quasi_stable_module(rng, n, rank=rank, max_deg=2, max_terms=14)
        predicted = predicted_ranks(basis)
        res = free_resolution(random_marked_basis(rng, basis))
        assert res.rank_pairs() == predicted
        assert res.length == invariant_bounds(basis).pdim_bound
        for key, count in minimize_resolution(res).rank_pairs().items():
            assert count <= predicted[key]

    def test_mixed_weights_shift_the_degrees(self):
        layout = FreeModuleLayout(2, (0, 1))
        basis = pommaret_completion(MonomialModule(
            layout, [T((0, 0, 1), 1), T((0, 2, 0), 1), T((0, 0, 1), 2)]
        ))
        assert predicted_ranks(basis) == {(0, 1): 1, (0, 2): 2, (1, 3): 1}


class TestPredictedRanks:
    def test_twisted(self, twisted):
        assert predicted_ranks(twisted.basis) == {
            (0, 2): 3,
            (0, 3): 2,
            (1, 3): 4,
            (1, 4): 1,
            (2, 4): 1,
        }

    def test_non_groebner(self, non_groebner):
        assert predicted_ranks(non_groebner.basis) == {
            (0, 2): 1,
            (0, 3): 5,
            (1, 3): 1,
            (1, 4): 6,
            (2, 5): 2,
        }

    def test_principal(self):
        basis = pommaret_completion(MonomialModule(LAY3, [T((0, 0, 4))]))
        assert predicted_ranks(basis) == {(0, 4): 1}

    def test_tails_do_not_matter(self, rng):
        for _ in range(4):
            basis = random_quasi_stable_basis(rng, 2, max_deg=3)
            predicted = predicted_ranks(basis)
            for marked in (
                monomial_marked_set(basis),
                random_marked_basis(rng, basis),
            ):
                res = free_resolution(marked)
                assert res.rank_pairs() == predicted


class TestSharedReductions:
    """Each prolongation is reduced once: the basis test, the syzygy step,
    the family equations and the triangular check of the same set share
    the reduction."""

    @pytest.fixture
    def reductions(self, monkeypatch):
        """Records (degree, marked set) for every call of the reduction
        kernel `marked._reduce`, which `reduce_full` and `prolongation_rep`
        both call, under any name a module bound it to."""
        calls = []
        original = marked_module._reduce

        def counting(work, degree, marked):
            calls.append((degree, marked))
            return original(work, degree, marked)

        for name, module in list(sys.modules.items()):
            if name.startswith("marked_bases"):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
        return calls

    def test_non_groebner(self, reductions):
        res = free_resolution(build_non_groebner_example().marked)
        assert len(reductions) == sum(len(degs) for degs in res.degrees[1:])

    def test_c4_sized_truncation(self, reductions):
        drawn = random_marked_basis(random.Random(1), c4_basis())
        fresh = MarkedSet(drawn.basis, drawn.ordered())
        reductions.clear()
        res = free_resolution(fresh)
        ranks = [len(degs) for degs in res.degrees]
        assert ranks == [49, 177, 274, 222, 93, 16]
        assert len(reductions) == sum(ranks[1:]) == 782

    @pytest.mark.parametrize("build", [build_twisted_example, build_non_groebner_example])
    def test_capped_basis_test_skips_higher_degrees(self, reductions, build):
        marked = build().marked
        cap = marked.basis.max_degree()
        degree = {
            (head, j): marked.layout.term_degree(head) + 1
            for head, j in prolongations(marked)
        }
        assert max(degree.values()) > cap
        assert is_marked_basis(marked, up_to_degree=cap).inconclusive_beyond == cap
        assert all(degree <= cap for degree, _ in reductions)
        assert len(reductions) == sum(d <= cap for d in degree.values())

    @pytest.fixture
    def generic_truncation(self):
        """A generic set over a saturated truncation, with the base and the
        truncation degree the triangular check needs."""
        base = saturate(build_twisted_example().basis)
        m = basis_invariants(base).regularity
        return generic_marked_set(truncate_basis(base, m)), base, m

    def test_family_equations_reduce_each_prolongation_once(
        self, reductions, generic_truncation
    ):
        generic, _, _ = generic_truncation
        family_equations(generic)
        walk = list(prolongations(generic.marked))
        assert len(reductions) == len(walk) > 0
        assert all(marked is generic.marked for _, marked in reductions)

    def test_triangular_check_after_family_reduces_nothing(
        self, reductions, generic_truncation
    ):
        generic, base, m = generic_truncation
        family_equations(generic)
        reductions.clear()
        checked = 0
        for head, i in prolongations(generic.marked):
            report = triangular_representation(
                generic, head, i, base=base, truncation_degree=m
            )
            assert report.representation is prolongation_rep(generic.marked, head, i)
            checked += 1
        assert checked > 0
        assert reductions == []


class TestComposeOnce:
    """Each column is composed with the map below it once, by the syzygy
    step that builds it; minimization composes again, every pair of maps
    once through `verify_complex`, only when it cancelled a pivot.  Both
    compose through the one composer `_evaluate_column`."""

    @pytest.fixture
    def compositions(self, monkeypatch):
        """Records the column of every `_evaluate_column` call."""
        calls = []
        original = syzygy_module._evaluate_column

        def counting(rows, column, pack_exp):
            calls.append(column)
            return original(rows, column, pack_exp)

        monkeypatch.setattr(syzygy_module, "_evaluate_column", counting)
        return calls

    def test_non_groebner(self, compositions):
        res = free_resolution(build_non_groebner_example().marked)
        assert len(compositions) == sum(len(degs) for degs in res.degrees[1:]) > 0
        assert compositions == [col for mat in res.matrices for col in mat]

    def test_c4_sized_truncation(self, compositions):
        drawn = random_marked_basis(random.Random(1), c4_basis())
        compositions.clear()
        res = free_resolution(MarkedSet(drawn.basis, drawn.ordered()))
        assert len(compositions) == sum(len(degs) for degs in res.degrees[1:]) == 782

    def test_c4_sized_truncation_builds_each_column_once(self, monkeypatch):
        """Each column is built once: the bodies by `free_resolution`, from
        the level-0 elements, and each syzygy by its step, in the same pass
        that writes the syzygy's element, so no element is converted back
        into a column; the chain check reads the packed bodies of the level
        below rather than columns rebuilt from them.  Each stored column is
        the column of its element."""
        drawn = random_marked_basis(random.Random(1), c4_basis())
        calls = []
        original = syzygy_module._column

        def counting(elem):
            calls.append(elem)
            return original(elem)

        monkeypatch.setattr(syzygy_module, "_column", counting)
        marked = MarkedSet(drawn.basis, drawn.ordered())
        res = free_resolution(marked)
        assert len(calls) == len(res.bodies) == 49
        assert sum(len(degs) for degs in res.degrees[1:]) == 782
        for level, columns in zip(syzygy_levels(marked)[1:], res.matrices, strict=True):
            assert columns == [original(el.body) for el in level.ordered()]

    @pytest.mark.parametrize("shape", [c2_basis, c3_basis, c4_basis])
    def test_minimize_without_a_pivot_composes_nothing(self, compositions, shape):
        res = free_resolution(random_marked_basis(random.Random(1), shape()))
        compositions.clear()
        minimal = minimize_resolution(res)
        assert minimal.degrees == res.degrees  # no pivot was cancelled
        assert compositions == []

    def test_minimize_composes_every_pair_once_after_a_pivot(self, compositions, twisted):
        res = free_resolution(twisted.marked)
        compositions.clear()
        minimal = minimize_resolution(res)
        assert minimal.degrees != res.degrees  # a pivot was cancelled
        assert compositions == [col for mat in minimal.matrices for col in mat]
        assert compositions


class TestVerifyComplex:
    def test_sign_flip_detected(self, twisted):
        res = free_resolution(twisted.marked)
        broken = copy.deepcopy(res)
        entry = broken.matrices[1][0][2]  # row 2 of column 0
        broken.matrices[1][0][2] = {e: -c for e, c in entry.items()}
        assert verify_complex(res)
        assert not verify_complex(broken)

    @pytest.mark.parametrize("build", [build_twisted_example, build_non_groebner_example])
    def test_body_sign_flip_detected(self, build):
        res = free_resolution(build().marked)
        r = min(r for col in res.matrices[0] for r in col)
        broken = copy.deepcopy(res)
        entry = next(iter(broken.bodies[r].values()))  # holds the first term
        e = next(iter(entry))
        entry[e] = -entry[e]
        assert verify_complex(res)
        assert not verify_complex(broken)

    @pytest.mark.parametrize("build", [build_twisted_example, build_non_groebner_example])
    def test_entry_sign_flip_detected_in_every_matrix(self, build):
        res = free_resolution(build().marked)
        assert verify_complex(res)
        for i, mat in enumerate(res.matrices):
            # The first stored entry in row-major order.
            r, c = min((r, c) for c, col in enumerate(mat) for r in col)
            broken = copy.deepcopy(res)
            broken.matrices[i][c][r] = {e: -v for e, v in mat[c][r].items()}
            assert not verify_complex(broken), f"flip in matrices[{i}] missed"

    def test_length_zero_vacuous(self):
        basis = pommaret_completion(MonomialModule(LAY3, [T((0, 0, 2))]))
        res = free_resolution(monomial_marked_set(basis))
        assert verify_complex(res)

    @pytest.mark.parametrize("seed", [1, 7])
    def test_agrees_with_the_naive_composition(self, seed):
        """`verify_complex` packs the map below and composes with the
        syzygy step's composer; `oracles.naive_complex_vanishes` composes
        tuple-keyed polynomials with no packing.  They agree on the full and
        the minimal resolutions of a survey slice, and on each of these with
        the first stored entry of one map (the bodies or a differential)
        sign-flipped, for every map."""
        rng = random.Random(seed)
        verdicts = []
        for basis in survey_bases(seed, 30):
            full = free_resolution(random_marked_basis(rng, basis))
            for res in (full, minimize_resolution(full)):
                assert verify_complex(res) and naive_complex_vanishes(res)
                for i, mat in enumerate([res.bodies, *res.matrices]):
                    c, r = min((c, r) for c, col in enumerate(mat) for r in col)
                    broken = copy.deepcopy(res)
                    col = (broken.matrices[i - 1] if i else broken.bodies)[c]
                    col[r] = {e: -v for e, v in col[r].items()}
                    verdicts.append(verify_complex(broken))
                    assert verdicts[-1] == naive_complex_vanishes(broken)
        assert False in verdicts and len(verdicts) > 100


class TestMinimize:
    def test_twisted_minimal_ranks(self, twisted):
        res = free_resolution(twisted.marked)
        minimal = minimize_resolution(res)
        assert minimal.rank_table() == {0: {2: 3}, 1: {3: 2}}
        assert verify_complex(minimal)
        # the original resolution is untouched
        assert res.rank_table() == {0: {2: 3, 3: 2}, 1: {3: 4, 4: 1}, 2: {4: 1}}

    def test_non_groebner_minimal_ranks(self, non_groebner):
        minimal = minimize_resolution(free_resolution(non_groebner.marked))
        assert minimal.rank_table() == {0: {2: 1, 3: 4}, 1: {4: 6}, 2: {5: 2}}

    def test_already_minimal_unchanged(self, twisted):
        minimal = minimize_resolution(free_resolution(twisted.marked))
        again = minimize_resolution(minimal)
        assert again.degrees == minimal.degrees
        assert again.matrices == minimal.matrices
        assert again.bodies == minimal.bodies

    @pytest.mark.parametrize("shape", [c2_basis, c4_basis])
    def test_no_pivot_shares_the_maps(self, shape, monkeypatch):
        """With no constant entry nothing is copied: the result shares the
        input's maps, which stay as they were, and drops the heads.  No two
        consecutive levels share a degree, so no strand can hold a constant
        entry and no entry is scanned for one."""
        res = free_resolution(random_marked_basis(random.Random(1), shape()))
        assert all(set(a).isdisjoint(b) for a, b in zip(res.degrees, res.degrees[1:]))
        before = copy.deepcopy((res.bodies, res.degrees, res.matrices))
        scanned = []
        constant = syzygy_module.poly_constant
        monkeypatch.setattr(
            syzygy_module, "poly_constant", lambda p: scanned.append(p) or constant(p)
        )
        minimal = minimize_resolution(res)
        assert scanned == []
        assert minimal.bodies is res.bodies
        assert minimal.degrees is res.degrees
        assert minimal.matrices is res.matrices
        assert minimal.heads is None and res.heads is not None
        assert (res.bodies, res.degrees, res.matrices) == before

    def test_minimal_exactly_when_stable(self):
        """Eliahou and Kervaire (J. Algebra 129, 1990): over the zero-tail
        marked set of a stable ideal, the Pommaret basis is the minimal
        generating set and the syzygy resolution is minimal.  A quasi-stable
        ideal that is not stable has a Pommaret basis beyond its minimal
        generators, so the resolution is not minimal and minimization
        cancels a pivot.  Stability is decided by its definition, on the
        minimal generators (`oracles.is_stable_scan`)."""
        rng = random.Random(11)
        seen = {True: 0, False: 0}
        while min(seen.values()) < 30:
            nvars = rng.choice((3, 4))
            gens = random_quasi_stable_exponents(rng, nvars, max_deg=3)
            module = MonomialModule(FreeModuleLayout(nvars - 1), [T(e) for e in gens])
            basis = pommaret_completion(module)
            if len(basis.terms) > 25:
                continue
            res = free_resolution(monomial_marked_set(basis))
            minimal = minimize_resolution(res)
            stable = is_stable_scan(module.component(1), nvars)
            assert (minimal.degrees == res.degrees) == stable
            seen[stable] += 1

    def test_parametric_coefficients_refused(self):
        basis = pommaret_completion(MonomialModule(LAY3, [T((0, 0, 1))]))
        generic = generic_marked_set(basis)
        res = FreeResolution(
            layout=LAY3,
            bodies=[syzygy_module._column(el.body) for el in generic.marked.ordered()],
            degrees=[[1]],
            matrices=[],
        )
        with pytest.raises(ParametricCoefficients):
            minimize_resolution(res)


def _evaluated(res: FreeResolution, point) -> FreeResolution:
    """The resolution with every entry evaluated at the point and the
    entries that vanish there dropped."""
    def column(col):
        out = {}
        for row, entry in col.items():
            values = {e: evaluate(c, point) if isinstance(c, ParamPoly) else c
                      for e, c in entry.items()}
            values = {e: v for e, v in values.items() if v}
            if values:
                out[row] = values
        return out

    return FreeResolution(res.layout, [column(col) for col in res.bodies], res.degrees,
                          [[column(col) for col in mat] for mat in res.matrices])


class TestParametricResolution:
    """`free_resolution` over K[C], the one path of the package that does
    ParamPoly arithmetic (`-coeff` in `syzygy_marked_basis`, `c * b` in
    `_evaluate_column`): the generic set of (x2, x1^2) has four parameters
    and no family equation, so it is a marked basis for every value."""

    def test_resolution_specializes_at_every_point(self):
        basis = pommaret_completion(MonomialModule(LAY3, [T((0, 0, 1)), T((0, 2, 0))]))
        generic = generic_marked_set(basis)
        assert generic.nparams == 4 and family_equations(generic).generators == ()
        res = free_resolution(generic.marked)
        assert res.rank_pairs() == predicted_ranks(basis)
        with pytest.raises(ParametricCoefficients):
            minimize_resolution(res)
        rng = random.Random(29)
        for _ in range(3):
            point = {i: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for i in range(4)}
            assert free_resolution(specialize(generic, point).marked) == _evaluated(res, point)


    def test_rank_two_resolution_specializes_at_every_point(self):
        """The generic set of (x2, x1^2, x0^2) in each of two components of
        weight 0 has 16 parameters and no family equation.  Its resolution
        has three levels, so the kernel reduces a syzygy level built packed
        over K[C], from its sparse bodies."""
        gens = [T(e, k) for k in (1, 2) for e in ((0, 0, 1), (0, 2, 0), (2, 0, 0))]
        basis = pommaret_completion(MonomialModule(FreeModuleLayout(2, (0, 0)), gens))
        generic = generic_marked_set(basis)
        assert generic.nparams == 16 and family_equations(generic).generators == ()
        level1, _ = syzygy_marked_basis(generic.marked)
        assert level1.sparse_bodies is not None and any(prolongations(level1))
        res = free_resolution(generic.marked)
        assert res.rank_table() == {0: {1: 2, 2: 4, 3: 2}, 1: {3: 6, 4: 4}, 2: {4: 2, 5: 2}}
        assert any(isinstance(c, ParamPoly) and not c.is_constant()
                   for col in res.matrices[1] for entry in col.values() for c in entry.values())
        rng = random.Random(31)
        for _ in range(3):
            point = {i: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for i in range(16)}
            assert free_resolution(specialize(generic, point).marked) == _evaluated(res, point)

def _doubled_pivot(find):
    """A corrupted pivot search: the right entry, at twice its value."""

    def broken(matrices, degrees):
        found = find(matrices, degrees)
        return found and (*found[:3], 2 * found[3])

    return broken


def _spoil_level0(add_scaled_column, which):
    """A corrupted elimination step.  The first call that clears its target
    is the row elimination into the map below the pivot, which empties the
    image of the eliminated generator; after it, that image gets the source
    column back (``which="target"``) or the source, the image of a surviving
    generator, has the sign of its first entry flipped (``"source"``)."""
    done = []

    def broken(target, source, factor, sign):
        add_scaled_column(target, source, factor, sign)
        if not target and not done:
            done.append(True)
            if which == "target":
                target.update({r: dict(p) for r, p in source.items()})
            else:
                entry = next(iter(source.values()))
                e = next(iter(entry))
                entry[e] = -entry[e]

    return broken


def _flip_once(drop_row):
    """A corrupted row deletion: the first non-empty column it returns has
    the sign of its first entry flipped."""
    done = []

    def broken(col, k):
        out = drop_row(col, k)
        if out and not done:
            done.append(True)
            r = next(iter(out))
            out[r] = {e: -v for e, v in out[r].items()}
        return out

    return broken


def _unequal_degrees(res: FreeResolution) -> FreeResolution:
    """A corrupted copy: the column of the first pivot is one degree up."""
    i, _, c, _ = syzygy_module._find_pivot(res.matrices, res.degrees)
    broken = copy.deepcopy(res)
    broken.degrees[i + 1][c] += 1
    return broken


def _dependent_row(res: FreeResolution) -> FreeResolution:
    """A corrupted copy: in the map above the first pivot, the first column
    that touches the pivot column's row has that entry sign-flipped, so the
    column elimination doubles the entry instead of clearing it."""
    i, _, c, _ = syzygy_module._find_pivot(res.matrices, res.degrees)
    broken = copy.deepcopy(res)
    col = next(col for col in broken.matrices[i + 1] if c in col)
    col[c] = {e: -v for e, v in col[c].items()}
    return broken


def _extra_top_column(res: FreeResolution) -> FreeResolution:
    """A corrupted copy: the top map has one column more than its level has
    generators, so it keeps a column when that level empties."""
    broken = copy.deepcopy(res)
    broken.matrices[-1].append({})
    return broken


def _shifted_d(basis_invariants):
    """A corrupted invariant readout: D one too large."""
    return lambda basis: dataclasses.replace(
        basis_invariants(basis), D=basis_invariants(basis).D + 1
    )


def _nonzero(marked) -> ModuleElement:
    """A non-zero element over the layout of `marked`: its first head."""
    return ModuleElement(marked.layout, {next(iter(marked.elements)): 1})


def _spoil_memo(marked):
    """Corrupts a certified set in place: the memoised representation of
    its last prolongation gets a non-zero remainder."""
    if not is_marked_basis(marked).is_basis:
        raise ValueError("needs a marked basis")
    key, rep = list(marked._prolongations.items())[-1]
    marked._prolongations[key] = Representation(rep.summands, _nonzero(marked), rep.packed)
    return marked


def _drop_one(prolongations):
    """A corrupted prolongation walk: the first element with two
    prolongations loses its last one, by x_n.  Its other syzygy head x_j*e_k
    (j < n) then has the prolongation x_n*x_j*e_k, which only the cone of
    the dropped head x_n*e_k holds."""

    def broken(marked):
        jobs = list(prolongations(marked))
        i = next(i for i in range(1, len(jobs)) if jobs[i][0] is jobs[i - 1][0])
        return jobs[:i] + jobs[i + 1:]

    return broken


def _repeat_one(prolongations):
    """A corrupted prolongation walk: the first element with two
    prolongations has its first one walked again in place of its second."""

    def broken(marked):
        jobs = list(prolongations(marked))
        i = next(i for i in range(1, len(jobs)) if jobs[i][0] is jobs[i - 1][0])
        return jobs[:i] + [jobs[i - 1]] + jobs[i + 1:]

    return broken


def _skip_second(prolongations, level0):
    """A corrupted walk: over `level0` only, the second prolongation is
    skipped.  On TWISTED that is x2*[x2*x1], whose syzygy head x2*e3 has no
    prolongation of its own, so the heads that are left still form a
    Pommaret basis, and the length stays n - D."""

    def broken(marked):
        jobs = list(prolongations(marked))
        return jobs[:1] + jobs[2:] if marked is level0 else jobs

    return broken


def _lifted_tail(prolongation_rep):
    """A corrupted reduction, in the packed form the syzygy step reads: the
    first summand whose head has a class c < n gets its multiplier times
    x_(c+1), so that the syzygy term it gives lies in the syzygy module."""

    def broken(marked, head, j):
        rep = prolongation_rep(marked, head, j)
        packing, n = marked.basis.packing, marked.layout.n
        packed = list(rep.packed)
        for i, (mult, divisor, coeff) in enumerate(packed):
            c = pommaret_class(marked.packed_bodies[divisor][0].exp, n)
            if c < n:
                packed[i] = (mult + (1 << packing.shifts[c + 1]), divisor, coeff)
                return Representation(rep.summands, rep.remainder, tuple(packed))
        return rep

    return broken


def _miscounted(predicted_ranks):
    """A corrupted rank prediction: one level-1 generator more than the
    heads give, in the lowest degree of level 1."""

    def broken(basis):
        out = dict(predicted_ranks(basis))
        key = min(k for k in out if k[0] == 1)
        out[key] += 1
        return out

    return broken


def _leaky_reduce(reduce, spared):
    """A corrupted kernel: every reduction over a set other than `spared`
    leaves a non-zero remainder."""

    def broken(work, degree, marked):
        rep = reduce(work, degree, marked)
        if marked is spared:
            return rep
        return Representation(rep.summands, _nonzero(marked), rep.packed)

    return broken


class TestSelfChecksRaise:
    """The checks of the syzygy step, the minimization invariants, its
    final complex check and the length check of `free_resolution` raise
    `InternalError`, so `python -O` keeps them (scripts/tier1.sh runs this
    file under -O as well)."""

    def test_nonvanishing_prolongation_is_caught(self, twisted):
        with pytest.raises(InternalError,
                           match="prolongation of a certified basis does not vanish"):
            syzygy_marked_basis(_spoil_memo(twisted.marked))

    def test_missing_syzygy_head_is_caught(self, monkeypatch, twisted):
        monkeypatch.setattr(syzygy_module, "prolongations", _drop_one(prolongations))
        with pytest.raises(InternalError, match="syzygy heads do not form a Pommaret basis"):
            syzygy_marked_basis(twisted.marked)

    def test_syzygy_set_failing_its_recheck_is_caught(self, monkeypatch, twisted):
        marked = twisted.marked
        assert is_marked_basis(marked).is_basis
        monkeypatch.setattr(marked_module, "_reduce", _leaky_reduce(marked_module._reduce, marked))
        with pytest.raises(InternalError, match="syzygy set failed the marked-basis re-check"):
            syzygy_marked_basis(marked)

    def test_syzygy_step_checks_survive_python_O(self):
        script = (
            f"import sys\nsys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            "from conftest import build_twisted_example\n"
            "from test_syzygy import _drop_one, _leaky_reduce, _spoil_memo\n"
            "from marked_bases import marked, syzygy\n"
            "from marked_bases.ring import InternalError\n"
            "assert False, 'asserts run'\n"
            "def attempt(marked_set):\n"
            "    try:\n"
            "        syzygy.syzygy_marked_basis(marked_set)\n"
            "    except InternalError as exc:\n"
            "        print('raised:', exc)\n"
            "attempt(_spoil_memo(build_twisted_example().marked))\n"
            "real = syzygy.prolongations\n"
            "syzygy.prolongations = _drop_one(real)\n"
            "attempt(build_twisted_example().marked)\n"
            "syzygy.prolongations = real\n"
            "spared = build_twisted_example().marked\n"
            "syzygy.is_marked_basis(spared)\n"
            "marked._reduce = _leaky_reduce(marked._reduce, spared)\n"
            "attempt(spared)\n"
        )
        run = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout == (
            "raised: prolongation of a certified basis does not vanish\n"
            "raised: syzygy heads do not form a Pommaret basis\n"
            "raised: syzygy set failed the marked-basis re-check\n"
        )

    @pytest.mark.parametrize("corrupt, message", [
        (_unequal_degrees, "constant entry links unequal degrees"),
        (_dependent_row, "dependent row survived"),
        (_extra_top_column, "an empty level kept a column"),
    ])
    def test_corrupted_input_is_caught(self, twisted, corrupt, message):
        # TWISTED cancels a pivot in each of its two differentials, so the
        # map above a pivot and the emptied top level both occur.
        full = free_resolution(twisted.marked)
        broken = corrupt(full)
        with pytest.raises(InternalError, match=message):
            minimize_resolution(broken)
        assert minimize_resolution(full).rank_table() == {0: {2: 3}, 1: {3: 2}}

    def test_wrong_length_is_caught(self, monkeypatch, twisted):
        monkeypatch.setattr(
            syzygy_module, "basis_invariants", _shifted_d(syzygy_module.basis_invariants)
        )
        with pytest.raises(InternalError, match="resolution length differs from n - D"):
            free_resolution(twisted.marked)

    def test_repeated_syzygy_head_is_caught(self, monkeypatch, twisted):
        monkeypatch.setattr(syzygy_module, "prolongations", _repeat_one(prolongations))
        with pytest.raises(InternalError, match="syzygy heads do not form a Pommaret basis"):
            syzygy_marked_basis(twisted.marked)

    def test_skipped_prolongation_is_caught(self, monkeypatch, twisted):
        # The heads left when x2*[x2*x1] is skipped still form a Pommaret
        # basis, which the structural test accepted; they lack the shape.
        marked = twisted.marked
        monkeypatch.setattr(syzygy_module, "prolongations", _skip_second(prolongations, marked))
        with pytest.raises(InternalError, match="syzygy heads do not form a Pommaret basis"):
            syzygy_marked_basis(marked)

    def test_syzygy_tail_term_in_the_module_is_caught(self, monkeypatch, twisted):
        monkeypatch.setattr(syzygy_module, "prolongation_rep",
                            _lifted_tail(syzygy_module.prolongation_rep))
        with pytest.raises(InternalError, match="syzygy tail term lies in the syzygy module"):
            syzygy_marked_basis(twisted.marked)

    def test_packed_level_checks_survive_python_O(self):
        script = (
            f"import sys\nsys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            "from conftest import build_twisted_example\n"
            "from test_syzygy import _lifted_tail, _skip_second\n"
            "from marked_bases import syzygy\n"
            "from marked_bases.ring import InternalError\n"
            "assert False, 'asserts run'\n"
            "def attempt(marked_set):\n"
            "    try:\n"
            "        syzygy.syzygy_marked_basis(marked_set)\n"
            "    except InternalError as exc:\n"
            "        print('raised:', exc)\n"
            "marked = build_twisted_example().marked\n"
            "real = syzygy.prolongations\n"
            "syzygy.prolongations = _skip_second(real, marked)\n"
            "attempt(marked)\n"
            "syzygy.prolongations = real\n"
            "real = syzygy.prolongation_rep\n"
            "syzygy.prolongation_rep = _lifted_tail(real)\n"
            "attempt(build_twisted_example().marked)\n"
            "syzygy.prolongation_rep = real\n"
        )
        run = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout == (
            "raised: syzygy heads do not form a Pommaret basis\n"
            "raised: syzygy tail term lies in the syzygy module\n"
        )

    def test_wrong_ranks_are_caught(self, monkeypatch, twisted):
        # A prediction one generator off: every step passes its checks.
        monkeypatch.setattr(syzygy_module, "predicted_ranks",
                            _miscounted(syzygy_module.predicted_ranks))
        with pytest.raises(InternalError, match="resolution ranks differ from the ranks"):
            free_resolution(twisted.marked)

    def test_rank_check_survives_python_O(self):
        script = (
            f"import sys\nsys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            "from conftest import build_twisted_example\n"
            "from test_syzygy import _miscounted\n"
            "from marked_bases import syzygy\n"
            "from marked_bases.ring import InternalError\n"
            "assert False, 'asserts run'\n"
            "syzygy.predicted_ranks = _miscounted(syzygy.predicted_ranks)\n"
            "try:\n"
            "    syzygy.free_resolution(build_twisted_example().marked)\n"
            "except InternalError as exc:\n"
            "    print('raised:', exc)\n"
        )
        run = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout == "raised: resolution ranks differ from the ranks the heads predict\n"

    def test_corrupted_elimination_fails_the_final_check(self, monkeypatch, non_groebner):
        # One pivot is cancelled, so no later elimination sees the flipped
        # entry and only the check of the changed pairs can catch it.
        monkeypatch.setattr(syzygy_module, "_drop_row", _flip_once(syzygy_module._drop_row))
        with pytest.raises(InternalError, match="minimized resolution failed the complex check"):
            minimize_resolution(free_resolution(non_groebner.marked))

    @pytest.mark.parametrize("which, message", [
        ("target", "dependent column survived"),
        ("source", "minimized resolution failed the complex check"),
    ])
    def test_corrupted_body_column_is_caught(self, monkeypatch, non_groebner, which, message):
        # The one pivot of NON_GROEBNER lies in matrices[0], so its row
        # elimination writes to the generator images (the bodies).
        full = free_resolution(non_groebner.marked)
        assert syzygy_module._find_pivot(full.matrices, full.degrees)[0] == 0
        monkeypatch.setattr(
            syzygy_module, "_add_scaled_column",
            _spoil_level0(syzygy_module._add_scaled_column, which),
        )
        with pytest.raises(InternalError, match=message):
            minimize_resolution(full)

    def test_corrupted_pivot_is_caught(self, monkeypatch, twisted):
        monkeypatch.setattr(
            syzygy_module, "_find_pivot", _doubled_pivot(syzygy_module._find_pivot)
        )
        with pytest.raises(InternalError, match="pivot row or column not cleared"):
            minimize_resolution(free_resolution(twisted.marked))

    def test_survives_python_O(self):
        script = (
            f"import sys\nsys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            "from conftest import build_twisted_example\n"
            "from marked_bases import syzygy\n"
            "from marked_bases.ring import InternalError\n"
            "assert False, 'asserts run'\n"
            "real = syzygy._find_pivot\n"
            "def broken(matrices, degrees):\n"
            "    found = real(matrices, degrees)\n"
            "    return found and (*found[:3], 2 * found[3])\n"
            "syzygy._find_pivot = broken\n"
            "full = syzygy.free_resolution(build_twisted_example().marked)\n"
            "try:\n"
            "    syzygy.minimize_resolution(full)\n"
            "except InternalError as exc:\n"
            "    print('raised:', exc)\n"
        )
        run = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout == "raised: pivot row or column not cleared\n"

    def test_final_check_survives_python_O(self):
        script = (
            f"import sys\nsys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            "from conftest import build_non_groebner_example\n"
            "from test_syzygy import _flip_once\n"
            "from marked_bases import syzygy\n"
            "from marked_bases.ring import InternalError\n"
            "assert False, 'asserts run'\n"
            "syzygy._drop_row = _flip_once(syzygy._drop_row)\n"
            "full = syzygy.free_resolution(build_non_groebner_example().marked)\n"
            "try:\n"
            "    syzygy.minimize_resolution(full)\n"
            "except InternalError as exc:\n"
            "    print('raised:', exc)\n"
        )
        run = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout == "raised: minimized resolution failed the complex check\n"

    def test_body_column_checks_survive_python_O(self):
        script = (
            f"import sys\nsys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            "from conftest import build_non_groebner_example\n"
            "from test_syzygy import _spoil_level0\n"
            "from marked_bases import syzygy\n"
            "from marked_bases.ring import InternalError\n"
            "assert False, 'asserts run'\n"
            "real = syzygy._add_scaled_column\n"
            "full = syzygy.free_resolution(build_non_groebner_example().marked)\n"
            "for which in ('target', 'source'):\n"
            "    syzygy._add_scaled_column = _spoil_level0(real, which)\n"
            "    try:\n"
            "        syzygy.minimize_resolution(full)\n"
            "    except InternalError as exc:\n"
            "        print('raised:', exc)\n"
        )
        run = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout == (
            "raised: dependent column survived\n"
            "raised: minimized resolution failed the complex check\n"
        )

    def test_corrupted_input_checks_survive_python_O(self):
        script = (
            f"import sys\nsys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            "from conftest import build_twisted_example\n"
            "from test_syzygy import (\n"
            "    _dependent_row, _extra_top_column, _shifted_d, _unequal_degrees,\n"
            ")\n"
            "from marked_bases import syzygy\n"
            "from marked_bases.ring import InternalError\n"
            "assert False, 'asserts run'\n"
            "full = syzygy.free_resolution(build_twisted_example().marked)\n"
            "for corrupt in (_unequal_degrees, _dependent_row, _extra_top_column):\n"
            "    try:\n"
            "        syzygy.minimize_resolution(corrupt(full))\n"
            "    except InternalError as exc:\n"
            "        print('raised:', exc)\n"
            "syzygy.basis_invariants = _shifted_d(syzygy.basis_invariants)\n"
            "try:\n"
            "    syzygy.free_resolution(build_twisted_example().marked)\n"
            "except InternalError as exc:\n"
            "    print('raised:', exc)\n"
        )
        run = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout == (
            "raised: constant entry links unequal degrees\n"
            "raised: dependent row survived\n"
            "raised: an empty level kept a column\n"
            "raised: resolution length differs from n - D\n"
        )


class TestBounds:
    def test_twisted_strict(self, twisted):
        report = invariant_bounds(twisted.basis)
        assert report.regularity_bound == 3
        assert report.pdim_bound == 2
        minimal = minimize_resolution(free_resolution(twisted.marked))
        actual_pdim = minimal.length
        actual_reg = max(
            j - i for i, degs in enumerate(minimal.degrees) for j in degs
        )
        assert actual_pdim == 1 < report.pdim_bound
        assert actual_reg == 2 < report.regularity_bound
        for (i, j), count in minimal.rank_pairs().items():
            assert count <= report.betti_bound_table.get((i, j), 0)

    def test_non_groebner_sharp(self, non_groebner):
        report = invariant_bounds(non_groebner.basis)
        assert report.regularity_bound == 3
        assert report.pdim_bound == 2
        minimal = minimize_resolution(free_resolution(non_groebner.marked))
        assert minimal.length == 2 == report.pdim_bound
        actual_reg = max(
            j - i for i, degs in enumerate(minimal.degrees) for j in degs
        )
        assert actual_reg == 3 == report.regularity_bound

    def test_principal_exact(self):
        basis = pommaret_completion(MonomialModule(LAY3, [T((0, 0, 4))]))
        report = invariant_bounds(basis)
        assert report.regularity_bound == 4
        assert report.pdim_bound == 0
        assert report.betti_bound_table == {(0, 4): 1}
