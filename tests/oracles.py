"""Brute-force oracles, independent of the cone machinery under test.

Everything here works from minimal generators by plain divisibility and
exhaustive term enumeration, or from exact dense linear algebra on graded
slices.  These are the second routes for the dual-route checks: slices for
Hilbert functions and disjoint covers, generator manipulation for colon
ideals and satiety, slice stability for regularity, and rank computations
for the direct-sum decomposition.  Minimization of a resolution has a dense
reference too, eliminating on full grids of entries, the chain check of a
resolution one that composes tuple-keyed polynomials, marked reduction has
a reference that attacks the reducible terms in any given order, and a
specialized set one that evaluates the generic set's coefficients.  The
sparse `linalg.rref` has the dense `dense_rref` as its reference, and the
random marked-basis generator the dense-row extraction it replaced.  A
representation is evaluated back to the element it stands for, and the
resolution JSON is parsed back into a resolution.

The paper's statements about marked families over truncated saturated
ideals are checks on the kernel's output, and live here too: the
triangular shape of the prolongation representations and the two
statements on tail terms.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from marked_bases.marked import (
    MarkedElement,
    MarkedSet,
    NotABasis,
    Representation,
    prolongation_rep,
    prolongations,
    reduce_full,
)
from marked_bases.monom import (
    MonomialModule,
    NotQuasiStable,
    PommaretBasis,
    _complete_component,
    _quasi_stable_witness,
    basis_invariants,
    complement_terms,
    minimalize,
    module_terms_of_degree,
    pommaret_class,
    pommaret_completion,
    terms_of_degree,
    truncate_basis,
)
from marked_bases.ring import (
    FreeModuleLayout,
    InternalError,
    MarkedBasesError,
    MissingParameter,
    ModuleElement,
    ModuleTerm,
    ParamPoly,
    Rational,
    exp_add,
    exp_deg,
    exp_divides,
    exp_lcm,
    min_index,
    poly_add_product,
    poly_constant,
    rational,
    var_exp,
)
from marked_bases.syzygy import Column, FreeResolution, _column, syzygy_marked_basis
from marked_bases.textio import parse_polynomial


def ideal_contains(gens, e) -> bool:
    return any(exp_divides(g, e) for g in gens)


def ideal_slice(gens, nvars: int, s: int):
    """Exponents of degree s inside the monomial ideal."""
    return {e for e in terms_of_degree(nvars, s) if ideal_contains(gens, e)}


def module_slice(terms, layout: FreeModuleLayout, s: int):
    out = set()
    gens_by_comp: dict[int, list] = {}
    for t in terms:
        gens_by_comp.setdefault(t.comp, []).append(t.exp)
    for k, gens in gens_by_comp.items():
        d = s - layout.weight(k)
        if d < 0:
            continue
        for e in terms_of_degree(layout.nvars, d):
            if ideal_contains(gens, e):
                out.add(ModuleTerm(e, k))
    return out


def brute_hilbert(terms, layout: FreeModuleLayout, s: int) -> int:
    return len(module_slice(terms, layout, s))


def colon_variable_forever(gens, i: int):
    """Minimal generators of J : x_i^oo (strip the x_i power of each gen)."""
    out = set()
    for g in gens:
        e = list(g)
        e[i] = 0
        out.add(tuple(e))
    return minimalize(out)


def intersect_ideals(gens_a, gens_b):
    return minimalize(exp_lcm(a, b) for a in gens_a for b in gens_b)


def saturation_gens(gens, nvars: int):
    """Minimal generators of the saturation, as the intersection of the
    single-variable infinite colon ideals (each contains the ideal)."""
    current = colon_variable_forever(gens, 0)
    for i in range(1, nvars):
        current = intersect_ideals(current, colon_variable_forever(gens, i))
    return current


def satiety_oracle(gens, nvars: int) -> int:
    """Least degree from which the ideal agrees with its saturation.

    Slices are scanned past the regularity (itself taken from the slice
    oracle), where the two ideals must already agree.
    """
    gens = minimalize(gens)
    sat = saturation_gens(gens, nvars)
    top = max(
        regularity_oracle(gens, nvars),
        max((exp_deg(g) for g in sat | gens), default=0),
    ) + 2
    last_difference = -1
    for s in range(top + 1):
        if ideal_slice(gens, nvars, s) != ideal_slice(sat, nvars, s):
            last_difference = s
    assert last_difference < top - 1, "satiety scan bound too small"
    return last_difference + 1


def regularity_oracle(gens, nvars: int) -> int:
    """Smallest degree s (at least the generator degrees) whose full slice
    satisfies the degree-preserving exchange property: for every term t of
    the slice and non-multiplicative variable x_j, x_j*t/min(t) stays in
    the ideal."""
    gens = minimalize(gens)
    s = max(exp_deg(g) for g in gens)
    while True:
        good = True
        for e in ideal_slice(gens, nvars, s):
            m = min_index(e)
            if m is None:
                continue
            for j in range(m + 1, nvars):
                moved = list(e)
                moved[m] -= 1
                moved[j] += 1
                if not ideal_contains(gens, tuple(moved)):
                    good = False
                    break
            if not good:
                break
        if good:
            return s
        s += 1
        assert s < 60, "regularity scan runaway"


def quasi_stable_witness_scan(gens, nvars: int):
    """The quasi-stability witness by a plain scan: for each generator t
    (degree, then exponent order) and non-multiplicative x_j, the terms
    x_j^s * t/min(t) for s = 0..maxdeg*nvars are tested one by one against
    every generator; the first pair with no member is the witness."""
    if not gens:
        return None
    bound = max(exp_deg(e) for e in gens) * nvars
    for e in sorted(gens, key=lambda x: (exp_deg(x), x)):
        m = min_index(e)
        if m is None:
            continue
        quotient = list(e)
        quotient[m] -= 1
        for j in range(m + 1, nvars):
            ok = False
            for s in range(bound + 1):
                cand = list(quotient)
                cand[j] += s
                if ideal_contains(gens, tuple(cand)):
                    ok = True
                    break
            if not ok:
                return tuple(e), j
    return None


def is_stable_scan(gens, nvars: int) -> bool:
    """Stability by its definition, checked on the minimal generators: for
    each generator t with smallest variable x_m and each j > m, the
    exchange x_j * t / x_m lies in the ideal."""
    for e in gens:
        m = min_index(e)
        if m is None:
            continue
        for j in range(m + 1, nvars):
            moved = list(e)
            moved[m] -= 1
            moved[j] += 1
            if not ideal_contains(gens, tuple(moved)):
                return False
    return True


# ---------- Pommaret cones by scanning ----------
# The cone machinery as it was before `monom.ConeIndex`: every lookup tests
# every vertex with `in_cone`.


def in_cone(vertex, e) -> bool:
    """Whether x^e lies in the Pommaret cone of x^vertex."""
    if not exp_divides(vertex, e):
        return False
    m = min_index(vertex)
    if m is None:
        return True
    return all(e[i] == vertex[i] for i in range(m + 1, len(e)))


def covering_scan(terms, t) -> set:
    """Every vertex whose cone contains t."""
    return {s for s in terms if s.comp == t.comp and in_cone(s.exp, t.exp)}


def cone_divisor_scan(terms, t):
    for g in terms:
        if g.comp == t.comp and in_cone(g.exp, t.exp):
            return g
    return None


def _nonmultiplicative(e, n: int):
    m = min_index(e)
    return range((n if m is None else m) + 1, n + 1)


def is_pommaret_basis_scan(terms, layout: FreeModuleLayout) -> bool:
    terms = set(terms)
    n = layout.n
    for t in terms:
        for s in terms:
            if s != t and s.comp == t.comp and in_cone(s.exp, t.exp):
                return False
    for t in terms:
        for j in _nonmultiplicative(t.exp, n):
            prol = exp_add(t.exp, var_exp(layout.nvars, j))
            hits = sum(
                1 for s in terms if s.comp == t.comp and in_cone(s.exp, prol)
            )
            if hits != 1:
                return False
    return True


def complete_component_scan(exps, nvars: int):
    """Add the least uncovered prolongation, in (degree, exponent) order,
    recomputing every uncovered prolongation by a scan after each step."""
    basis = set(exps)
    n = nvars - 1
    while True:
        pending = set()
        for e in basis:
            for j in _nonmultiplicative(e, n):
                prol = exp_add(e, var_exp(nvars, j))
                if not any(in_cone(v, prol) for v in basis):
                    pending.add(prol)
        if not pending:
            return basis
        basis.add(min(pending, key=lambda e: (exp_deg(e), e)))


def completion_without_fast_path(module):
    """The term set of `pommaret_completion` without its fast path: the
    witness scan (raising `NotQuasiStable`) and the completion of every
    component's minimal generators, inserted into the set in the same order,
    so that the result iterates as the completion's terms do."""
    layout = module.layout
    terms = set()
    for k in range(1, layout.rank + 1):
        gens = module.component(k)
        if not gens:
            continue
        witness = _quasi_stable_witness(gens, layout.nvars)
        if witness is not None:
            raise NotQuasiStable(ModuleTerm(witness[0], k), witness[1])
        for e in _complete_component(set(gens), layout.nvars):
            terms.add(ModuleTerm(e, k))
    return frozenset(terms)


def elements_matrix(elems, columns):
    index = {t: i for i, t in enumerate(columns)}
    rows = []
    for el in elems:
        row = [Fraction(0)] * len(columns)
        for t, c in el.terms.items():
            row[index[t]] = c
        rows.append(row)
    return rows


def dense_rref(rows: list[list[Rational]]) -> tuple[list[list[Rational]], list[int]]:
    """Reduced row echelon form of dense rows, the reference for the sparse
    `linalg.rref`: classical Gaussian elimination, column by column.

    Returns the non-zero rows and the pivot column indices (ascending; one
    per returned row).  Input rows are not modified.  A pivot row is divided
    as ``rational(Fraction(x) / pivot)``, as in `linalg`.
    """
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, len(mat)):
            if mat[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        pv = mat[rank][col]
        if pv != 1:
            mat[rank] = [rational(Fraction(x) / pv) for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                factor = mat[r][col]
                row = mat[r]
                top = mat[rank]
                mat[r] = [a - factor * b for a, b in zip(row, top)]
        pivots.append(col)
        rank += 1
        if rank == len(mat):
            break
    return mat[:rank], pivots


def span_rank(elems, columns) -> int:
    return len(dense_rref(elements_matrix(elems, columns))[0])


def monomial_marked_set(basis: PommaretBasis) -> MarkedSet:
    """The marked set with zero tails: U as a marked basis over itself."""
    elements = [
        MarkedElement(ModuleElement(basis.layout, {t: 1}), t)
        for t in basis.sorted_terms()
    ]
    return MarkedSet(basis, elements)


def transform_exponent(images, exp):
    """The image of x^exp under the coordinate change with these variable
    images, multiplied out one variable at a time."""
    out = {(0,) * len(exp): 1}
    for i, power in enumerate(exp):
        for _ in range(power):
            product = {}
            poly_add_product(product, out, images[i], 1)
            out = product
    return out


def dense_extract_marked_basis(basis: PommaretBasis, images):
    """The marked basis over `basis` of the image of U, read off the dense
    RREF of the images of the terms of U_s over the columns U_s, then N_s,
    both in listing order; None when the complement terms do not split
    that slice.  The reference for `randgen._extract_marked_basis`."""
    layout = basis.layout
    elements = {}
    for s in sorted({layout.term_degree(t) for t in basis.terms}):
        u_terms = module_terms_of_degree(basis, s)
        n_terms = complement_terms(basis, s)
        columns = {t: i for i, t in enumerate(u_terms + n_terms)}
        rows = []
        for u in u_terms:
            row = [0] * len(columns)
            for e, c in transform_exponent(images, u.exp).items():
                row[columns[ModuleTerm(e, u.comp)]] = c
            rows.append(row)
        reduced, pivots = dense_rref(rows)
        if pivots != list(range(len(u_terms))):
            return None
        for head in basis.sorted_terms():
            if layout.term_degree(head) != s:
                continue
            row = reduced[u_terms.index(head)]
            terms = {head: 1}
            for j, tail in enumerate(n_terms):
                c = row[len(u_terms) + j]
                if c:
                    terms[tail] = c
            elements[head] = MarkedElement(ModuleElement(layout, terms), head)
    return MarkedSet(basis, [elements[h] for h in basis.sorted_terms()])


def multiplicative_products(marked, s: int):
    """The scaled copies x^delta * f with delta multiplicative, degree s."""
    layout = marked.layout
    out = []
    for el in marked.ordered():
        free = s - layout.term_degree(el.head)
        if free < 0:
            continue
        m = min_index(el.head.exp)
        top = layout.n if m is None else m
        for delta in terms_of_degree(top + 1, free):
            full = delta + (0,) * (layout.nvars - len(delta))
            out.append(mul_term(el.body, full))
    return out


def all_products(marked, s: int):
    """Every x^delta * f of degree s (spanning the graded piece of <G>)."""
    layout = marked.layout
    out = []
    for el in marked.ordered():
        free = s - layout.term_degree(el.head)
        if free < 0:
            continue
        for delta in terms_of_degree(layout.nvars, free):
            out.append(mul_term(el.body, delta))
    return out


def all_module_terms(layout: FreeModuleLayout, s: int):
    out = []
    for k in range(1, layout.rank + 1):
        d = s - layout.weight(k)
        if d < 0:
            continue
        out.extend(ModuleTerm(e, k) for e in terms_of_degree(layout.nvars, d))
    return out


# ---------- shifted elements ----------


def term_mul(t: ModuleTerm, e) -> ModuleTerm:
    return ModuleTerm(exp_add(t.exp, e), t.comp)


def mul_term(f: ModuleElement, e) -> ModuleElement:
    """x^e times the element f, term by term, as module terms: the
    reference for the kernel's packed shift of a prolongation."""
    if len(e) != f.layout.nvars:
        raise ValueError(f"exponent length {len(e)} != {f.layout.nvars}")
    return ModuleElement._trusted(
        f.layout,
        {term_mul(t, e): c for t, c in f.terms.items()},
        None if f.degree is None else f.degree + exp_deg(e),
    )


# ---------- dense parameter polynomials ----------
# The reference for ParamPoly: a dict {dense exponent tuple over all
# parameters: non-zero Fraction}, with the arithmetic written out directly.


def param_poly(nparams: int, dense: Mapping) -> ParamPoly:
    """The ParamPoly of a dense polynomial over `nparams` parameters, zero
    coefficients dropped and integral ones stored as ints."""
    terms = {}
    for e, c in dense.items():
        if len(e) != nparams:
            raise ValueError("parameter exponent of wrong length")
        c = rational(Fraction(c))
        if c:
            terms[tuple((i, x) for i, x in enumerate(e) if x)] = c
    return ParamPoly(nparams, terms)


def dense_terms(p: ParamPoly) -> dict:
    """The terms of p keyed by dense exponent tuples over all parameters."""
    dense = {}
    for m, c in p._terms.items():
        e = [0] * p.nparams
        for i, power in m:
            e[i] = power
        dense[tuple(e)] = c
    return dense


def dense_add(p, q):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def dense_neg(p):
    return {e: -c for e, c in p.items()}


def dense_sub(p, q):
    return dense_add(p, dense_neg(q))


def dense_mul(p, q):
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def dense_occurring(p) -> set[int]:
    return {i for e in p for i, x in enumerate(e) if x}


def param_variable(nparams: int, i: int) -> ParamPoly:
    """The parameter C_i as a ParamPoly over `nparams` parameters."""
    if not 0 <= i < nparams:
        raise ValueError(f"parameter index {i} out of range")
    return ParamPoly(nparams, {((i, 1),): 1})


def evaluate(p: ParamPoly, assignment: Mapping[int, Rational]) -> Rational:
    """The value of p at an assignment {parameter index: rational}; every
    parameter occurring in p must be assigned."""
    missing = {i for m in p._terms for i, _ in m if i not in assignment}
    if missing:
        raise MissingParameter(f"parameters {sorted(missing)} unassigned")
    total = 0
    for m, c in p._terms.items():
        v = c
        for i, power in m:
            v *= assignment[i] if power == 1 else assignment[i] ** power
        total += v
    return rational(total)


def vanishes_at(fam, assignment: Mapping[int, Rational]) -> bool:
    """Whether every generator of a `family.FamilyIdeal` vanishes at the
    assignment."""
    return all(evaluate(g, assignment) == 0 for g in fam.generators)


def dense_evaluate(p, point) -> Fraction:
    total = Fraction(0)
    for e, c in p.items():
        v = c
        for i, x in enumerate(e):
            v *= Fraction(point[i]) ** x
        total += v
    return total


def dense_sorted_terms(p):
    """Degree ascending, then ascending exponent tuple."""
    return sorted(p.items(), key=lambda item: (sum(item[0]), item[0]))


def sparse_mono_mul(a, b):
    """The product of two sparse parameter monomials (sorted (index, power)
    pairs) through a dict of powers and one sort: the reference for
    `ring._mono_mul`."""
    powers = dict(a)
    for i, p in b:
        powers[i] = powers.get(i, 0) + p
    return tuple(sorted(powers.items()))


def sparse_mono_order_key(m):
    """Degree, then the (-index, power) pairs: the reference for
    `ring._mono_order_key`, whose order must be this one."""
    return (sum(p for _, p in m), tuple((-i, p) for i, p in m))


def dense_format(p, names) -> str:
    """The printed form: signed terms in sorted order, the magnitude before
    the parameters, which appear in index order."""
    if not p:
        return "0"
    out = ""
    for e, c in dense_sorted_terms(p):
        factors = [
            names[i] if x == 1 else f"{names[i]}^{x}" for i, x in enumerate(e) if x
        ]
        mag = abs(c)
        body = "*".join(([] if mag == 1 and factors else [str(mag)]) + factors)
        if not out:
            out = ("-" if c < 0 else "") + body
        else:
            out += f" {'-' if c < 0 else '+'} {body}"
    return out


# ---------- dense minimization ----------
# The reference for `syzygy.minimize_resolution`: the same pivot order and
# eliminations on a dense grid mat[row][column] with {} for a zero entry,
# the layout the differentials were stored in before they became sparse
# columns.  The level-0 map is one more grid, with a row per component of
# the ambient free module.  Products and scaled sums are the naive ones
# below, so the reference shares no polynomial arithmetic with
# `ring.poly_add_product`.


def naive_mul(p, q):
    """The product of two scalar polynomials: every pair of terms, then the
    zero sums dropped."""
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def naive_add_scaled(target, source, factor):
    """target += factor * source in place, in Fractions; a zero sum is
    dropped and an integral one stored as an int."""
    for e, c in source.items():
        total = Fraction(target.get(e, 0)) + factor * c
        if total:
            target[e] = total.numerator if total.denominator == 1 else total
        else:
            target.pop(e, None)


def dense_find_pivot(matrices):
    """The first non-zero constant entry: lowest differential, then row,
    then column."""
    for i, mat in enumerate(matrices):
        for r, row in enumerate(mat):
            for c, entry in enumerate(row):
                if entry:
                    v = poly_constant(entry)
                    if v is not None:
                        return i, r, c, v
    return None


def dense_minimize_resolution(res: FreeResolution):
    """Minimize `res` on dense grids.  Returns the result in columns and the
    cancelled pivots as (differential, row, column, value), in order."""
    pivots = []
    degrees = [list(d) for d in res.degrees]
    heights = [res.layout.rank] + [len(d) for d in degrees]
    bodies, *matrices = [
        [[dict(col.get(r, {})) for col in mat] for r in range(heights[i])]
        for i, mat in enumerate([res.bodies, *res.matrices])
    ]

    while True:
        found = dense_find_pivot(matrices)
        if found is None:
            break
        pivots.append(found)
        i, r, c, pivot = found
        mat = matrices[i]
        assert degrees[i][r] == degrees[i + 1][c]

        # Column elimination: new gen_c' = gen_c' - factor_c' * gen_c at level i+1.
        factors = {}
        for c2, entry in enumerate(mat[r]):
            if c2 != c and entry:
                factors[c2] = {e: rational(Fraction(v) / pivot) for e, v in entry.items()}
        for c2, factor in factors.items():
            for row in mat:
                if row[c]:
                    naive_add_scaled(row[c2], naive_mul(factor, row[c]), -1)
        if i + 1 < len(matrices):
            upper = matrices[i + 1]
            for c2, factor in factors.items():
                for col in range(len(upper[c2])):
                    if upper[c2][col]:
                        naive_add_scaled(upper[c][col], naive_mul(factor, upper[c2][col]), 1)

        # Row elimination: new gen_r = gen_r + sum(mu_r2 * gen_r2) at level i.
        mus = {}
        for r2 in range(len(mat)):
            if r2 != r and mat[r2][c]:
                mus[r2] = {e: rational(Fraction(v) / pivot) for e, v in mat[r2][c].items()}
        for r2, mu in mus.items():
            scaled = [naive_mul(mu, entry) if entry else {} for entry in mat[r]]
            for c2 in range(len(mat[r2])):
                if scaled[c2]:
                    naive_add_scaled(mat[r2][c2], scaled[c2], -1)
        lower = matrices[i - 1] if i else bodies
        for r2, mu in mus.items():
            for row in lower:
                if row[r2]:
                    naive_add_scaled(row[r], naive_mul(mu, row[r2]), 1)

        if i + 1 < len(matrices):
            del matrices[i + 1][c]
        for row in lower:
            del row[r]
        del mat[r]
        for row in mat:
            del row[c]
        del degrees[i + 1][c]
        del degrees[i][r]

        while degrees and not degrees[-1]:
            del degrees[-1]
            matrices.pop()

    bodies, *columns = [
        [{r: row[c] for r, row in enumerate(mat) if row[c]} for c in range(len(degrees[i]))]
        for i, mat in enumerate([bodies, *matrices])
    ]
    return FreeResolution(res.layout, bodies, degrees, columns), pivots


def naive_complex_vanishes(res: FreeResolution) -> bool:
    """The reference for `syzygy.verify_complex`: every column of every
    differential composed with the map below it (the bodies below
    matrices[0]) entry by entry, on tuple-keyed polynomials with the naive
    products and sums above and no packing."""
    for k, mat in enumerate(res.matrices):
        lower = res.matrices[k - 1] if k else res.bodies
        for column in mat:
            image: dict[int, dict] = {}
            for k2, entry in column.items():
                for r, p in lower[k2].items():
                    naive_add_scaled(image.setdefault(r, {}), naive_mul(entry, p), 1)
            if any(image.values()):
                return False
    return True


def syzygy_levels(marked: MarkedSet) -> list[MarkedSet]:
    """The marked sets of the iterated syzygy construction, level 0 first,
    as `free_resolution` builds them one after the other and lets go."""
    levels = [marked]
    while any(prolongations(levels[-1])):
        levels.append(syzygy_marked_basis(levels[-1])[0])
    return levels


# ---------- marked reduction in a chosen order ----------


def exp_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def lex_key(a):
    """Exponents compared lex with x_n most significant."""
    return a[::-1]


def lex_greatest(candidates):
    """The reducible term the kernel attacks: lex-greatest exponent (x_n
    most significant), then the lower component."""
    return max(candidates, key=lambda t: (lex_key(t.exp), -t.comp))


def evaluate_representation(rep: Representation, marked) -> ModuleElement:
    """The element a representation stands for: the sum of its summands
    c * x^mult * element(head), plus its remainder."""
    total = dict(rep.remainder.terms)
    for coeff, mult, head in rep.summands:
        body = marked.elements[head].body
        for t, c in body.terms.items():
            shifted = term_mul(t, mult)
            s = total.get(shifted)
            s = coeff * c if s is None else s + coeff * c
            if s:
                total[shifted] = s
            else:
                total.pop(shifted, None)
    return ModuleElement(rep.remainder.layout, total)


def reduce_in_order(h: ModuleElement, marked, chooser) -> Representation:
    """Marked reduction of h that scans the work element for its terms of U
    at every step and attacks `chooser(candidates)`.  The reducer of each
    term is forced, so every chooser must reach the kernel's remainder, and
    every created term of U must still have a multiplier lex-below the one
    just used.  Cones are found by `cone_divisor_scan`, memoised per call,
    not by the basis's cone index."""
    basis = marked.basis
    divisors: dict = {}

    def cone_divisor(t):
        if t not in divisors:
            divisors[t] = cone_divisor_scan(basis.terms, t)
        return divisors[t]

    work = dict(h.terms)
    summands: dict = {}
    while True:
        candidates = [t for t in work if cone_divisor(t) is not None]
        if not candidates:
            break
        target = chooser(candidates)
        head = cone_divisor(target)
        mult = exp_sub(target.exp, head.exp)
        coeff = work.pop(target)
        total = summands.get((mult, head), 0) + coeff
        if total:
            summands[(mult, head)] = total
        else:
            summands.pop((mult, head), None)
        for t, c in marked.elements[head].body.terms.items():
            if t == head:
                continue
            shifted = term_mul(t, mult)
            divisor = cone_divisor(shifted)
            if divisor is not None:
                assert lex_key(exp_sub(shifted.exp, divisor.exp)) < lex_key(mult)
            s = work.get(shifted, 0) - coeff * c
            if s:
                work[shifted] = s
            else:
                work.pop(shifted, None)
    order = {head: i for i, head in enumerate(marked.elements)}
    flat = sorted(
        ((rational(c), mult, head) for (mult, head), c in summands.items()),
        key=lambda item: (tuple(-x for x in lex_key(item[1])), order[item[2]]),
    )
    return Representation(tuple(flat), ModuleElement(basis.layout, work))


def specialize_by_evaluation(generic, assignment):
    """The generic set at an assignment keyed by parameter name or index,
    by evaluating every coefficient polynomial, and the values by index:
    the reference for `family.specialize`, which writes the values under
    the heads instead."""
    values = {}
    for key, value in assignment.items():
        idx = generic.param_names.index(key) if isinstance(key, str) else int(key)
        values[idx] = rational(Fraction(value))
    elements = []
    for el in generic.marked.ordered():
        terms = {}
        for t, coeff in el.body.terms.items():
            terms[t] = evaluate(coeff, values) if isinstance(coeff, ParamPoly) else coeff
        elements.append(MarkedElement(ModuleElement(generic.basis.layout, terms), el.head))
    return MarkedSet(generic.basis, elements), values


def parse_resolution(text: str) -> FreeResolution:
    """Rebuild a resolution from its JSON form (levels come back abstract)."""
    data = json.loads(text)
    ring = data["ring"]
    layout = FreeModuleLayout(int(ring["variables"]) - 1, tuple(ring["weights"]))
    scalar = FreeModuleLayout(layout.n, (0,))
    degrees = [list(level["degrees"]) for level in data["levels"]]
    bodies = [
        _column(parse_polynomial(s, layout)) for s in data["levels"][0]["differential"][0]
    ]
    matrices = []
    for i, level in enumerate(data["levels"][1:], start=1):
        columns: list[Column] = [{} for _ in degrees[i]]
        for r, row in enumerate(level["differential"]):
            for c, entry in enumerate(row):
                elem = parse_polynomial(entry, scalar)
                if elem.terms:
                    columns[c][r] = {t.exp: coeff for t, coeff in elem.terms.items()}
        matrices.append(columns)
    return FreeResolution(layout=layout, bodies=bodies, degrees=degrees, matrices=matrices)


# ---------- triangular representations and tail structure ----------
# Statements about marked bases over the truncation of a saturated ideal
# at a degree m >= max(rho_1, ..., rho_i).


class HypothesisViolated(MarkedBasesError):
    """A stated hypothesis of the triangular representation fails."""


class StructureViolated(InternalError):
    """The verified structural claim failed; indicates an implementation bug."""


def colon_saturation_basis(basis: PommaretBasis, j: int) -> frozenset:
    """Weak Pommaret basis of J : (xn, ..., xj)^oo, returned verbatim.

    Terms with minimal variable xj are stripped of their xj power, terms
    with larger minimal variable pass through, the rest are dropped.  The
    caller may minimalize and re-complete to obtain a true basis.
    """
    if not basis.certified:
        raise ValueError("requires a certified basis")
    if basis.layout.rank != 1:
        raise ValueError("colon saturation is defined for single-component ideals")
    out = set()
    for t in basis.terms:
        m = min_index(t.exp)
        if m is None or m > j:
            out.add(t.exp)
        elif m == j:
            stripped = list(t.exp)
            stripped[j] = 0
            out.add(tuple(stripped))
    return frozenset(out)


def contains(marked: MarkedSet, f: ModuleElement) -> bool:
    """Module membership via zero normal form; requires a certified basis."""
    if marked._certified is not True:
        raise NotABasis("membership test requires a set certified as a basis")
    return reduce_full(f, marked).remainder.is_zero()


def saturate(basis: PommaretBasis) -> PommaretBasis:
    """Pommaret basis of the saturation of an ideal, completed from the
    minimal generators of `saturation_gens`."""
    nvars = basis.layout.nvars
    gens = saturation_gens(minimalize(e for e, _ in basis.terms), nvars)
    return pommaret_completion(MonomialModule(basis.layout, [ModuleTerm(e, 1) for e in gens]))


def rho(basis: PommaretBasis, i: int) -> int:
    """Largest degree of a basis term involving xi (0 when none does)."""
    if not basis.certified:
        raise ValueError("requires a certified basis")
    if not 1 <= i <= basis.layout.n:
        raise ValueError(f"variable index {i} out of range 1..{basis.layout.n}")
    degs = [
        basis.layout.term_degree(t) for t in basis.terms if t.exp[i] >= 1
    ]
    return max(degs) if degs else 0


@dataclass(frozen=True)
class TriangularReport:
    """A structurally verified representation of x_i * F_head: all
    multipliers are single variables below x_i and the remainder is
    supported outside the untruncated ideal."""

    head: ModuleTerm
    variable: int
    representation: Representation
    verified: bool


def triangular_representation(
    generic,
    head: ModuleTerm,
    i: int,
    *,
    base: PommaretBasis,
    truncation_degree: int,
) -> TriangularReport:
    """Representation of the prolongation x_i * F_head over a generic set
    (`family.GenericMarkedSet`) on a truncated saturated ideal, with its
    triangular shape verified.

    Hypotheses checked: `base` is the certified basis of a saturated ideal,
    `generic` lives over its degree-`truncation_degree` truncation,
    truncation_degree >= max(rho_1..rho_i), and min(head) < x_i.  Under
    them, every multiplier in the representation must be one variable x_j
    with j < i, multiplicative for its own head; a violation raises
    StructureViolated and indicates a bug, never bad input.
    """
    layout = generic.basis.layout
    if layout.rank != 1 or base.layout != layout:
        raise HypothesisViolated("triangular representations live over a single ideal")
    if not base.certified:
        raise HypothesisViolated("base basis must be certified")
    if not basis_invariants(base).saturated:
        raise HypothesisViolated("base ideal is not saturated")
    if not 1 <= i <= layout.n:
        raise HypothesisViolated(f"variable index {i} out of range 1..{layout.n}")
    if generic.basis.terms != truncate_basis(base, truncation_degree).terms:
        raise HypothesisViolated(
            "generic set does not live over the stated truncation"
        )
    rho_bound = max(rho(base, t) for t in range(1, i + 1))
    if truncation_degree < rho_bound:
        raise HypothesisViolated(
            f"truncation degree {truncation_degree} below max rho = {rho_bound}"
        )
    if head not in generic.basis.terms:
        raise HypothesisViolated(f"{head} is not a head of the generic set")
    mi = min_index(head.exp)
    if mi is None or mi > i - 1:
        raise HypothesisViolated(f"min variable of {head} is not below x{i}")
    if layout.term_degree(head) != truncation_degree:
        raise InternalError(f"{head} is a head of the truncation off its degree")

    # min(head) < x_i makes x_i non-multiplicative: x_i * F_head is a
    # prolongation, and its reduction is the memoised one.
    rep = prolongation_rep(generic.marked, head, i)
    for _, mult, tau in rep.summands:
        if exp_deg(mult) != 1:
            raise StructureViolated(f"multiplier x^{mult} is not a single variable")
        j = min_index(mult)
        if j >= i:
            raise StructureViolated(f"multiplier x{j} not below x{i}")
        if j > pommaret_class(tau.exp, layout.n):
            raise StructureViolated(f"multiplier x{j} not multiplicative for {tau}")
    for t in rep.remainder.terms:
        if cone_divisor_scan(base.terms, t) is not None:
            raise StructureViolated(f"remainder term {t} lies inside the base ideal")
    return TriangularReport(head, i, rep, True)


def _tail_terms(el: MarkedElement) -> list[ModuleTerm]:
    return [t for t in el.body.terms if t != el.head]


def tails_respect_min_variable(marked: MarkedSet) -> bool:
    """Every tail term's minimal variable stays at or below the head's."""
    for el in marked.ordered():
        hmin = min_index(el.head.exp)
        if hmin is None:
            continue
        for t in _tail_terms(el):
            tmin = min_index(t.exp)
            if tmin is None or tmin > hmin:
                return False
    return True


def x0_heads_are_divisible(marked: MarkedSet) -> bool:
    """Elements whose head involves x0 have x0 dividing every tail term."""
    for el in marked.ordered():
        if min_index(el.head.exp) == 0:
            for t in _tail_terms(el):
                if t.exp[0] == 0:
                    return False
    return True
