"""Syzygies of marked bases, iterated free resolutions, minimization, bounds.

For each element of a marked basis and each non-multiplicative variable of
its head, the full reduction of the prolongation yields a multiplicative
representation x_i*f_k = sum(P_l * f_l); the corresponding fundamental
syzygy x_i*e_k - sum(P_l * e_l) is a marked element in a free module whose
generator weights are the head degrees one level below.  These syzygies
form a marked basis again, so the construction iterates into a free
resolution whose length and level ranks are known in advance from the
head terms alone.

Differential matrices store polynomial entries as sparse dicts
{exponent tuple: coefficient}.  matrices[i] is the map from level i+1 to
level i: rows are indexed by the level-i generators, columns by the
level-(i+1) generators, and each column is the syzygy written out in the
lower level's generators.

The syzygies are read off the memoised prolongation representations of the
marked set (`prolongation_rep`), so the basis test and the syzygy step
share one reduction per prolongation.  The self-checks cost time in
proportion to the nonzero entries they touch: the syzygy check and
`verify_complex` both compose sparse columns with `_compose_column`, which
multiplies nonzero entries only (the matrices are about 95% empty).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import add

from .marked import (
    MarkedElement,
    MarkedSet,
    NotABasis,
    is_marked_basis,
    prolongation_rep,
    prolongations,
)
from .monom import PommaretBasis, basis_invariants, is_pommaret_basis
from .ring import (
    Coeff,
    Exponent,
    FreeModuleLayout,
    MarkedBasesError,
    ModuleElement,
    ModuleTerm,
    ParamPoly,
    Poly,
    element_times_poly,
    min_index,
    poly_add_scaled,
    poly_constant,
    poly_mul,
    rational,
    var_exp,
)


class ParametricCoefficients(MarkedBasesError):
    """Minimization over parameter coefficients is not defined."""


def _require_basis(marked: MarkedSet):
    check = is_marked_basis(marked)
    if not check.is_basis:
        raise NotABasis("input marked set is not a marked basis")


def syzygy_marked_basis(marked: MarkedSet) -> tuple[PommaretBasis, MarkedSet]:
    """Marked basis of the syzygy module of a certified marked basis.

    One syzygy per prolongation, in the order of `prolongations`, read off
    the memoised reduction of that prolongation.  Every produced syzygy is
    checked to annihilate the level below, and the resulting set is
    re-certified; the re-certification reduces every prolongation of the
    new set, which fills the memo the next level's syzygy step reads.
    """
    _require_basis(marked)
    elems = marked.ordered()
    nvars = marked.layout.nvars
    weights = tuple(marked.layout.term_degree(el.head) for el in elems)
    syz_layout = FreeModuleLayout(marked.layout.n, weights)

    position = {el.head: pos for pos, el in enumerate(elems, start=1)}
    one = marked.one_like()
    lower = _elements_by_column([el.body for el in elems])
    syz_elements = []
    for el, j in prolongations(marked):
        rep = prolongation_rep(marked, el, j)
        assert rep.remainder.is_zero(), "prolongation of a certified basis must vanish"
        head = ModuleTerm(var_exp(nvars, j), position[el.head])
        body_terms: dict[ModuleTerm, Coeff] = {head: one}
        for coeff, mult, tau in rep.summands:
            t = ModuleTerm(mult, position[tau])
            prev = body_terms.get(t)
            s = -coeff if prev is None else prev - coeff
            if s:
                body_terms[t] = s
            else:
                body_terms.pop(t, None)
        body = ModuleElement(syz_layout, body_terms)
        [column] = _elements_by_column([body])
        assert not _compose_column(lower, column), "produced element is not a syzygy"
        syz_elements.append(MarkedElement(body, head))

    syz_terms = frozenset(el.head for el in syz_elements)
    syz_basis = PommaretBasis(syz_layout, syz_terms, certified=True)
    assert not syz_terms or is_pommaret_basis(syz_terms, syz_layout)
    syz_set = MarkedSet(syz_basis, syz_elements)
    if syz_elements:
        recheck = is_marked_basis(syz_set)
        assert recheck.is_basis, "syzygy set failed the marked-basis re-check"
    return syz_basis, syz_set


def _differential_matrix(lower: MarkedSet, upper: MarkedSet) -> list[list[Poly]]:
    rows = len(lower)
    mat: list[list[Poly]] = [[{} for _ in range(len(upper))] for _ in range(rows)]
    for c, el in enumerate(upper.ordered()):
        for t, coeff in el.body.terms.items():
            entry = mat[t.comp - 1][c]
            s = entry.get(t.exp)
            s = coeff if s is None else s + coeff
            if s:
                entry[t.exp] = s
            else:
                entry.pop(t.exp, None)
    return mat


@dataclass
class FreeResolution:
    """Graded free resolution with explicit differentials.

    degrees[i] lists the generator degrees of the i-th free module, aligned
    with the rows/columns of the matrices.  ``levels`` holds the marked sets
    of the iterated syzygy construction and is dropped by minimization.
    """

    layout: FreeModuleLayout
    bodies: list[ModuleElement]
    degrees: list[list[int]]
    matrices: list[list[list[Poly]]]
    levels: list[MarkedSet] | None = None

    @property
    def length(self) -> int:
        return len(self.degrees) - 1

    def rank_table(self) -> dict[int, dict[int, int]]:
        table: dict[int, dict[int, int]] = {}
        for i, degs in enumerate(self.degrees):
            counts: dict[int, int] = {}
            for d in degs:
                counts[d] = counts.get(d, 0) + 1
            table[i] = dict(sorted(counts.items()))
        return table

    def rank_pairs(self) -> dict[tuple[int, int], int]:
        return {
            (i, j): c
            for i, counts in self.rank_table().items()
            for j, c in counts.items()
        }


def free_resolution(marked: MarkedSet) -> FreeResolution:
    """Iterate the syzygy construction until a level has no prolongation
    left; the length comes out as n - D with D the least minimal-variable
    index among the level-0 heads."""
    _require_basis(marked)
    levels = [marked]
    matrices: list[list[list[Poly]]] = []
    current = marked
    while any(prolongations(current)):
        _, syz_set = syzygy_marked_basis(current)
        matrices.append(_differential_matrix(current, syz_set))
        levels.append(syz_set)
        current = syz_set

    degrees = [
        [lvl.layout.term_degree(el.head) for el in lvl.ordered()] for lvl in levels
    ]
    res = FreeResolution(
        layout=marked.layout,
        bodies=[el.body for el in marked.ordered()],
        degrees=degrees,
        matrices=matrices,
        levels=levels,
    )
    d = basis_invariants(marked.basis).D
    assert res.length == marked.layout.n - d, "resolution length differs from n - D"
    assert verify_complex(res), "constructed resolution failed the complex check"
    return res


def _nonzero_by_column(mat: list[list[Poly]], ncols: int) -> list[list[tuple[int, Poly]]]:
    """The nonzero entries of a matrix as (row, entry) lists, one per column."""
    cols: list[list[tuple[int, Poly]]] = [[] for _ in range(ncols)]
    for r, row in enumerate(mat):
        for c, entry in enumerate(row):
            if entry:
                cols[c].append((r, entry))
    return cols


def _elements_by_column(elements: list[ModuleElement]) -> list[list[tuple[int, Poly]]]:
    """The matrix whose column r is elements[r], indexed by column like
    `_nonzero_by_column`: (component - 1, scalar polynomial) pairs, one per
    component the element touches."""
    cols = []
    for elem in elements:
        by_comp: dict[int, Poly] = {}
        for t, c in elem.terms.items():
            by_comp.setdefault(t.comp - 1, {})[t.exp] = c
        cols.append(list(by_comp.items()))
    return cols


def _compose_column(
    lower: list[list[tuple[int, Poly]]], column: list[tuple[int, Poly]]
) -> dict[tuple[int, Exponent], Coeff]:
    """One column of lower * upper, from the nonzero entries of the upper
    column and of the lower matrix indexed by column: the products of
    nonzero entries only, added into one accumulator keyed by (row, exponent).
    The result is empty exactly when the column composes to zero."""
    acc: dict[tuple[int, Exponent], Coeff] = {}
    for k, q in column:
        for r, p in lower[k]:
            for e1, c1 in p.items():
                for e2, c2 in q.items():
                    key = (r, tuple(map(add, e1, e2)))
                    prev = acc.get(key)
                    total = c1 * c2 if prev is None else prev + c1 * c2
                    if total:
                        acc[key] = total
                    else:
                        del acc[key]
    return acc


def verify_complex(res: FreeResolution) -> bool:
    """Exactness of the chain property: consecutive differentials compose to
    zero, including the level-0 map given by the generator bodies.

    Each matrix, the level-0 map included, is indexed by column once and
    composed column by column with `_compose_column`, so the cost follows
    the nonzero entries, not rows x columns x middle.
    """
    cols = [_elements_by_column(res.bodies)] + [
        _nonzero_by_column(mat, len(res.degrees[i + 1]))
        for i, mat in enumerate(res.matrices)
    ]
    for lower, upper in zip(cols, cols[1:]):
        if any(_compose_column(lower, column) for column in upper):
            return False
    return True


def _has_parametric(res: FreeResolution) -> bool:
    """Whether any coefficient is a ParamPoly; empty entries (most of the
    matrices) are skipped before anything else is looked at."""
    for body in res.bodies:
        if any(isinstance(c, ParamPoly) for c in body.terms.values()):
            return True
    for mat in res.matrices:
        for row in mat:
            for entry in row:
                if entry and any(isinstance(c, ParamPoly) for c in entry.values()):
                    return True
    return False


def _find_pivot(matrices):
    """The first non-zero constant entry: lowest differential, then row,
    then column; empty entries are skipped unexamined."""
    for i, mat in enumerate(matrices):
        for r, row in enumerate(mat):
            for c, entry in enumerate(row):
                if entry:
                    v = poly_constant(entry)
                    if v is not None:
                        return i, r, c, v
    return None


def minimize_resolution(res: FreeResolution) -> FreeResolution:
    """Cancel invertible constant entries by row/column elimination until
    none remain; over the rationals the surviving ranks are the actual
    Betti numbers of the resolved module.

    Pivots are processed deterministically (lowest differential first, then
    smallest row, then smallest column).  The input is left untouched.
    """
    if _has_parametric(res):
        raise ParametricCoefficients("cannot minimize with parameter coefficients")

    bodies = list(res.bodies)
    degrees = [list(d) for d in res.degrees]
    matrices = [
        [[dict(entry) for entry in row] for row in mat] for mat in res.matrices
    ]

    while True:
        found = _find_pivot(matrices)
        if found is None:
            break
        i, r, c, pivot = found
        mat = matrices[i]
        assert degrees[i][r] == degrees[i + 1][c], "constant entry links unequal degrees"

        # Column elimination: new gen_c' = gen_c' - factor_c' * gen_c at level i+1.
        factors = {}
        for c2, entry in enumerate(mat[r]):
            if c2 != c and entry:
                factors[c2] = {e: rational(Fraction(v) / pivot) for e, v in entry.items()}
        for c2, factor in factors.items():
            for row in mat:
                if row[c]:
                    poly_add_scaled(row[c2], poly_mul(factor, row[c]), -1)
        if i + 1 < len(matrices):
            upper = matrices[i + 1]
            for c2, factor in factors.items():
                for col in range(len(upper[c2])):
                    if upper[c2][col]:
                        poly_add_scaled(upper[c][col], poly_mul(factor, upper[c2][col]), 1)

        # Row elimination: new gen_r = gen_r + sum(mu_r2 * gen_r2) at level i.
        mus = {}
        for r2 in range(len(mat)):
            if r2 != r and mat[r2][c]:
                mus[r2] = {e: rational(Fraction(v) / pivot) for e, v in mat[r2][c].items()}
        for r2, mu in mus.items():
            scaled = [poly_mul(mu, entry) if entry else {} for entry in mat[r]]
            for c2 in range(len(mat[r2])):
                if scaled[c2]:
                    poly_add_scaled(mat[r2][c2], scaled[c2], -1)
        if i >= 1:
            lower = matrices[i - 1]
            for r2, mu in mus.items():
                for row in lower:
                    if row[r2]:
                        poly_add_scaled(row[r], poly_mul(mu, row[r2]), 1)
        else:
            for r2, mu in mus.items():
                bodies[r] = bodies[r] + element_times_poly(bodies[r2], mu)

        # The pivot row/column are now clean; the paired generators go away.
        assert all(not e for c2, e in enumerate(mat[r]) if c2 != c)
        assert all(not row[c] for r2, row in enumerate(mat) if r2 != r)
        if i + 1 < len(matrices):
            assert all(not e for e in matrices[i + 1][c]), "dependent row survived"
            del matrices[i + 1][c]
        if i >= 1:
            assert all(not row[r] for row in matrices[i - 1]), "dependent column survived"
            for row in matrices[i - 1]:
                del row[r]
        else:
            assert bodies[r].is_zero(), "eliminated generator had non-zero image"
            del bodies[r]
        del mat[r]
        for row in mat:
            del row[c]
        del degrees[i + 1][c]
        del degrees[i][r]

        while degrees and not degrees[-1]:
            del degrees[-1]
            removed = matrices.pop()
            assert all(not row for row in removed) or not removed

    out = FreeResolution(
        layout=res.layout,
        bodies=bodies,
        degrees=degrees,
        matrices=matrices,
        levels=None,
    )
    assert verify_complex(out), "minimized resolution failed the complex check"
    return out


def predicted_ranks(basis: PommaretBasis) -> dict[tuple[int, int], int]:
    """Level ranks of the syzygy resolution, from the basis terms alone.

    A basis term of degree j0 with minimal variable x_k spawns binom(n-k, i)
    generators of degree j0+i at level i (one per ascending chain of i
    non-multiplicative variables), so

        r[i, j] = sum over k of binom(n-k, i) * beta[k][j-i]

    with beta[k][j0] the number of basis terms of degree j0 and minimal
    variable x_k.  The count is independent of the tails: every marked basis
    over the same head terms produces these exact level sizes.  For a module
    the degree of a term x^a e_k is |a| plus the weight of e_k, and the
    formula is the same.
    """
    if not basis.certified:
        raise ValueError("requires a certified basis")
    n = basis.layout.n
    beta: dict[int, dict[int, int]] = {}
    d_min = n
    for t in basis.terms:
        k = min_index(t.exp)
        if k is None:
            k = n
        j = basis.layout.term_degree(t)
        beta.setdefault(k, {})
        beta[k][j] = beta[k].get(j, 0) + 1
        d_min = min(d_min, k)
    if not basis.terms:
        return {}
    out: dict[tuple[int, int], int] = {}
    for i in range(0, n - d_min + 1):
        for k, by_deg in beta.items():
            w = comb(n - k, i)
            if not w:
                continue
            for j0, count in by_deg.items():
                key = (i, j0 + i)
                out[key] = out.get(key, 0) + w * count
    return out


@dataclass(frozen=True)
class BoundsReport:
    """Upper bounds valid for any module generated by a marked basis over
    the given head terms: entrywise Betti bounds, regularity, and projective
    dimension."""

    betti_bound_table: dict[tuple[int, int], int]
    regularity_bound: int
    pdim_bound: int


def invariant_bounds(basis: PommaretBasis) -> BoundsReport:
    inv = basis_invariants(basis)
    return BoundsReport(
        betti_bound_table=predicted_ranks(basis),
        regularity_bound=inv.regularity,
        pdim_bound=inv.projective_dimension,
    )
