"""Syzygies of marked bases, iterated free resolutions, minimization, bounds.

For each element of a marked basis and each non-multiplicative variable of
its head, the full reduction of the prolongation yields a multiplicative
representation x_i*f_k = sum(P_l * f_l); the corresponding fundamental
syzygy x_i*e_k - sum(P_l * e_l) is a marked element in a free module whose
generator weights are the head degrees one level below.  These syzygies
form a marked basis again, so the construction iterates into a free
resolution whose length and level ranks are known in advance from the
head terms alone.

Differentials are stored as sparse columns.  matrices[i] is the map from
level i+1 to level i, one column per level-(i+1) generator; a column is a
dict {row: entry}, the row a 0-based level-i generator index and the entry
a non-zero scalar polynomial {exponent tuple: coefficient}.  A column is
the syzygy written out in the lower level's generators, and no column ever
stores an empty entry.  The level-0 map is stored in the same layout:
`FreeResolution.bodies` holds one column per generator, its image
`_column(body)` in the ambient free module, with row k-1 for the component
e_k.

The syzygies are read off the memoised prolongation representations of the
marked set (`prolongation_rep`), so the basis test and the syzygy step
share one reduction per prolongation, and each syzygy is written once, as
its column and its packed body side by side.

The chain property (consecutive maps compose to zero) is checked by one
composer, `_evaluate_column`, where a differential is written: the syzygy
step evaluates each column it stores against the packed bodies of the
level below.  `verify_complex` checks a whole resolution with the same
composer, on each lower map's columns packed first; minimization calls it
once, when it cancelled a pivot.  These self-checks and the minimization
invariants touch non-zero entries only and raise `InternalError`, so they
also run under ``python -O``.

The packed bodies are the ones the reduction kernel reads
(`MarkedSet.packed_bodies`): one int per term, rank - comp in the lowest
field, then one field per variable with x_n most significant.  Level 0
keeps the packing of its basis, and each syzygy level is packed by the
same width rule, one degree above its heads.  The summands of a
reduction come packed (`Representation.packed`), so a syzygy level is
built packed with no term of it unpacked but its column entries, and
each distinct multiplier of a level is unpacked and packed again once.
Its heads are x_j*e_k for j above the class c_k of the k-th head one
level down (Albert, Fetzer, Sáenz-de-Cabezón and Seiler, "On the free
resolution induced by a Pommaret basis", J. Symb. Comput. 68, 2015), so
its cones are looked up by that shape (`monom.ShapeCones`).  The image
of a column has the degree of a prolongation of its level, so it fits,
and an entry c*x^e of row k adds the packed x^e to each term of the k-th
body: one int addition.

The eliminations of minimization share one step, `_add_scaled_column`,
which does all of their coefficient arithmetic through
`ring.poly_add_product`; only the division by a pivot is apart (`_over`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .marked import (
    MarkedSet,
    NotABasis,
    is_marked_basis,
    prolongation_rep,
    prolongations,
)
from .monom import PommaretBasis, ShapeCones, basis_invariants, pommaret_class
from .ring import (
    Coeff,
    FreeModuleLayout,
    InternalError,
    MarkedBasesError,
    ModuleElement,
    ModuleTerm,
    ParamPoly,
    Poly,
    TermPacking,
    poly_add_product,
    poly_constant,
    rational,
    var_exp,
)


Column = dict[int, Poly]  # row index -> non-zero entry


class ParametricCoefficients(MarkedBasesError):
    """Minimization over parameter coefficients is not defined."""


def _require_basis(marked: MarkedSet):
    check = is_marked_basis(marked)
    if not check.is_basis:
        raise NotABasis("input marked set is not a marked basis")


def _column(elem: ModuleElement) -> Column:
    """An element as a column: component - 1 -> its scalar polynomial."""
    col: Column = {}
    for t, c in elem.terms.items():
        col.setdefault(t.comp - 1, {})[t.exp] = c
    return col


def syzygy_marked_basis(marked: MarkedSet) -> tuple[MarkedSet, list[Column]]:
    """Marked basis of the syzygy module of a certified marked basis, with
    the syzygies as columns over the generators of `marked`.

    One syzygy per prolongation, in the order of `prolongations`, read off
    the packed summands of its memoised reduction (`Representation.packed`)
    in one pass that writes its column and its packed body, under the
    packing of the syzygy level (see the module docstring).

    The checks: each tail term must lie outside the syzygy module (its
    multiplier's top variable at most the class of its row's head); every
    column is composed with the level below and must give zero (the chain
    check, `_evaluate_column` on the packed bodies of `marked`, which also
    refuses a wrong multiplier or row, and a multiplicative x_j); the
    heads must have the shape of their Pommaret basis, each x_j*e_k with j
    above the class of the k-th head of `marked` once, so they must be
    distinct and that many; and the new set is re-certified, which reduces
    every prolongation of it and so fills the memo the next step reads.
    The returned columns come in the element order of the returned set.
    """
    _require_basis(marked)
    layout, below = marked.layout, marked.basis.packing
    n = layout.n
    heads = [head for head, _, _ in marked.packed_bodies.values()]
    weights = tuple(map(layout.term_degree, heads))
    classes = [pommaret_class(head.exp, n) for head in heads]
    syz_layout = FreeModuleLayout(n, weights)
    # One degree above the heads x_j*e_k, so every prolongation fits.
    packing = TermPacking(syz_layout, max(weights) + 2)
    rank, shifts, width = len(heads), packing.shifts, packing.mask.bit_length()
    one = 1 if marked.nparams is None else ParamPoly.const(marked.nparams, 1)
    rows = [((p, *terms), (1, *coeffs)) for p, (_, terms, coeffs) in marked.packed_bodies.items()]
    position, index = marked.position, {head: k for k, head in enumerate(heads)}
    # One tuple per multiplier of the level, which all its columns share;
    # per packed multiplier, that tuple, its packed form in the syzygy
    # module and its top variable.  shift_of is what the chain check adds.
    units = [var_exp(n + 1, j) for j in range(n + 1)]
    exps = dict(zip(units, units))
    shift_of = dict(zip(units, (1 << s for s in below.shifts)))
    mults: dict[int, tuple] = {}
    bodies: dict[int, tuple] = {}
    columns: list[Column] = []
    for head, j in prolongations(marked):
        rep = prolongation_rep(marked, head, j)
        if rep.remainder.terms:
            raise InternalError("prolongation of a certified basis does not vanish")
        k = index[head]
        column: Column = {k: {units[j]: one}}
        terms, coeffs = [], []
        for mult, divisor, coeff in rep.packed:
            entry = mults.get(mult)
            if entry is None:
                e = below.unpack_exp(mult)
                e = exps.setdefault(e, e)
                shift_of[e] = mult
                q = packing.pack_exp(e)
                entry = mults[mult] = (e, q, ((q >> shifts[0]).bit_length() - 1) // width)
            e, q, top = entry
            r = position[divisor]
            if top > classes[r]:
                raise InternalError("syzygy tail term lies in the syzygy module")
            c = -coeff
            column.setdefault(r, {})[e] = c
            terms.append(q + rank - 1 - r)
            coeffs.append(c)
        if _evaluate_column(rows, column, shift_of.__getitem__):
            raise InternalError("produced element is not a syzygy")
        bodies[(1 << shifts[j]) + rank - 1 - k] = (
            ModuleTerm(units[j], k + 1), tuple(terms), tuple(coeffs))
        columns.append(column)

    if not len(bodies) == len(columns) == sum(n - c for c in classes):
        raise InternalError("syzygy heads do not form a Pommaret basis")
    syz_heads = frozenset(syz_head for syz_head, _, _ in bodies.values())
    syz_basis = PommaretBasis(syz_layout, syz_heads, True, ShapeCones(packing, classes))
    syz_set = MarkedSet._from_packed(syz_basis, bodies, marked.nparams)
    if bodies and not is_marked_basis(syz_set).is_basis:
        raise InternalError("syzygy set failed the marked-basis re-check")
    return syz_set, columns


def _evaluate_column(rows: list[tuple[tuple, tuple]], column: Column, pack_exp) -> dict:
    """The image of a column under the map below it, as {packed term:
    coefficient} without the terms that cancel: the sum over the entries
    c*x^e in row k of c times the body of the k-th element shifted by x^e.
    `rows` holds each body of the level below as its packed terms and their
    coefficients, in element order.  Empty exactly when the column composes
    to zero."""
    acc: dict[int, Coeff] = {}
    for k, entry in column.items():
        terms, coeffs = rows[k]
        for e, c in entry.items():
            shift = pack_exp(e)
            for t, b in zip(terms, coeffs):
                t += shift
                s = acc.get(t)
                s = c * b if s is None else s + c * b
                if s:
                    acc[t] = s
                else:
                    del acc[t]
    return acc


@dataclass
class FreeResolution:
    """Graded free resolution with explicit differentials.

    degrees[i] lists the generator degrees of the i-th free module.
    matrices[i] maps level i+1 to level i as sparse columns (see the module
    docstring): column c is the image of the c-th level-(i+1) generator,
    keyed by the level-i rows it touches, with no empty entry.  bodies is
    the level-0 map in the same layout: column c is the image of the c-th
    level-0 generator in the ambient free module, row k-1 holding its e_k
    component.  ``heads`` holds each level's generator heads in element
    order, which `textio.resolution_to_dict` prints, and minimization drops
    it; equality ignores it, so two resolutions are equal when their
    layouts, degrees, generator images and differential columns are.
    """

    layout: FreeModuleLayout
    bodies: list[Column]
    degrees: list[list[int]]
    matrices: list[list[Column]]
    heads: list[list[ModuleTerm]] | None = field(default=None, compare=False)

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
    left; the length n - D (D the least class of a level-0 head) and the
    level ranks of `predicted_ranks` are checked.

    Each differential is the list of columns `syzygy_marked_basis` returns,
    and that step has composed every one of them with the map below it, so
    the chain property is checked once per column, as the column is built;
    the finished resolution is not composed again.  Only each level's heads
    and degrees are kept, so a level's marked set and its prolongation memo
    are freed once the next level exists.
    """
    _require_basis(marked)
    bodies = [_column(el.body) for el in marked.ordered()]
    heads, degrees, matrices = [], [], []
    current = marked
    while True:
        heads.append([head for head, _, _ in current.packed_bodies.values()])
        degrees.append(list(map(current.layout.term_degree, heads[-1])))
        if not any(prolongations(current)):
            break
        current, columns = syzygy_marked_basis(current)
        matrices.append(columns)

    res = FreeResolution(marked.layout, bodies, degrees, matrices, heads)
    if res.length != marked.layout.n - basis_invariants(marked.basis).D:
        raise InternalError("resolution length differs from n - D")
    if res.rank_pairs() != predicted_ranks(marked.basis):
        raise InternalError("resolution ranks differ from the ranks the heads predict")
    return res


def verify_complex(res: FreeResolution) -> bool:
    """The chain property: consecutive differentials compose to zero,
    including the level-0 map given by the generator bodies.  Each column of
    matrices[k] goes through `_evaluate_column` against the map below it,
    packed under the weights of its rows and wide enough for level k+1's
    largest degree, which every composed term has."""
    for k, mat in enumerate(res.matrices):
        lower = res.matrices[k - 1] if k else res.bodies
        weights = tuple(res.degrees[k - 1]) if k else res.layout.weights
        layout = FreeModuleLayout(res.layout.n, weights)
        packing = TermPacking(layout, max(res.degrees[k + 1], default=0))
        pack_exp, rank = packing.pack_exp, packing.rank
        rows = [
            ([pack_exp(e) + rank - 1 - r for r, entry in col.items() for e in entry],
             [c for entry in col.values() for c in entry.values()])
            for col in lower
        ]
        if any(_evaluate_column(rows, column, pack_exp) for column in mat):
            return False
    return True


def _has_parametric(res: FreeResolution) -> bool:
    """Whether the bodies, whose domain every map's entries share, hold a ParamPoly."""
    return any(
        isinstance(c, ParamPoly)
        for col in res.bodies
        for entry in col.values()
        for c in entry.values()
    )


def _find_pivot(matrices: list[list[Column]], degrees: list[list[int]]):
    """The first non-zero constant entry as (i, row, column, value): lowest
    differential, then row, then column.  A constant entry links generators
    of one degree, so a differential whose two levels share no degree is
    not scanned."""
    for i, mat in enumerate(matrices):
        if set(degrees[i]).isdisjoint(degrees[i + 1]):
            continue
        best = None
        for c, col in enumerate(mat):
            for r, entry in col.items():
                # Columns come in increasing order, so a row only improves
                # on the best pivot when it is strictly smaller.
                if best is None or r < best[0]:
                    v = poly_constant(entry)
                    if v is not None:
                        best = (r, c, v)
        if best is not None:
            return (i, *best)
    return None


def _over(p: Poly, pivot: Coeff) -> Poly:
    """p / pivot, stored by the int-when-integral rule."""
    return {e: rational(Fraction(v) / pivot) for e, v in p.items()}


def _add_scaled_column(target: Column, source: Column, factor: Poly, sign: int) -> None:
    """target += sign * factor * source, dropping the entries that cancel."""
    for r, p in source.items():
        entry = target.setdefault(r, {})
        poly_add_product(entry, factor, p, sign)
        if not entry:
            del target[r]


def _drop_row(col: Column, k: int) -> Column:
    """The column without row k (which it must not touch), the rows above k
    renumbered down by one."""
    return {r - (r > k): p for r, p in col.items()}


def minimize_resolution(res: FreeResolution) -> FreeResolution:
    """Cancel invertible constant entries by row/column elimination until
    none remain; over the rationals the surviving ranks are the actual
    Betti numbers of the resolved module.

    Pivots are processed deterministically (lowest differential first, then
    smallest row, then smallest column).  Every operation walks the stored
    non-zero entries only.  The input is left untouched.

    The invariants of every elimination are checked as it runs, and when a
    pivot was cancelled the result is checked once more by `verify_complex`.
    A resolution with no cancelled pivot is not composed at all: its maps
    are those of the input, which `free_resolution` checked column by
    column.

    The first pivot is looked for before anything is copied: a resolution
    with no constant entry is already minimal, and the result then shares
    its maps with the input instead of copying them.
    """
    if _has_parametric(res):
        raise ParametricCoefficients("cannot minimize with parameter coefficients")
    found = _find_pivot(res.matrices, res.degrees)
    if found is None:
        return FreeResolution(res.layout, res.bodies, res.degrees, res.matrices)

    bodies, *matrices = [
        [{r: dict(p) for r, p in col.items()} for col in mat]
        for mat in (res.bodies, *res.matrices)
    ]
    degrees = [list(d) for d in res.degrees]

    while found is not None:
        i, r, c, pivot = found
        mat = matrices[i]
        if degrees[i][r] != degrees[i + 1][c]:
            raise InternalError("constant entry links unequal degrees")

        # Column elimination: new gen_c2 = gen_c2 - factor_c2 * gen_c at
        # level i+1, which adds factor_c2 times row c2 to row c above.
        factors = {
            c2: _over(col[r], pivot) for c2, col in enumerate(mat) if c2 != c and r in col
        }
        for c2, factor in factors.items():
            _add_scaled_column(mat[c2], mat[c], factor, -1)
        if i + 1 < len(matrices):
            for col in matrices[i + 1]:
                for c2, factor in factors.items():
                    if c2 in col:
                        _add_scaled_column(col, {c: col[c2]}, factor, 1)

        # Row elimination: new gen_r = gen_r + sum(mu_r2 * gen_r2) at level
        # i, which adds mu_r2 times column r2 to column r below.
        mus = {r2: _over(p, pivot) for r2, p in mat[c].items() if r2 != r}
        for col in mat:
            if r in col:
                for r2, mu in mus.items():
                    _add_scaled_column(col, {r2: col[r]}, mu, -1)
        lower = matrices[i - 1] if i else bodies
        for r2, mu in mus.items():
            _add_scaled_column(lower[r], lower[r2], mu, 1)

        # The pivot row/column are now clean; the paired generators go away.
        if any(r in col for c2, col in enumerate(mat) if c2 != c) or len(mat[c]) != 1:
            raise InternalError("pivot row or column not cleared")
        if i + 1 < len(matrices):
            if any(c in col for col in matrices[i + 1]):
                raise InternalError("dependent row survived")
            matrices[i + 1] = [_drop_row(col, c) for col in matrices[i + 1]]
        if lower[r]:
            raise InternalError("dependent column survived")
        del lower[r]
        del mat[c]
        matrices[i] = [_drop_row(col, r) for col in mat]
        del degrees[i + 1][c]
        del degrees[i][r]

        while degrees and not degrees[-1]:
            del degrees[-1]
            if matrices.pop():
                raise InternalError("an empty level kept a column")
        found = _find_pivot(matrices, degrees)

    out = FreeResolution(res.layout, bodies, degrees, matrices)
    if not verify_complex(out):
        raise InternalError("minimized resolution failed the complex check")
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
        k = pommaret_class(t.exp, n)
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
