"""Monomial modules, Pommaret cones and bases, stability, invariants.

A monomial submodule U of the weighted free module splits componentwise into
monomial ideals, U = (+) J^(k) e_k, and all cone machinery acts per
component.  The multiplicative variables of a term x^a are x0..x_min(a);
its Pommaret cone consists of all products with terms in the multiplicative
variables only.  A Pommaret basis is a finite term set whose cones are
pairwise disjoint and cover the term set of U; it exists exactly for
quasi-stable modules, and regularity, satiety and projective dimension can
be read off from it.

The constant exponent (the unit term) is treated as having every variable
multiplicative, so the unit ideal has Pommaret basis {1}.

Cone lookups never scan the vertices.  Write cls(s) = m for the index of
the smallest variable dividing x^s (m = n for the unit term).  The cone of a
vertex s of class m holds t exactly when t lies in the same component,
t[m+1:] == s[m+1:] and t[m] >= s[m], since s vanishes below m.  So a cone is
fixed by the key (component, m, s[m+1:]) plus the lower bound s[m], and
`ConeIndex` files every vertex under that key, the way Janet and Pommaret
trees do (Gerdt, Blinkov and Yanovich, "Construction of Janet bases I",
CASC 2001; Seiler, *Involution*, 2010).  A vertex whose cone contains a
term is then found with at most n + 1 dict probes, one per candidate class.
The terms are packed into ints (`ring.TermPacking`), so a key is the packed
vertex with the fields of x0..x_m cleared, read off a packed term with one
mask.  There is one index per basis, packed one degree above the largest
term and built with the basis (`PommaretBasis`); `cone_divisor`,
`complement_terms` and the reduction kernel all read it.  A term of higher
degree is looked up in a copy of the basis packed for it (`_packed_for`).
The completion files one index of its own growing term set.  The basis of
a syzygy level is built on a `ShapeCones` in place of an index: its cones
have a known shape, which is read off the packed term.
"""

from __future__ import annotations

import enum
from bisect import insort
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import combinations_with_replacement
from math import comb

from .ring import (
    Exponent,
    FreeModuleLayout,
    InternalError,
    MarkedBasesError,
    ModuleTerm,
    TermPacking,
    exp_add,
    exp_deg,
    exp_divides,
    listing_key,
    min_index,
    var_exp,
)


class NotQuasiStable(MarkedBasesError):
    """Input is not quasi-stable; carries a witness generator and variable."""

    def __init__(self, witness: ModuleTerm, variable: int):
        self.witness = witness
        self.variable = variable
        super().__init__(
            f"not quasi-stable: no power x{variable}^s * t / min(t) lies in the "
            f"module for generator {witness}"
        )


class TooLarge(MarkedBasesError):
    """An output would hold more terms than the package builds; reported
    as an input error."""


class StabilityClass(enum.Enum):
    NOT_QUASI_STABLE = "not quasi-stable"
    QUASI_STABLE = "quasi-stable"
    STABLE = "stable"


def pommaret_class(e: Exponent, n: int) -> int:
    """cls(x^e): the index of the smallest variable dividing x^e, n for 1."""
    m = min_index(e)
    return n if m is None else m


def nonmultiplicative_variables(t: ModuleTerm, n: int) -> range:
    """Indices of the variables above min(t), which are not
    Pommaret-multiplicative for t (x0, ..., min(t) are); none for 1."""
    return range(pommaret_class(t.exp, n) + 1, n + 1)


class ConeIndex:
    """Pommaret cones of terms packed by one `TermPacking`.

    A vertex s of class m is filed, with its exponent s[m], in the table of
    class m under its packed form with the fields of x0..x_m cleared, which
    keeps the component and the exponents above m.  So a lookup reads each
    key and each exponent x_m off the packed term with one mask or shift,
    and never unpacks it; it probes one table per class that has vertices,
    and skips a class m < n where the term has x_m = 0, which no vertex of
    that class can reach.
    """

    __slots__ = ("packing", "classes", "_entries", "_width")

    def __init__(self, packing: TermPacking, vertices=()):
        self.packing = packing
        shifts, comp_mask = packing.shifts, packing.comp_mask
        n = len(shifts) - 1
        # Per class m: the shift of field m, the mask keeping the component
        # and the fields above m, the table, and whether every term probes it.
        self._entries = [
            (shifts[m], comp_mask | (-1 << shifts[m + 1]) if m < n else comp_mask, {}, m == n)
            for m in range(n + 1)
        ]
        # The entries of the classes that have vertices, in increasing order.
        self.classes: list[tuple] = []
        self._width = packing.mask.bit_length()
        for p in vertices:
            self.add(p)

    def add(self, p: int) -> None:
        """File the packed term p as a vertex."""
        fields = p >> self.packing.shifts[0]
        # The lowest set bit of the exponent fields lies in field m = cls(p);
        # the unit term has class n, the last entry.
        entry = self._entries[((fields & -fields).bit_length() - 1) // self._width if fields else -1]
        shift, keep, table, _ = entry
        if not table:
            insort(self.classes, entry)
        table.setdefault(p & keep, []).append((p >> shift & self.packing.mask, p))

    def find(self, p: int):
        """The packed vertex whose cone holds the packed term p, or None."""
        mask = self.packing.mask
        for shift, keep, table, always in self.classes:
            x = p >> shift & mask
            if x or always:
                bucket = table.get(p & keep)
                if bucket is not None:
                    for low, vertex in bucket:
                        if x >= low:
                            return vertex
        return None


class ShapeCones:
    """The cones of a syzygy level's basis {x_j e_k : j > c_k}, found by
    their shape (Seiler, *Involution*, 2010): x^mu e_k lies in U exactly
    when top(mu), the largest index of a variable dividing x^mu, exceeds
    c_k, and then in the cone of x_top e_k.  So `find` compares the packed
    term with the least one that has a variable above c_k (its component
    field holds rank - k), and reads top off a term of U as the highest set
    bit of its exponent fields; like `ConeIndex.find` it takes and gives
    packed terms."""

    __slots__ = ("packing", "find")

    def __init__(self, packing: TermPacking, classes):
        self.packing = packing
        comp_mask, shift = packing.comp_mask, packing.shifts[0]
        width = packing.mask.bit_length()
        units = [1 << s for s in packing.shifts]
        least = [1 << (shift + width * (c + 1)) for c in reversed(classes)]

        def find(p: int):
            field = p & comp_mask
            if p < least[field]:
                return None
            return field + units[((p >> shift).bit_length() - 1) // width]

        self.find = find


def terms_of_degree(nvars: int, d: int):
    """All exponent tuples of total degree d (degrevlex descending)."""
    if d < 0:
        return
    for bars in combinations_with_replacement(range(nvars), d):
        e = [0] * nvars
        for i in bars:
            e[i] += 1
        yield tuple(e)


def minimalize(exps) -> frozenset[Exponent]:
    """Minimal generating set of the monomial ideal generated by exps.

    Terms are kept in (degree, exponent) order.  A distinct term of the same
    degree never divides another, so each term is tested against the kept
    terms of lower degree only, and a set of one degree is tested not at
    all."""
    out: list[Exponent] = []
    lower: list[Exponent] = []
    current = None
    for d, e in sorted((exp_deg(x), x) for x in set(exps)):
        if d != current:
            current, lower = d, out[:]
        if not any(exp_divides(g, e) for g in lower):
            out.append(e)
    return frozenset(out)


class MonomialModule:
    """Finitely generated monomial submodule, minimalized componentwise.

    ``generators`` are the minimal generators; ``listed`` keeps the terms
    the module was given, so that a listed Pommaret basis can serve as its
    own completion (`pommaret_completion`).  Equality reads the generators
    only."""

    __slots__ = ("layout", "generators", "listed")

    def __init__(self, layout: FreeModuleLayout, generators):
        per_comp: dict[int, set[Exponent]] = {}
        for t in generators:
            layout.check_term(t)
            per_comp.setdefault(t.comp, set()).add(t.exp)
        gens = set()
        for k, exps in per_comp.items():
            for e in minimalize(exps):
                gens.add(ModuleTerm(e, k))
        self.layout = layout
        self.generators = frozenset(gens)
        self.listed = frozenset(
            ModuleTerm(e, k) for k, exps in per_comp.items() for e in exps
        )

    def component(self, k: int) -> frozenset[Exponent]:
        return frozenset(t.exp for t in self.generators if t.comp == k)

    def __eq__(self, other):
        return (
            isinstance(other, MonomialModule)
            and self.layout == other.layout
            and self.generators == other.generators
        )

    def __repr__(self):
        return f"MonomialModule({sorted(self.generators)})"


# A memo of results on a frozen dataclass: no constructor field, not compared.
_MEMO = dict(default_factory=dict, init=False, repr=False, compare=False, hash=False)


@dataclass(frozen=True)
class PommaretBasis:
    """Finite term set with the disjoint-cone certificate.

    ``certified`` is set by the structural test `certified_basis`, which
    the completion also goes through.  Cone lookups go through one
    `ConeIndex` of the terms, packed by the basis's `packing`: the index the
    structural test built, or one `__post_init__` files one degree above
    the largest term; a syzygy level gives its `ShapeCones` instead.
    Lookups take and give packed terms, and `cone_divisor` memoises them
    in ``_cone_cache``, keyed by the packed term; every marked set over the
    basis shares the packing and the memo.
    The split of each degree into the terms inside and outside the module
    (`complement_terms`) is memoised in ``_slices``.  These memos are all
    that is written once the basis is built.
    """

    layout: FreeModuleLayout
    terms: frozenset[ModuleTerm]
    certified: bool = False
    _cones: ConeIndex | ShapeCones | None = field(
        default=None, repr=False, compare=False, hash=False)
    _cone_cache: dict = field(**_MEMO)
    _slices: dict = field(**_MEMO)

    def __post_init__(self):
        if self._cones is None:
            packing = TermPacking(self.layout, self.max_degree() + 1)
            object.__setattr__(self, "_cones", ConeIndex(packing, map(packing.pack, self.terms)))

    def sorted_terms(self) -> list[ModuleTerm]:
        return sorted(self.terms, key=lambda t: listing_key(self.layout, t))

    def max_degree(self) -> int:
        return max((self.layout.term_degree(t) for t in self.terms), default=0)

    def cone_divisor(self, p: int):
        """The packed basis term whose cone contains the term p, packed by
        `packing`, or None outside U; memoised."""
        hit = self._cone_cache.get(p, False)
        if hit is not False:
            return hit
        found = self._cone_cache[p] = self._cones.find(p)
        return found

    @property
    def packing(self) -> TermPacking:
        """The packing of the index, wide enough for every prolongation."""
        return self._cones.packing


def _packed_for(basis: PommaretBasis, degree: int) -> PommaretBasis:
    """The basis when its packing holds terms of the given degree, else a
    copy built with an index packed for it, and a cone memo of its own;
    only `marked.reduce_full` and `_terms_by_cone` meet such a degree."""
    if degree <= basis.packing.degree:
        return basis
    packing = TermPacking(basis.layout, degree)
    return PommaretBasis(basis.layout, basis.terms, basis.certified,
                         ConeIndex(packing, map(packing.pack, basis.terms)))


def certified_basis(terms, layout: FreeModuleLayout) -> PommaretBasis | None:
    """The certified Pommaret basis on a finite term set, or None when the
    structural disjoint-cover test rejects it.

    The test checks that no term lies in the cone of another and that every
    non-multiplicative prolongation of a term lies in a cone.  A cone holds
    no other term of its vertex's degree, so the terms are filed in
    increasing degree, each only if no cone filed before holds it.  Two
    Pommaret cones can only intersect when one vertex lies in the other
    cone, so the cones are then disjoint, and these local conditions
    certify the global disjoint cover.  Both are read from a `ConeIndex` of
    the terms, packed one degree above the largest term, which holds every
    prolongation; the basis is built with that index, and its packing.
    """
    terms = frozenset(terms)
    ordered = sorted(terms, key=layout.term_degree)
    packing = TermPacking(layout, layout.term_degree(ordered[-1]) + 1 if ordered else 1)
    packed = [packing.pack(t) for t in ordered]
    index = ConeIndex(packing)
    for p in packed:
        if index.find(p) is not None:
            return None
        index.add(p)
    shifts = packing.shifts
    for t, p in zip(ordered, packed):
        for j in nonmultiplicative_variables(t, layout.n):
            if index.find(p + (1 << shifts[j])) is None:
                return None
    return PommaretBasis(layout, terms, True, index)


def is_pommaret_basis(terms, layout: FreeModuleLayout) -> bool:
    """Whether a finite term set passes the structural test of `certified_basis`."""
    return certified_basis(terms, layout) is not None


def _complete_component(exps: set[Exponent], nvars: int) -> set[Exponent]:
    """Append non-multiplicative prolongations until the cone span closes.

    Prolongations are processed in increasing degree, ties broken by the
    ascending exponent-tuple order; the resulting set does not depend on
    this choice.  Terminates exactly on quasi-stable input, which callers
    check first.

    The prolongations wait in a heap in that order.  Cones only grow, so a
    prolongation covered when it is produced, or when it is popped, stays
    covered and is dropped; the first uncovered one popped is the least
    uncovered prolongation of the current set, and joins it and the index.
    The index is filed once, packed for deg lcm(input) + 1: every term the
    completion adds lies in the Pommaret basis of the ideal J, whose
    degree is reg(J) <= deg lcm(input) (the Taylor resolution bounds it),
    so every prolongation fits, and one that does not is a bug
    (`InternalError`).  A basis that passes `TERM_LIMIT` terms is refused
    (`TooLarge`) as soon as it does.
    """
    basis = set(exps)
    n = nvars - 1
    packing = TermPacking(FreeModuleLayout(n), sum(map(max, zip(*basis))) + 1)
    pack = packing.pack_exp
    index = ConeIndex(packing, map(pack, basis))
    queue: list[tuple[int, Exponent]] = []
    queued: set[Exponent] = set()

    def enqueue(e: Exponent) -> None:
        degree = exp_deg(e) + 1
        variables = range(pommaret_class(e, n) + 1, n + 1)
        if variables and degree > packing.degree:
            raise InternalError(f"a prolongation of degree {degree} outgrows the "
                                f"completion's bound deg lcm + 1 = {packing.degree}")
        for j in variables:
            prol = exp_add(e, var_exp(nvars, j))
            if prol not in queued and index.find(pack(prol)) is None:
                queued.add(prol)
                heappush(queue, (degree, prol))

    for e in exps:
        enqueue(e)
    while queue:
        _, e = heappop(queue)
        p = pack(e)
        if index.find(p) is None:
            basis.add(e)
            if len(basis) > TERM_LIMIT:
                raise TooLarge(f"the Pommaret completion has more than the {TERM_LIMIT} "
                               "terms this program builds")
            index.add(p)
            enqueue(e)
    return basis


def _quasi_stable_witness(gens: frozenset[Exponent], nvars: int):
    """First (generator, variable) violating the quasi-stability condition.

    For each minimal generator t and non-multiplicative xj some power
    xj^s * t/min(t) must lie in the ideal.  With q = t/min(t), a generator
    g divides xj^s * q for some s >= 0 exactly when g exceeds q in no
    exponent but the j-th (s = g_j - q_j then works), so each generator is
    compared with q once and the variables it reaches are read off where it
    exceeds q.  Pairs are tried with t in (degree, exponent) order, then j
    ascending, and the first failing pair is the witness.
    """
    n = nvars - 1
    for e in sorted(gens, key=lambda x: (exp_deg(x), x)):
        m = min_index(e)
        if m is None:
            continue
        quotient = list(e)
        quotient[m] -= 1
        reached: set[int] = set()
        for g in gens:
            over = [i for i, (x, y) in enumerate(zip(g, quotient)) if x > y]
            if not over:  # g divides q: every variable reaches the ideal
                reached.update(range(nvars))
            elif len(over) == 1:
                reached.add(over[0])
        for j in range(m + 1, n + 1):
            if j not in reached:
                return tuple(e), j
    return None


def quasi_stability_witness(module: MonomialModule):
    """None when quasi-stable, else a failing (generator, variable) pair."""
    for k in range(1, module.layout.rank + 1):
        gens = module.component(k)
        if not gens:
            continue
        witness = _quasi_stable_witness(gens, module.layout.nvars)
        if witness is not None:
            return ModuleTerm(witness[0], k), witness[1]
    return None


def stability_class(module: MonomialModule) -> tuple[StabilityClass, NotQuasiStable | None]:
    """Classify by the Pommaret completion: a module that has none is not
    quasi-stable, and is returned with the refusal that names its witness;
    a quasi-stable module is stable exactly when its minimal generators are
    already its Pommaret basis (the completion adds nothing)."""
    try:
        basis = pommaret_completion(module)
    except NotQuasiStable as refusal:
        return StabilityClass.NOT_QUASI_STABLE, refusal
    if basis.terms == module.generators:
        return StabilityClass.STABLE, None
    return StabilityClass.QUASI_STABLE, None


def pommaret_completion(module: MonomialModule) -> PommaretBasis:
    """Complete minimal generators to the Pommaret basis.

    Refuses non-quasi-stable input (completion would not terminate) with a
    witness generator and variable.

    Fast path: when the terms the module was given (``module.listed``) pass
    the structural test of `certified_basis`, they are a finite Pommaret
    basis of the module, which is then quasi-stable, and a finite Pommaret
    basis is unique (Seiler, *Involution*, 2010).  So they are the
    completion, and neither the witness scan nor `_complete_component` runs.
    Their set is built with the same insertions as the completion's: per
    component the minimal generators, then the other listed terms in
    (degree, exponent) order, the order in which the completion's heap adds
    them.  So ``terms`` iterates in the same order on both paths.  Whenever
    the test rejects the listed terms, the full completion runs and is
    certified by the same test.
    """
    layout = module.layout
    for listed in (True, False):
        terms: set[ModuleTerm] = set()
        for k in range(1, layout.rank + 1):
            gens = module.component(k)
            if not gens:
                continue
            if listed:
                exps = set(gens)
                added = [t.exp for t in module.listed if t.comp == k and t.exp not in gens]
                added.sort(key=lambda e: (exp_deg(e), e))
                exps.update(added)
            else:
                witness = _quasi_stable_witness(gens, layout.nvars)
                if witness is not None:
                    raise NotQuasiStable(ModuleTerm(witness[0], k), witness[1])
                exps = _complete_component(set(gens), layout.nvars)
            for e in exps:
                terms.add(ModuleTerm(e, k))
        basis = certified_basis(terms, layout)
        if basis is not None:
            return basis
    raise InternalError("the completion is not a Pommaret basis (disjoint cones fail)")


@dataclass(frozen=True)
class InvariantReport:
    """Invariants read off a Pommaret basis: projective_dimension = n - D."""

    regularity: int
    satiety: int
    projective_dimension: int
    D: int
    saturated: bool


def basis_invariants(basis: PommaretBasis) -> InvariantReport:
    if not basis.certified:
        raise ValueError("basis_invariants requires a certified basis")
    layout = basis.layout
    if not basis.terms:
        return InvariantReport(0, 0, 0, layout.n, True)
    reg = basis.max_degree()
    x0_degrees = [
        layout.term_degree(t) for t in basis.terms if t.exp[0] > 0
    ]
    satiety = max(x0_degrees) if x0_degrees else 0
    d = min(pommaret_class(t.exp, layout.n) for t in basis.terms)
    return InvariantReport(
        regularity=reg,
        satiety=satiety,
        projective_dimension=layout.n - d,
        D=d,
        saturated=not x0_degrees,
    )


# The most terms a completion, a truncation or the split of one degree
# builds: `mbases truncate` prints 99,677 terms in about 1.5 s of CPU time
# on a 2-CPU x86-64 virtual machine.
TERM_LIMIT = 100_000


def truncate_basis(basis: PommaretBasis, m: int) -> PommaretBasis:
    """Pommaret basis of the degree->=m truncation.

    Keeps basis terms of degree >= m+1 and replaces each lower-degree term
    by the degree-m slice of its cone.  The output is certified directly by
    the structural test (`certified_basis`).  Its size is counted first, a
    cone of class i giving binomial(m - d + i, i) terms, and more than
    `TERM_LIMIT` terms are refused (`TooLarge`) before any is built.
    """
    if not basis.certified:
        raise ValueError("requires a certified basis")
    layout = basis.layout
    size = 0
    for t in basis.terms:
        d = layout.term_degree(t)
        i = pommaret_class(t.exp, layout.n)
        size += 1 if d >= m + 1 else comb(m - d + i, i)
    if size > TERM_LIMIT:
        raise TooLarge(f"the truncation at degree {m} has {size} terms, "
                       f"more than the {TERM_LIMIT} this program builds")
    out: set[ModuleTerm] = set()
    for t in basis.terms:
        d = layout.term_degree(t)
        if d >= m + 1:
            out.add(t)
            continue
        for extra in terms_of_degree(pommaret_class(t.exp, layout.n) + 1, m - d):
            e = list(t.exp)
            for i, x in enumerate(extra):
                e[i] += x
            out.add(ModuleTerm(tuple(e), t.comp))
    result = certified_basis(out, layout)
    if result is None:
        raise InternalError("truncation lost the cone cover")
    return result


def hilbert_function(basis: PommaretBasis, s: int) -> int:
    """Rank of the degree-s piece of U, counted cone by cone."""
    if not basis.certified:
        raise ValueError("requires a certified basis")
    layout = basis.layout
    total = 0
    for t in basis.terms:
        free = s - layout.term_degree(t)
        if free < 0:
            continue
        i = pommaret_class(t.exp, layout.n)
        total += comb(free + i, i)
    return total


def ambient_rank(layout: FreeModuleLayout, s: int) -> int:
    n = layout.n
    return sum(comb(s - d + n, n) for d in layout.weights if s - d >= 0)


def complement_rank(basis: PommaretBasis, s: int) -> int:
    return ambient_rank(basis.layout, s) - hilbert_function(basis, s)


def _terms_by_cone(basis: PommaretBasis, s: int) -> tuple[tuple[ModuleTerm, ...], ...]:
    """The degree-s terms of the free module inside U and outside it, each
    a tuple in listing order, split in one pass and memoised on the basis;
    callers share the memo's tuples.  The cones of a certified basis cover
    U exactly, so a term lies in U when some cone holds it, looked up in the
    basis or, for s above its packing, in a copy packed for s
    (`_packed_for`).  All terms have degree s, so listing order is the
    order of the (exponent, component) pairs themselves.  More than
    `TERM_LIMIT` terms of degree s are refused (`TooLarge`) first."""
    if not basis.certified:
        raise ValueError("requires a certified basis")
    split = basis._slices.get(s)
    if split is None:
        layout = basis.layout
        size = ambient_rank(layout, s)
        if size > TERM_LIMIT:
            raise TooLarge(f"degree {s} has {size} terms, "
                           f"more than the {TERM_LIMIT} this program builds")
        packed = _packed_for(basis, s)
        pack, find = packed.packing.pack, packed._cones.find
        inside: list[ModuleTerm] = []
        outside: list[ModuleTerm] = []
        for k in range(1, layout.rank + 1):
            d = s - layout.weight(k)
            if d < 0:
                continue
            for e in terms_of_degree(layout.nvars, d):
                t = ModuleTerm(e, k)
                (outside if find(pack(t)) is None else inside).append(t)
        split = basis._slices[s] = (tuple(sorted(inside)), tuple(sorted(outside)))
    return split


def complement_terms(basis: PommaretBasis, s: int) -> tuple[ModuleTerm, ...]:
    """The degree-s terms of the free module outside U, in listing order."""
    return _terms_by_cone(basis, s)[1]


def module_terms_of_degree(basis: PommaretBasis, s: int) -> tuple[ModuleTerm, ...]:
    """The degree-s terms of U itself, in listing order."""
    return _terms_by_cone(basis, s)[0]
