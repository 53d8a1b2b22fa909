"""Random quasi-stable inputs and random marked sets/bases.

Random quasi-stable ideals are built from random stable ideals (closing a
few random terms under the exchange move that replaces the minimal variable
by a non-multiplicative one, which never changes degrees) combined with
sums, products and intersections, all of which preserve quasi-stability.
The result is double-checked and resampled if too large.

Random marked *bases* come from a unipotent coordinate change g: x_i ->
x_i + (random combination of smaller variables).  The image g(U) has the
same Hilbert function as U, and for lex with x_n most significant each
image g(x^u) is x^u plus lex-lower terms, since lex is a term order and
each factor g(x_i) has leading term x_i.  So in every degree s the images
of the terms of U_s, which span g(U)_s, are unit triangular on U_s: fed to
`linalg.rref` lex-ascending, each row's pivot is its own term, and the
reduced row of a head is the head plus complement terms.  The complement
therefore always splits g(U)_s, the reduced rows are a marked basis of g(U)
over U, and one draw suffices; the basis test still runs on it.
"""

from __future__ import annotations

import random

from .linalg import rref
from .marked import MarkedElement, MarkedSet, is_marked_basis
from .monom import (
    MonomialModule,
    PommaretBasis,
    complement_terms,
    minimalize,
    module_terms_of_degree,
    pommaret_completion,
    quasi_stability_witness,
)
from .ring import (
    Exponent,
    FreeModuleLayout,
    InternalError,
    ModuleElement,
    ModuleTerm,
    Poly,
    exp_add,
    exp_deg,
    exp_divides,
    exp_lcm,
    min_index,
    var_exp,
)


def _stable_closure(exps: set[Exponent], nvars: int) -> set[Exponent]:
    out = set(exps)
    changed = True
    while changed:
        changed = False
        for e in list(out):
            m = min_index(e)
            if m is None:
                continue
            for j in range(m + 1, nvars):
                moved = list(e)
                moved[m] -= 1
                moved[j] += 1
                moved = tuple(moved)
                if not any(exp_divides(g, moved) for g in out):
                    out.add(moved)
                    changed = True
    return out


def random_stable_exponents(rng: random.Random, nvars: int,
                            max_deg: int = 4) -> frozenset[Exponent]:
    seeds = set()
    for _ in range(rng.randint(1, 2)):
        d = rng.randint(1, max_deg)
        e = [0] * nvars
        for _ in range(d):
            e[rng.randrange(nvars)] += 1
        seeds.add(tuple(e))
    return minimalize(_stable_closure(seeds, nvars))


def random_power_segment(rng: random.Random, nvars: int,
                         max_deg: int = 4) -> frozenset[Exponent]:
    """Pure powers of a terminal variable segment, (x_j^a_j, ..., x_n^a_n).

    Always quasi-stable; not stable unless the exponents shrink fast, which
    makes these the main source of genuinely non-stable samples.
    """
    j = rng.randrange(nvars)
    gens = set()
    for i in range(j, nvars):
        e = [0] * nvars
        e[i] = rng.randint(1, max_deg)
        gens.add(tuple(e))
    return minimalize(gens)


def random_quasi_stable_exponents(rng: random.Random, nvars: int,
                                  max_deg: int = 4) -> frozenset[Exponent]:
    """Minimal generators of a random non-trivial quasi-stable ideal.

    Random stable ideals and pure-power segments combined with sums,
    products and intersections, all of which preserve quasi-stability.
    """
    def brick():
        if rng.random() < 0.4:
            return random_power_segment(rng, nvars, max_deg)
        return random_stable_exponents(rng, nvars, max_deg)

    while True:
        gens = brick()
        for _ in range(rng.randint(0, 2)):
            other = brick()
            op = rng.choice(("sum", "product", "intersection"))
            if op == "sum":
                gens = gens | other
            elif op == "product":
                gens = frozenset(exp_add(a, b) for a in gens for b in other)
            else:
                gens = frozenset(exp_lcm(a, b) for a in gens for b in other)
            gens = minimalize(gens)
        gens = frozenset(g for g in gens if exp_deg(g) <= 2 * max_deg)
        if not gens or any(not any(e) for e in gens):
            continue
        module = MonomialModule(FreeModuleLayout(nvars - 1), [ModuleTerm(g, 1) for g in gens])
        if quasi_stability_witness(module) is None:
            return module.component(1)


def random_quasi_stable_basis(rng: random.Random, n: int, max_deg: int = 4,
                              max_terms: int = 28) -> PommaretBasis:
    layout = FreeModuleLayout(n)
    while True:
        gens = random_quasi_stable_exponents(rng, n + 1, max_deg)
        basis = pommaret_completion(
            MonomialModule(layout, [ModuleTerm(g, 1) for g in gens])
        )
        if 0 < len(basis.terms) <= max_terms:
            return basis


def random_marked_set(rng: random.Random, basis: PommaretBasis) -> MarkedSet:
    """Random tails over the complement; rarely a basis."""
    layout = basis.layout
    elements = []
    for head in basis.sorted_terms():
        s = layout.term_degree(head)
        terms = {head: 1}
        for tail in complement_terms(basis, s):
            if rng.random() < 0.6:
                c = rng.randint(-3, 3)
                if c:
                    terms[tail] = c
        elements.append(MarkedElement(ModuleElement._trusted(layout, terms, s), head))
    return MarkedSet(basis, elements)


# ---------- random marked bases via a unipotent coordinate change ----------


def unipotent_images(rng: random.Random, nvars: int) -> list[Poly]:
    """Images of the variables: x_i plus a random load of smaller variables."""
    images = []
    for i in range(nvars):
        p: Poly = {var_exp(nvars, i): 1}
        for j in range(i):
            if rng.random() < 0.6:
                c = rng.randint(-2, 2)
                if c:
                    p[var_exp(nvars, j)] = c
        images.append(p)
    return images


def _extract_marked_basis(basis: PommaretBasis, images: list[Poly]) -> MarkedSet:
    """The marked basis over `basis` of the image of U under the unipotent
    change with these variable images.

    Terms are packed by the basis's packing, and the image of a packed
    exponent e is the image of e - x_m times that of x_m, m the least
    variable of e, memoised for the call.  In each degree s one sparse row
    per term of U_s holds its image, keyed by the negated packed term, so
    the lex-greatest term is the least column; the rows go to `rref` in
    ascending packed order (see the module docstring).  A head's row is
    reduced only by the rows of lex-lower terms, so the terms of U_s above
    the lex-greatest head of degree s get no row.  Images that are not unit
    triangular leave a pivot off U_s and raise `InternalError`."""
    layout = basis.layout
    packing = basis.packing
    pack, unpack, shifts = packing.pack, packing.unpack, packing.shifts
    comp_mask, low, width = packing.comp_mask, shifts[0], packing.mask.bit_length()
    variables = [{packing.pack_exp(e): c for e, c in p.items()} for p in images]
    memo = {0: {0: 1}}

    def image(e: int) -> dict:
        found = memo.get(e)
        if found is None:
            m = ((e & -e).bit_length() - 1 - low) // width
            product: dict = {}
            for a, c1 in image(e - (1 << shifts[m])).items():
                for b, c2 in variables[m].items():
                    product[a + b] = product.get(a + b, 0) + c1 * c2
            found = memo[e] = {k: c for k, c in product.items() if c}
        return found

    heads: dict[int, list[ModuleTerm]] = {}  # by degree, in listing order
    for head in basis.sorted_terms():
        heads.setdefault(layout.term_degree(head), []).append(head)
    elements = []
    for s, group in heads.items():
        top = max(map(pack, group))
        packed = sorted(p for p in map(pack, module_terms_of_degree(basis, s)) if p <= top)
        rows = []
        for p in packed:
            comp = p & comp_mask
            rows.append({-(e + comp): c for e, c in image(p - comp).items()})
        reduced, pivots = rref(rows)
        if pivots != [-p for p in reversed(packed)]:
            raise InternalError(f"the coordinate change is not unit triangular in degree {s}")
        by_pivot = dict(zip(pivots, reduced))
        for head in group:
            pivot = -pack(head)
            terms = {head: 1}
            terms.update(sorted((unpack(-c), v) for c, v in by_pivot[pivot].items() if c != pivot))
            elements.append(MarkedElement(ModuleElement._trusted(layout, terms, s), head))
    return MarkedSet(basis, elements)


def random_marked_basis(rng: random.Random, basis: PommaretBasis) -> MarkedSet:
    """A marked basis over the given heads, usually with dense non-trivial
    tails, drawn from one random unipotent coordinate change.  Its basis
    test runs, filling the prolongation memo that `free_resolution` reads;
    a failure is a bug (`InternalError`)."""
    marked = _extract_marked_basis(basis, unipotent_images(rng, basis.layout.nvars))
    if not is_marked_basis(marked).is_basis:
        raise InternalError("a marked basis drawn by a unipotent coordinate change fails its test")
    return marked
