"""Random quasi-stable inputs and random marked sets/bases.

Random quasi-stable ideals are built from random stable ideals (closing a
few random terms under the exchange move that replaces the minimal variable
by a non-multiplicative one, which never changes degrees) combined with
sums, products and intersections, all of which preserve quasi-stability.
The result is double-checked and resampled if too large.

Random marked *bases* come from a unipotent coordinate change: the image of
the module under x_i -> x_i + (random combination of smaller variables) has
the same Hilbert function, and for almost every choice the complement terms
still split every graded slice, so the marked basis can be read off a
reduced row echelon form degree by degree.  Failures (non-generic choices)
are detected and resampled.
"""

from __future__ import annotations

import random

from .linalg import rref
from .marked import MarkedElement, MarkedSet, is_marked_basis, monomial_marked_set
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
    ModuleElement,
    ModuleTerm,
    Poly,
    exp_add,
    exp_deg,
    exp_divides,
    exp_lcm,
    min_index,
    poly_add_product,
    unit_exp,
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
    elements = []
    for head in basis.sorted_terms():
        terms = {head: 1}
        for tail in complement_terms(basis, basis.layout.term_degree(head)):
            if rng.random() < 0.6:
                c = rng.randint(-3, 3)
                if c:
                    terms[tail] = c
        elements.append(MarkedElement(ModuleElement(basis.layout, terms), head))
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


def transform_exponent(images: list[Poly], exp: Exponent) -> Poly:
    out: Poly = {unit_exp(len(exp)): 1}
    for i, power in enumerate(exp):
        for _ in range(power):
            product: Poly = {}
            poly_add_product(product, out, images[i], 1)
            out = product
    return out


def _extract_marked_basis(basis: PommaretBasis, images: list[Poly]):
    """The marked basis over `basis` of the image of U, read off the RREF of
    the images of the terms of U_s, which span the degree-s slice of the
    image; None when the complement terms do not split that slice."""
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
        reduced, pivots = rref(rows)
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


def random_marked_basis(rng: random.Random, basis: PommaretBasis) -> MarkedSet:
    """A certified marked basis over the given heads, usually with dense
    non-trivial tails; falls back to the monomial basis if eight random
    coordinate changes all degenerate."""
    for _ in range(8):
        marked = _extract_marked_basis(basis, unipotent_images(rng, basis.layout.nvars))
        if marked is not None and is_marked_basis(marked).is_basis:
            return marked
    return monomial_marked_set(basis)
