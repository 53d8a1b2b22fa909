"""Random samplers that only the tests draw from.

Random quasi-stable modules of higher rank, random saturated ideals and
random homogeneous elements, built on the package's own random
quasi-stable ideals (`marked_bases.randgen`).
"""

from __future__ import annotations

import random

from marked_bases.monom import (
    MonomialModule,
    PommaretBasis,
    minimalize,
    pommaret_completion,
    terms_of_degree,
)
from marked_bases.randgen import random_quasi_stable_exponents
from marked_bases.ring import FreeModuleLayout, ModuleElement, ModuleTerm


def random_saturated_basis(rng: random.Random, n: int, max_deg: int = 3,
                           max_terms: int = 20) -> PommaretBasis:
    """Certified basis of a random saturated, non-trivial quasi-stable ideal.

    Built from a random stable ideal in the variables above x0, which is
    saturated by construction.
    """
    layout = FreeModuleLayout(n)
    while True:
        gens = random_quasi_stable_exponents(rng, n + 1, max_deg)
        stripped = set()
        for g in gens:
            e = list(g)
            e[0] = 0
            stripped.add(tuple(e))
        stripped = minimalize(stripped)
        if not stripped or any(not any(e) for e in stripped):
            continue
        basis = pommaret_completion(
            MonomialModule(layout, [ModuleTerm(g, 1) for g in stripped])
        )
        if 0 < len(basis.terms) <= max_terms:
            return basis


def random_quasi_stable_module(rng: random.Random, n: int, rank: int,
                               max_deg: int = 3, max_terms: int = 30) -> PommaretBasis:
    while True:
        weights = tuple(rng.randint(0, 2) for _ in range(rank))
        layout = FreeModuleLayout(n, weights)
        gens = []
        for k in range(1, rank + 1):
            for g in random_quasi_stable_exponents(rng, n + 1, max_deg):
                gens.append(ModuleTerm(g, k))
        basis = pommaret_completion(MonomialModule(layout, gens))
        if 0 < len(basis.terms) <= max_terms:
            return basis


def random_homogeneous_element(rng: random.Random, layout: FreeModuleLayout,
                               degree: int, max_terms: int = 4,
                               coeff_bound: int = 4) -> ModuleElement:
    pool = []
    for k in range(1, layout.rank + 1):
        d = degree - layout.weight(k)
        if d < 0:
            continue
        pool.extend(ModuleTerm(e, k) for e in terms_of_degree(layout.nvars, d))
    terms = {}
    if pool:
        for t in rng.sample(pool, k=min(max_terms, len(pool))):
            c = rng.randint(-coeff_bound, coeff_bound)
            if c:
                terms[t] = c
    return ModuleElement(layout, terms)
