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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from math import comb

from .ring import (
    Exponent,
    FreeModuleLayout,
    MarkedBasesError,
    ModuleTerm,
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


class StabilityClass(enum.Enum):
    NOT_QUASI_STABLE = "not quasi-stable"
    QUASI_STABLE = "quasi-stable"
    STABLE = "stable"


def multiplicative_variables(t, n: int) -> frozenset[int]:
    """Indices of the Pommaret-multiplicative variables {x0, ..., min(t)}.

    Accepts a ModuleTerm or a bare exponent tuple.  For the constant
    exponent every variable is multiplicative.
    """
    exp = t.exp if isinstance(t, ModuleTerm) else t
    m = min_index(exp)
    if m is None:
        m = n
    return frozenset(range(m + 1))


def nonmultiplicative_variables(t, n: int) -> tuple[int, ...]:
    exp = t.exp if isinstance(t, ModuleTerm) else t
    m = min_index(exp)
    if m is None:
        m = n
    return tuple(range(m + 1, n + 1))


def in_cone(vertex: Exponent, e: Exponent) -> bool:
    """Whether x^e lies in the Pommaret cone of x^vertex."""
    if not exp_divides(vertex, e):
        return False
    m = min_index(vertex)
    if m is None:
        return True
    return all(e[i] == vertex[i] for i in range(m + 1, len(e)))


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
    """Minimal generating set of the monomial ideal generated by exps."""
    out: list[Exponent] = []
    for e in sorted(set(exps), key=lambda x: (exp_deg(x), x)):
        if not any(exp_divides(g, e) for g in out):
            out.append(e)
    return frozenset(out)


class MonomialModule:
    """Finitely generated monomial submodule, minimalized componentwise."""

    __slots__ = ("layout", "generators")

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

    def component(self, k: int) -> frozenset[Exponent]:
        return frozenset(t.exp for t in self.generators if t.comp == k)

    def contains(self, t: ModuleTerm) -> bool:
        return any(
            g.comp == t.comp and exp_divides(g.exp, t.exp) for g in self.generators
        )

    def sorted_generators(self):
        return sorted(self.generators, key=lambda t: listing_key(self.layout, t))

    def __eq__(self, other):
        return (
            isinstance(other, MonomialModule)
            and self.layout == other.layout
            and self.generators == other.generators
        )

    def __repr__(self):
        return f"MonomialModule({sorted(self.generators)})"


@dataclass(frozen=True)
class PommaretBasis:
    """Finite term set with the disjoint-cone certificate.

    ``certified`` is set by the completion algorithm or by the structural
    test; cone lookups are memoised (sound: the value is immutable).
    """

    layout: FreeModuleLayout
    terms: frozenset[ModuleTerm]
    certified: bool = False
    _cone_cache: dict = field(default_factory=dict, repr=False, compare=False, hash=False)

    def sorted_terms(self) -> list[ModuleTerm]:
        return sorted(self.terms, key=lambda t: listing_key(self.layout, t))

    def component(self, k: int) -> list[Exponent]:
        return sorted(t.exp for t in self.terms if t.comp == k)

    def max_degree(self) -> int:
        return max((self.layout.term_degree(t) for t in self.terms), default=0)

    def contains_term(self, t: ModuleTerm) -> bool:
        """Membership of a term in the generated module (plain divisibility)."""
        return any(
            g.comp == t.comp and exp_divides(g.exp, t.exp) for g in self.terms
        )

    def cone_divisor(self, t: ModuleTerm):
        """The unique basis term whose cone contains t, or None outside U."""
        hit = self._cone_cache.get(t, False)
        if hit is not False:
            return hit
        found = None
        for g in self.terms:
            if g.comp == t.comp and in_cone(g.exp, t.exp):
                found = g
                break
        self._cone_cache[t] = found
        return found


def cone_divisor(basis: PommaretBasis, t: ModuleTerm):
    if not basis.certified:
        raise ValueError("cone_divisor requires a certified basis")
    return basis.cone_divisor(t)


def is_pommaret_basis(terms, layout: FreeModuleLayout) -> bool:
    """Structural disjoint-cover test for a finite term set.

    Checks that no term lies in the cone of another and that every
    non-multiplicative prolongation of a term lies in exactly one cone.
    Two Pommaret cones can only intersect when one vertex lies in the other
    cone, so these local conditions certify the global disjoint cover.
    """
    terms = set(terms)
    n = layout.n
    for t in terms:
        for s in terms:
            if s != t and s.comp == t.comp and in_cone(s.exp, t.exp):
                return False
    for t in terms:
        for j in nonmultiplicative_variables(t, n):
            prol = exp_add(t.exp, var_exp(layout.nvars, j))
            hits = sum(
                1 for s in terms if s.comp == t.comp and in_cone(s.exp, prol)
            )
            if hits != 1:
                return False
    return True


def _complete_component(exps: set[Exponent], nvars: int) -> set[Exponent]:
    """Append non-multiplicative prolongations until the cone span closes.

    Prolongations are processed in increasing degree, ties broken by the
    ascending exponent-tuple order; the resulting set does not depend on
    this choice.  Terminates exactly on quasi-stable input, which callers
    check first.
    """
    basis = set(exps)
    n = nvars - 1
    while True:
        pending = set()
        for e in basis:
            m = min_index(e)
            top = n if m is None else m
            for j in range(top + 1, n + 1):
                prol = exp_add(e, var_exp(nvars, j))
                if not any(in_cone(v, prol) for v in basis):
                    pending.add(prol)
        if not pending:
            return basis
        basis.add(min(pending, key=lambda e: (exp_deg(e), e)))


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


def _is_stable_component(gens: frozenset[Exponent], nvars: int) -> bool:
    n = nvars - 1
    for e in gens:
        m = min_index(e)
        if m is None:
            continue
        quotient = list(e)
        quotient[m] -= 1
        for j in range(m + 1, n + 1):
            cand = list(quotient)
            cand[j] += 1
            if not any(exp_divides(g, tuple(cand)) for g in gens):
                return False
    return True


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


def stability_class(module: MonomialModule) -> StabilityClass:
    """Classify per component; the module is stable/quasi-stable iff every
    component is.  The stable verdict is cross-checked against the
    completion criterion (stable iff the completion adds nothing)."""
    layout = module.layout
    all_stable = True
    for k in range(1, layout.rank + 1):
        gens = module.component(k)
        if not gens:
            continue
        if _quasi_stable_witness(gens, layout.nvars) is not None:
            return StabilityClass.NOT_QUASI_STABLE
        stable = _is_stable_component(gens, layout.nvars)
        completed = _complete_component(set(gens), layout.nvars)
        assert (completed == set(gens)) == stable, "stability criteria disagree"
        all_stable = all_stable and stable
    return StabilityClass.STABLE if all_stable else StabilityClass.QUASI_STABLE


def pommaret_completion(module: MonomialModule) -> PommaretBasis:
    """Complete minimal generators to the Pommaret basis.

    Refuses non-quasi-stable input (completion would not terminate) with a
    witness generator and variable.
    """
    layout = module.layout
    terms: set[ModuleTerm] = set()
    for k in range(1, layout.rank + 1):
        gens = module.component(k)
        if not gens:
            continue
        witness = _quasi_stable_witness(gens, layout.nvars)
        if witness is not None:
            raise NotQuasiStable(ModuleTerm(witness[0], k), witness[1])
        for e in _complete_component(set(gens), layout.nvars):
            terms.add(ModuleTerm(e, k))
    basis = PommaretBasis(layout, frozenset(terms), certified=True)
    assert is_pommaret_basis(basis.terms, layout)
    return basis


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
    mins = []
    for t in basis.terms:
        m = min_index(t.exp)
        mins.append(layout.n if m is None else m)
    d = min(mins)
    return InvariantReport(
        regularity=reg,
        satiety=satiety,
        projective_dimension=layout.n - d,
        D=d,
        saturated=not x0_degrees,
    )


def colon_saturation_basis(basis: PommaretBasis, j: int) -> frozenset[Exponent]:
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


def saturate(basis: PommaretBasis) -> PommaretBasis:
    """Pommaret basis of the saturation (strip x0, minimalize, re-complete)."""
    weak = colon_saturation_basis(basis, 0)
    gens = [ModuleTerm(e, 1) for e in minimalize(weak)]
    return pommaret_completion(MonomialModule(basis.layout, gens))


def truncate_basis(basis: PommaretBasis, m: int) -> PommaretBasis:
    """Pommaret basis of the degree->=m truncation.

    Keeps basis terms of degree >= m+1 and replaces each lower-degree term
    by the degree-m slice of its cone.  The output is certified directly by
    the structural test.
    """
    if not basis.certified:
        raise ValueError("requires a certified basis")
    layout = basis.layout
    out: set[ModuleTerm] = set()
    for t in basis.terms:
        d = layout.term_degree(t)
        if d >= m + 1:
            out.add(t)
            continue
        mi = min_index(t.exp)
        top = layout.n if mi is None else mi
        for extra in terms_of_degree(top + 1, m - d):
            e = list(t.exp)
            for i, x in enumerate(extra):
                e[i] += x
            out.add(ModuleTerm(tuple(e), t.comp))
    result = PommaretBasis(layout, frozenset(out), certified=True)
    assert is_pommaret_basis(result.terms, layout), "truncation lost the cone cover"
    return result


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
        mi = min_index(t.exp)
        i = layout.n if mi is None else mi
        total += comb(free + i, i)
    return total


def ambient_rank(layout: FreeModuleLayout, s: int) -> int:
    n = layout.n
    return sum(comb(s - d + n, n) for d in layout.weights if s - d >= 0)


def complement_rank(basis: PommaretBasis, s: int) -> int:
    return ambient_rank(basis.layout, s) - hilbert_function(basis, s)


def complement_terms(basis: PommaretBasis, s: int) -> list[ModuleTerm]:
    """The degree-s terms of the free module outside U, in listing order."""
    if not basis.certified:
        raise ValueError("requires a certified basis")
    layout = basis.layout
    out = []
    for k in range(1, layout.rank + 1):
        d = s - layout.weight(k)
        if d < 0:
            continue
        for e in terms_of_degree(layout.nvars, d):
            t = ModuleTerm(e, k)
            if not basis.contains_term(t):
                out.append(t)
    out.sort(key=lambda t: listing_key(layout, t))
    return out


def module_terms_of_degree(basis: PommaretBasis, s: int) -> list[ModuleTerm]:
    """The degree-s terms of U itself, by divisibility enumeration."""
    layout = basis.layout
    out = []
    for k in range(1, layout.rank + 1):
        d = s - layout.weight(k)
        if d < 0:
            continue
        for e in terms_of_degree(layout.nvars, d):
            t = ModuleTerm(e, k)
            if basis.contains_term(t):
                out.append(t)
    out.sort(key=lambda t: listing_key(layout, t))
    return out
