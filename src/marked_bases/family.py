"""Generic marked sets, equations of the marked family, specialization.

Over a fixed Pommaret basis, the generic marked set replaces every tail
coefficient by its own parameter: the element with head h gets one parameter
per complement term of the same degree.  Fully reducing every
non-multiplicative prolongation of the generic set and collecting the
complement-term coefficients of the remainders yields a set R of parameter
polynomials; an assignment of the parameters produces a marked basis exactly
when it annihilates R, so R cuts out the family of all marked bases over
these heads inside the affine space of tail coefficients.  Since reduction
is forced, it commutes with evaluating the parameters: whether R vanishes at
a point is exactly the basis test of the specialized set.  `specialized_set`
builds that set straight from the heads, so `mbases specialize` builds
neither R nor the generic set.

The family equations and the triangular check read the same memoised
prolongation reductions as the basis test (`marked.prolongations` and
`marked.prolongation_rep`), so each prolongation of a generic set is
reduced at most once.

Parameters are named C_{h,t} with h the index of the head in the listing
order of the basis and t the index of the complement term among the tails of
that head; this naming is part of the output contract.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from operator import neg
from typing import Mapping

from .marked import (
    MarkedElement,
    MarkedSet,
    Representation,
    prolongation_rep,
    prolongations,
)
from .monom import (
    PommaretBasis,
    basis_invariants,
    complement_terms,
    pommaret_class,
    rho,
    truncate_basis,
)
from .ring import (
    InternalError,
    MarkedBasesError,
    MissingParameter,
    ModuleElement,
    ModuleTerm,
    ParamPoly,
    Rational,
    exp_deg,
    min_index,
    rational,
)


class HypothesisViolated(MarkedBasesError):
    """A stated hypothesis of the triangular representation fails."""


class StructureViolated(InternalError):
    """The verified structural claim failed; indicates an implementation bug."""


@dataclass(frozen=True)
class GenericMarkedSet:
    """Marked set whose tail coefficients are independent parameters."""

    basis: PommaretBasis
    marked: MarkedSet
    param_names: tuple[str, ...]
    param_pairs: tuple[tuple[ModuleTerm, ModuleTerm], ...]  # (head, tail term)

    @property
    def nparams(self) -> int:
        return len(self.param_names)


def tail_parameters(basis: PommaretBasis) -> tuple[list[tuple], list[str]]:
    """The (head, tail term) pairs and names C_{h,t} of the parameters,
    head-major in the listing order of heads and of each degree's complement
    terms, which are enumerated once."""
    tails_of = functools.cache(functools.partial(complement_terms, basis))
    pairs, names = [], []
    for h_idx, head in enumerate(basis.sorted_terms()):
        for t_idx, tail in enumerate(tails_of(basis.layout.term_degree(head))):
            pairs.append((head, tail))
            names.append(f"C_{{{h_idx},{t_idx}}}")
    return pairs, names


def _marked_set(basis: PommaretBasis, one, tails) -> MarkedSet:
    """One element per head, in listing order: the head with coefficient
    `one`, then the ((head, tail term), coefficient) pairs of `tails`, zeros
    dropped.  Heads and complement terms of one degree: unchecked."""
    layout = basis.layout
    bodies = {head: {head: one} for head in basis.sorted_terms()}
    for (head, tail), c in tails:
        if c:
            bodies[head][tail] = c
    return MarkedSet(basis, [
        MarkedElement(ModuleElement._trusted(layout, terms, layout.term_degree(head)), head)
        for head, terms in bodies.items()
    ])


def generic_marked_set(basis: PommaretBasis) -> GenericMarkedSet:
    """One generic element per head; parameter k is the tail coefficient
    -C_k of its (head, tail term)."""
    if not basis.certified:
        raise ValueError("requires a certified basis")
    pairs, names = tail_parameters(basis)
    n = len(pairs)
    tails = zip(pairs, [ParamPoly._trusted(n, {((k, 1),): -1}) for k in range(n)])
    marked = _marked_set(basis, ParamPoly.const(n, 1), tails)
    return GenericMarkedSet(basis, marked, tuple(names), tuple(pairs))


@dataclass(frozen=True)
class FamilyIdeal:
    """Parameter polynomials cutting out the marked family."""

    generators: tuple[ParamPoly, ...]
    param_names: tuple[str, ...]

    def vanishes_at(self, assignment: Mapping[int, Rational]) -> bool:
        return all(g.evaluate(assignment) == 0 for g in self.generators)


def family_equations(generic: GenericMarkedSet) -> FamilyIdeal:
    """Collect the complement-term coefficients of all reduced
    non-multiplicative prolongations, syntactically deduplicated."""
    marked = generic.marked
    seen: set[ParamPoly] = set()
    out: list[ParamPoly] = []
    for el, j in prolongations(marked):
        for _, coeff in prolongation_rep(marked, el, j).remainder.sorted_terms():
            if coeff not in seen:
                seen.add(coeff)
                out.append(coeff)
    return FamilyIdeal(tuple(out), generic.param_names)


def specialized_set(basis: PommaretBasis, pairs, names, assignment: Mapping):
    """The one builder of specialized sets: the parameters `pairs`, `names`
    of `tail_parameters(basis)` at an assignment keyed by name or index.
    Returns the marked set, with tail coefficient -value at each pair, and
    the values, one stored rational each (no second `Fraction` of any)."""
    index = {name: i for i, name in enumerate(names)}
    values: list = [None] * len(names)
    for key, value in assignment.items():
        idx = index.get(key) if isinstance(key, str) else int(key)
        if idx is None:
            raise KeyError(f"unknown parameter {key!r}")
        if not 0 <= idx < len(names):
            raise KeyError(f"parameter index {idx} out of range")
        if type(value) is not int:
            value = rational(value if type(value) is Fraction else Fraction(value))
        values[idx] = value
    missing = [names[i] for i, v in enumerate(values) if v is None]
    if missing:
        raise MissingParameter(f"unassigned parameters: {', '.join(missing)}")
    return _marked_set(basis, 1, zip(pairs, map(neg, values))), values


@dataclass(frozen=True)
class Specialization:
    marked: MarkedSet
    assignment: dict


def specialize(generic: GenericMarkedSet, assignment: Mapping) -> Specialization:
    """The generic set at the assignment, built by `specialized_set` from its
    heads and parameters; no parameter polynomial is evaluated.

    Marked reduction is forced, so it commutes with specialization: the
    family equations at a point are the remainder coefficients of the
    specialized set's prolongations.  Whether they vanish is therefore the
    basis test of ``marked``, and `is_marked_basis` answers it without
    building the equations.
    """
    marked, values = specialized_set(
        generic.basis, generic.param_pairs, generic.param_names, assignment
    )
    return Specialization(marked, dict(enumerate(values)))


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
    generic: GenericMarkedSet,
    head: ModuleTerm,
    i: int,
    *,
    base: PommaretBasis,
    truncation_degree: int,
) -> TriangularReport:
    """Representation of the prolongation x_i * F_head over a generic set on
    a truncated saturated ideal, with its triangular shape verified.

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
    rep = prolongation_rep(generic.marked, generic.marked.elements[head], i)
    for _, mult, tau in rep.summands:
        if exp_deg(mult) != 1:
            raise StructureViolated(f"multiplier x^{mult} is not a single variable")
        j = min_index(mult)
        if j >= i:
            raise StructureViolated(f"multiplier x{j} not below x{i}")
        if j > pommaret_class(tau.exp, layout.n):
            raise StructureViolated(f"multiplier x{j} not multiplicative for {tau}")
    for t in rep.remainder.terms:
        if base.cone_divisor(t) is not None:
            raise StructureViolated(f"remainder term {t} lies inside the base ideal")
    return TriangularReport(head, i, rep, True)


def tails_respect_min_variable(marked: MarkedSet) -> bool:
    """Every tail term's minimal variable stays at or below the head's."""
    for el in marked.ordered():
        hmin = min_index(el.head.exp)
        if hmin is None:
            continue
        for t in el.tail_terms():
            tmin = min_index(t.exp)
            if tmin is None or tmin > hmin:
                return False
    return True


def x0_heads_are_divisible(marked: MarkedSet) -> bool:
    """Elements whose head involves x0 have x0 dividing every tail term."""
    for el in marked.ordered():
        if min_index(el.head.exp) == 0:
            for t in el.tail_terms():
                if t.exp[0] == 0:
                    return False
    return True
