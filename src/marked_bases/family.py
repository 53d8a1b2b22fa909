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

The family equations read the same memoised prolongation reductions as
the basis test (`marked.prolongations` and `marked.prolongation_rep`), so
each prolongation of a generic set is reduced at most once.

Parameters are named C_{h,t} with h the index of the head in the listing
order of the basis and t the index of the complement term among the tails of
that head; this naming is part of the output contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import neg
from typing import Mapping

from .marked import (
    MarkedElement,
    MarkedSet,
    prolongation_rep,
    prolongations,
)
from .monom import (
    PommaretBasis,
    complement_terms,
)
from .ring import (
    MissingParameter,
    ModuleElement,
    ModuleTerm,
    ParamPoly,
    rational,
)


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
    terms, which the basis enumerates once per degree (`complement_terms`)."""
    pairs, names = [], []
    for h_idx, head in enumerate(basis.sorted_terms()):
        for t_idx, tail in enumerate(complement_terms(basis, basis.layout.term_degree(head))):
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
    tails = zip(pairs, [ParamPoly(n, {((k, 1),): -1}) for k in range(n)])
    marked = _marked_set(basis, ParamPoly.const(n, 1), tails)
    return GenericMarkedSet(basis, marked, tuple(names), tuple(pairs))


@dataclass(frozen=True)
class FamilyIdeal:
    """Parameter polynomials cutting out the marked family."""

    generators: tuple[ParamPoly, ...]
    param_names: tuple[str, ...]


def family_equations(generic: GenericMarkedSet) -> FamilyIdeal:
    """Collect the complement-term coefficients of all reduced
    non-multiplicative prolongations, syntactically deduplicated."""
    marked = generic.marked
    seen: set[ParamPoly] = set()
    out: list[ParamPoly] = []
    for head, j in prolongations(marked):
        for _, coeff in prolongation_rep(marked, head, j).remainder.sorted_terms():
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
