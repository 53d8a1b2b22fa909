"""Marked sets over a Pommaret basis and the marked reduction relation.

A marked set carries one homogeneous element per basis term: the head term
has coefficient one and every other support term lies outside the monomial
module.  Reduction rewrites a term of U by subtracting the unique
multiplicative multiple of the element whose head cone contains it; no term
order is involved, which is the whole point.  The relation is confluent and
terminating, so normal forms do not depend on which reducible term is
attacked first; the engine still fixes a deterministic strategy (always the
lex-greatest reducible term, popped from a heap) and checks, at every step,
the certificate that makes termination obvious: each freshly created term
of U has a cone multiplier strictly lex-below the multiplier just used.

The reductions of the non-multiplicative prolongations x_j*f are the data
every later construction reads: the basis test and the family equations
need their remainders, the syzygies their summands.  `prolongations` walks
them in one fixed order (element order, then variable index) and
`prolongation_rep` reduces each of them once per marked set and memoises
the representation on the set, so every consumer of the same set shares
one reduction per prolongation.  It builds x_j*f straight from the packed
body of f, each term plus one shift, and the summands of the reduction
stay packed: the syzygy step reads them so (`Representation.packed`).

Inside the reduction kernel (`_reduce`, which `reduce_full` and
`prolongation_rep` both call) a term is one int, packed by the basis's
`ring.TermPacking` (packed monomials after Bachmann and Schönemann, ISSAC
1998; a heap of packed keys after Monagan and Pearce, J. Symb. Comput.
2011): rank - comp in the lowest field, then one field per variable with
x_n most significant.  So int order is lex order, the lower component the
larger int on equal exponents, and the heap pops the largest int; a shift
is one int addition, the multiplier of a target is target - head, and the
lex-descent certificate is new_mult < mult.  Width rule: each variable
field holds degree - min(weights) for max_degree() + 1, so every
prolongation fits, and the basis's packing is fixed when the basis is
built (`PommaretBasis.packing`).  The terms of one reduction share deg(h);
`reduce_full` reduces a target of higher degree over a copy of the set
whose basis is packed for it, so no field overflows.  Each marked set packs
its bodies once, when it is built (`MarkedSet.packed_bodies`), or is given
them packed (a syzygy level); all sets over one basis share its packing
and cone memo.  Module elements and representations are keyed by module
terms.

Over Q the work element and the summands hold inline ints and Fractions,
and a step computes s - coeff * c.  Over K[C] (ParamPoly head coefficients,
as in a generic set; decided once, when the set is built) they hold
sparse-terms dicts, a step multiply-subtracts coeff * c into the target's
dict in place (`ring.param_add_product`, reading c's `ring.sparse_terms`),
and each dict is wrapped as a ParamPoly once, for the representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from heapq import heapify, heappop, heappush
from operator import itemgetter
from typing import Iterable, Iterator, Optional

from .monom import PommaretBasis, _packed_for, nonmultiplicative_variables
from .ring import (
    Coeff,
    Exponent,
    InternalError,
    MarkedBasesError,
    ModuleElement,
    ModuleTerm,
    ParamPoly,
    param_add_product,
    rational,
    sparse_terms,
)


class HeadMismatch(MarkedBasesError):
    """Heads of the given elements are not exactly the basis terms."""


class HeadCoefficientNotOne(MarkedBasesError):
    pass


class TailTermInU(MarkedBasesError):
    def __init__(self, term: ModuleTerm):
        self.term = term
        super().__init__(f"tail term {term} lies inside the monomial module")


class NotABasis(MarkedBasesError):
    """Operation requires a previously certified marked basis."""


class InternalNonTermination(InternalError):
    """The per-step lex certificate failed; indicates an implementation bug."""


@dataclass(frozen=True)
class MarkedElement:
    """Homogeneous element with a distinguished head term of coefficient one."""

    body: ModuleElement
    head: ModuleTerm

    def __post_init__(self):
        if self.head not in self.body.terms:
            raise HeadMismatch(f"head {self.head} not in the support")
        if not self.body.terms[self.head] == 1:
            raise HeadCoefficientNotOne(f"head {self.head} has coefficient != 1")


class MarkedSet:
    """One marked element per Pommaret-basis term, tails outside the module.

    Element order is the construction order (it fixes the numbering used by
    syzygies and printed matrices); ``position`` maps each packed head to
    its 0-based place in it.  The marked-basis verdict is cached once
    established, and so is the representation of every prolongation reduced
    through `prolongation_rep`; instances are immutable so these caches are
    sound.

    ``packed_bodies``, the one body store, is what the kernel reads, packed
    by the basis's packing: {packed head: (head, packed tail terms, their
    coefficients)} in element order, each tail in body order, over K[C]
    too.  The constructor packs them from the elements and checks the tails
    through the cone memo.  A syzygy level is built by `_from_packed`
    instead, from bodies its step wrote packed and checked; its
    ``elements`` are unpacked on the first read, so a level that only
    resolution reads is never unpacked.
    """

    __slots__ = (
        "basis", "_elements", "position", "nparams", "packed_bodies",
        "_certified", "_prolongations",
    )

    def __init__(self, basis: PommaretBasis, elements: Iterable[MarkedElement]):
        if not basis.certified:
            raise ValueError("marked sets require a certified Pommaret basis")
        by_head: dict[ModuleTerm, MarkedElement] = {}
        for el in elements:
            if el.body.layout != basis.layout:
                raise ValueError("element layout differs from the basis layout")
            if el.head in by_head:
                raise HeadMismatch(f"duplicate head {el.head}")
            by_head[el.head] = el
        missing = basis.terms - set(by_head)
        extra = set(by_head) - basis.terms
        if missing or extra:
            raise HeadMismatch(
                "heads do not match the basis "
                f"(missing [{', '.join(map(str, sorted(missing)))}], "
                f"extra [{', '.join(map(str, sorted(extra)))}])"
            )
        # None over Q, else the number of parameters of the head coefficients.
        sample = next((el.body.terms[el.head] for el in by_head.values()), 1)
        nparams = sample.nparams if isinstance(sample, ParamPoly) else None
        # The tails are checked as the kernel will read them, packed, and
        # through the cone memo: the tails of many elements share terms.
        # Every term has the degree of a head, which the packing holds.
        packing = basis.packing
        pack = packing.pack
        bodies = {}
        for head, el in by_head.items():
            terms = tuple([pack(t) for t in el.body.terms if t != head])
            for p in terms:
                if basis.cone_divisor(p) is not None:
                    raise TailTermInU(packing.unpack(p))
            coeffs = tuple([c for t, c in el.body.terms.items() if t != head])
            bodies[pack(head)] = (head, terms, coeffs)
        self._set(basis, bodies, nparams, by_head)

    @classmethod
    def _from_packed(cls, basis: PommaretBasis, bodies: dict, nparams) -> "MarkedSet":
        """The set over `basis` with the given `packed_bodies`, which must
        hold valid marked elements; nothing is checked or unpacked."""
        self = object.__new__(cls)
        self._set(basis, bodies, nparams, None)
        return self

    def _set(self, basis, bodies, nparams, elements) -> None:
        self.basis = basis
        self.packed_bodies = bodies
        self.nparams = nparams
        self._elements = elements
        self.position = {p: i for i, p in enumerate(bodies)}
        self._certified: Optional[bool] = None
        self._prolongations: dict[tuple[ModuleTerm, int], Representation] = {}

    @property
    def layout(self):
        return self.basis.layout

    @property
    def elements(self) -> dict[ModuleTerm, MarkedElement]:
        """head -> element, in element order."""
        if self._elements is None:
            layout, unpack = self.layout, self.basis.packing.unpack
            one = 1 if self.nparams is None else ParamPoly.const(self.nparams, 1)
            self._elements = {}
            for head, terms, coeffs in self.packed_bodies.values():
                body = {head: one, **{unpack(t): c for t, c in zip(terms, coeffs)}}
                body = ModuleElement._trusted(layout, body, layout.term_degree(head))
                self._elements[head] = MarkedElement(body, head)
        return self._elements

    def ordered(self) -> list[MarkedElement]:
        return list(self.elements.values())


class Representation:
    """Result of a full reduction: h = sum(c * x^mult * element(head)) + remainder.

    Each multiplier is multiplicative for its head, (multiplier, head) pairs
    are distinct, and `summands` lists (c, mult, head) with multipliers
    lex-descending (per head the descent is strict), then in element order.
    The remainder is supported outside the monomial module.

    The summands are held in the one form the kernel hands over, packed:
    ``packed`` lists them, in the same order, as (packed multiplier, packed
    head, c) under ``packing``, the packing of the set's basis, which never
    changes.  `packed` is given as a tuple or as a callable that builds it
    from the kernel's own summands on the first read; `summands` unpacks it
    by ``packing`` on the first read.  So the summands that no consumer
    reads (the basis test and the family equations read only the
    remainder) are never sorted, and the syzygy step, which reads
    `packed`, never unpacks them.
    """

    __slots__ = ("packing", "remainder", "_packed", "_summands")

    def __init__(self, packing, remainder: ModuleElement, packed):
        self.packing = packing
        self.remainder = remainder
        self._packed = packed
        self._summands = None

    @property
    def packed(self) -> tuple[tuple[int, int, Coeff], ...]:
        packed = self._packed
        if type(packed) is not tuple:
            packed = self._packed = packed()
        return packed

    @property
    def summands(self) -> tuple[tuple[Coeff, Exponent, ModuleTerm], ...]:
        summands = self._summands
        if summands is None:
            unpack_exp, unpack = self.packing.unpack_exp, self.packing.unpack
            summands = self._summands = tuple(
                [(c, unpack_exp(mult), unpack(divisor)) for mult, divisor, c in self.packed])
        return summands


def reduce_full(h: ModuleElement, marked: MarkedSet) -> Representation:
    """Reduce h to its normal form modulo the marked set.

    The reducer for a term of U is forced (the unique element whose head
    cone contains it, scaled by the multiplicative multiplier), so only the
    order of attack is a choice, and it cannot change the outcome.  h is
    packed by the basis's packing and reduced by `_reduce`, the kernel
    `prolongation_rep` shares.  When deg(h) is above the packing, h is
    reduced over a copy of the set on a copy of the basis packed for deg(h)
    (`monom._packed_for`).
    """
    if h.layout != marked.layout:
        raise ValueError("element layout differs from the marked set layout")
    basis = _packed_for(marked.basis, h.degree or 0)
    if basis is not marked.basis:
        marked = MarkedSet(basis, marked.ordered())
    pack = basis.packing.pack
    return _reduce({pack(t): c for t, c in h.terms.items()}, h.degree, marked)


def _reduce(work: dict, degree: int | None, marked: MarkedSet) -> Representation:
    """The reduction kernel.  `work` is the element to reduce, {packed term:
    stored coefficient} under the basis's packing, of degree `degree` (None
    for zero); the kernel consumes it.

    The engine always attacks the lex-greatest term of U left in the work
    element (lower component first on equal exponents): every term of U is
    pushed on a heap when it enters the work element, and a popped term
    that has since cancelled is skipped.  Each cone lookup happens once per
    created term, where the lex-descent certificate needs it anyway.  The
    remainder is unpacked at the end, in the order its terms entered the
    work element; the summands are unpacked only when they are read.
    """
    basis = marked.basis
    packing = basis.packing
    bodies = marked.packed_bodies
    nparams = marked.nparams
    cone = basis.cone_divisor
    divisor_of: dict[int, int] = {}  # each term of U pushed -> its packed head
    heap = []
    for p in work:
        head = cone(p)
        if head is not None:
            divisor_of[p] = head
            heap.append(-p)
    heapify(heap)
    if nparams is not None:
        # The kernel owns its coefficient dicts, and writes to them in place.
        work = {p: dict(sparse_terms(c)) for p, c in work.items()}
    summands: dict[int, Coeff] = {}  # packed target -> coefficient
    while heap:
        target = -heappop(heap)
        coeff = work.pop(target, None)
        if coeff is None:
            continue
        prev = summands.get(target)
        if prev is None:
            summands[target] = coeff
        else:
            if nparams is None:
                prev = summands[target] = prev + coeff
            else:
                param_add_product(prev, coeff, {(): 1}, 1)
            if not prev:
                del summands[target]
        head = divisor_of[target]
        _, terms, coeffs = bodies[head]
        mult = target - head
        for t, c in zip(terms, coeffs):
            shifted = t + mult
            divisor = cone(shifted)
            s = work.get(shifted)
            if divisor is not None:
                if not shifted - divisor < mult:
                    raise InternalNonTermination(
                        f"created multiplier {packing.unpack_exp(shifted - divisor)} "
                        f"not lex-below {packing.unpack_exp(mult)}"
                    )
                if s is None:
                    divisor_of[shifted] = divisor
                    heappush(heap, -shifted)
            if nparams is None:
                s = work[shifted] = -(coeff * c) if s is None else s - coeff * c
            else:
                if s is None:
                    s = work[shifted] = {}
                param_add_product(s, coeff, sparse_terms(c), -1)
            if not s:
                del work[shifted]
    wrap = rational if nparams is None else partial(ParamPoly, nparams)
    unpack = packing.unpack
    remainder = ModuleElement._trusted(
        basis.layout, {unpack(p): wrap(c) for p, c in work.items()}, degree if work else None
    )
    packed = ()
    if summands:
        packed = partial(_sort_summands, summands, divisor_of, marked.position, wrap)
    return Representation(packing, remainder, packed)


def _sort_summands(summands, divisor_of, position, wrap) -> tuple:
    """The kernel's summands {packed target: coefficient} as
    `Representation.packed` lists them: lex-descending in the multiplier,
    then in element order."""
    keyed = []
    for target, c in summands.items():
        divisor = divisor_of[target]
        keyed.append((divisor - target, position[divisor], divisor, c))
    keyed.sort(key=itemgetter(0, 1))
    return tuple([(-neg, divisor, wrap(c)) for neg, _, divisor, c in keyed])


@dataclass(frozen=True)
class BasisCheck:
    """Outcome of the marked-basis test.

    `certificate`, present on failure, is (head, variable, remainder): the
    prolongation of that element by that non-multiplicative variable left
    the non-zero remainder.  `inconclusive_beyond` is set when a degree cap
    below reg(U)+1 silenced some prolongations.
    """

    is_basis: bool
    certificate: tuple[ModuleTerm, int, ModuleElement] | None = None
    inconclusive_beyond: int | None = None


def prolongations(marked: MarkedSet) -> Iterator[tuple[ModuleTerm, int]]:
    """Every non-multiplicative prolongation (head, j), meaning x_j times
    the element of that head, in element order, then variable index.
    Reduces nothing: representations come from `prolongation_rep`."""
    n = marked.layout.n
    for head, _, _ in marked.packed_bodies.values():
        for j in nonmultiplicative_variables(head, n):
            yield head, j


def prolongation_rep(marked: MarkedSet, head: ModuleTerm, j: int) -> Representation:
    """Representation of x_j times the element of `head`, reduced on first
    request and then memoised.

    `head` must be a head of `marked` and `j` a non-multiplicative variable
    of it.  The work element is the packed head, of coefficient one, and
    tail terms of the element (`MarkedSet.packed_bodies`) plus the packed
    x_j, so no module element is built and no term packed but the head.
    The reduction is the kernel of `reduce_full`, so the lex-descent
    certificate is checked on every step of the one reduction.
    """
    key = (head, j)
    rep = marked._prolongations.get(key)
    if rep is None:
        packing = marked.basis.packing
        shift = 1 << packing.shifts[j]
        p = packing.pack(head)
        _, terms, coeffs = marked.packed_bodies[p]
        work = {p + shift: 1}
        work.update(zip([t + shift for t in terms], coeffs))
        degree = marked.basis.layout.term_degree(head) + 1
        rep = marked._prolongations[key] = _reduce(work, degree, marked)
    return rep


def is_marked_basis(marked: MarkedSet, up_to_degree: int | None = None) -> BasisCheck:
    """Test whether every non-multiplicative prolongation reduces to zero.

    With `up_to_degree=s` only prolongations of degree <= s are checked;
    since prolongation degrees never exceed reg(U)+1, any cap at or above
    that threshold is equivalent to the full test and conclusive.
    Prolongations are visited in the order of `prolongations`, and the test
    stops at the first non-zero remainder, which is the certificate.
    """
    basis = marked.basis
    # Without a cap the test is conclusive, and reg is not computed.
    conclusive = up_to_degree is None or up_to_degree >= basis.max_degree() + 1
    if marked._certified is not None and conclusive:
        return BasisCheck(marked._certified)

    for head, j in prolongations(marked):
        degree = basis.layout.term_degree(head) + 1
        if up_to_degree is not None and degree > up_to_degree:
            continue
        remainder = prolongation_rep(marked, head, j).remainder
        if not remainder.is_zero():
            if conclusive:
                marked._certified = False
            return BasisCheck(False, certificate=(head, j, remainder))
    if conclusive:
        marked._certified = True
        return BasisCheck(True)
    return BasisCheck(True, inconclusive_beyond=up_to_degree)

