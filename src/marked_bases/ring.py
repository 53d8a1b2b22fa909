"""Exact coefficient arithmetic and sparse module elements.

Two coefficient domains are supported:

* exact rationals, the computation mode.  An integral rational is stored
  as a plain ``int`` and every other one as a ``fractions.Fraction``.
  Inputs are almost always integral and a forced reduction only subtracts
  multiples, so nearly every coefficient is an ``int``, whose arithmetic is
  exact and several times cheaper than ``Fraction`` arithmetic.  The two
  mix exactly (``int`` with ``int`` stays ``int``), compare and hash alike,
  and print alike (``str(3) == str(Fraction(3))``).  `rational` applies the
  rule where a rational is divided or stored: in the ``ModuleElement``
  constructor (so for every parsed element), `ParamPoly.const`, reduction
  summands, every division by a pivot, and every term `poly_add_product`
  stores;
* ``ParamPoly`` -- polynomials with rational coefficients in a declared
  finite list of parameters, the family mode.  Each monomial is stored,
  built and read sparsely, as sorted ``(parameter index, power)`` pairs,
  because a family has hundreds of parameters and each monomial involves
  only a few.

Elements of the weighted free module live in ``FreeModuleLayout(n, weights)``:
the ambient ring has variables x0..xn and the free generators e1..em carry
integer weights, so a module term x^a*ek has degree |a| + weights[k-1].

A module term is a pair ``ModuleTerm(exp, comp)`` with ``exp`` an exponent
tuple of length n+1 and ``comp`` the 1-based generator index.  A
``ModuleElement`` is a sparse map from module terms to non-zero coefficients;
all stored terms must share one degree (homogeneity is enforced), and the
zero element carries no degree.

Variables are ordered x0 < x1 < ... < xn.  The lex comparison used by the
reduction machinery gives the highest-index variable the most significance,
so it is plain int comparison on terms packed by `TermPacking`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, le, lshift
from typing import Mapping, NamedTuple, Union


class MarkedBasesError(Exception):
    """Base class for all domain errors raised by this package."""


class InternalError(MarkedBasesError):
    """A self-check of the kernel failed; indicates a bug, never bad input.

    Raised explicitly rather than by ``assert`` so that the check also runs
    under ``python -O``.
    """


class HeterogeneousElement(MarkedBasesError):
    """A module element mixes terms of two different degrees."""


class MissingParameter(MarkedBasesError):
    """A parameter of a marked family was left unassigned."""


Exponent = tuple[int, ...]

# An exact rational as stored: an int when integral, else a Fraction.
Rational = Union[int, Fraction]


def rational(q):
    """q with an integral Fraction replaced by its int value; every other
    value (an int, a non-integral Fraction) is returned unchanged."""
    if type(q) is Fraction and q.denominator == 1:
        return q.numerator
    return q


def exp_add(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(add, a, b))


def exp_deg(a: Exponent) -> int:
    return sum(a)


def exp_divides(a: Exponent, b: Exponent) -> bool:
    return all(map(le, a, b))


def exp_lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(max, a, b))


def var_exp(nvars: int, i: int) -> Exponent:
    e = [0] * nvars
    e[i] = 1
    return tuple(e)


def min_index(a: Exponent):
    """Index of the smallest variable dividing x^a, or None for a = 0."""
    for i, x in enumerate(a):
        if x:
            return i
    return None


def format_exponent(exp: Exponent) -> str:
    parts = []
    for i in range(len(exp) - 1, -1, -1):
        if exp[i] == 1:
            parts.append(f"x{i}")
        elif exp[i] > 1:
            parts.append(f"x{i}^{exp[i]}")
    return "*".join(parts) if parts else "1"


class ModuleTerm(NamedTuple):
    exp: Exponent
    comp: int  # 1-based free-generator index

    def __str__(self):
        """The term in the document grammar, which reads no marker as e1."""
        base = format_exponent(self.exp)
        if self.comp == 1:
            return base
        return f"e{self.comp}" if base == "1" else f"{base}*e{self.comp}"


class TermPacking:
    """Module terms of degree <= `degree` packed into one int each.

    Fields, least significant first: rank - comp, then one per variable, x0
    first, so int order is lex order with x_n most significant, and on
    equal exponents the lower component is the larger int.  An exponent
    packs with a zero component field, so a shift is one int addition.
    Each variable field is just wide enough for degree - min(weights), the
    largest exponent such a term can have; a term of higher degree could
    carry into the next field, so it is never packed (`monom._packed_for`).
    """

    __slots__ = ("degree", "rank", "shifts", "mask", "comp_mask")

    def __init__(self, layout: FreeModuleLayout, degree: int):
        self.degree = degree
        self.rank = rank = len(layout.weights)
        comp_width = (rank - 1).bit_length()
        width = max(1, (degree - min(layout.weights)).bit_length())
        self.shifts = tuple(range(comp_width, comp_width + width * (layout.n + 1), width))
        self.mask = (1 << width) - 1
        self.comp_mask = (1 << comp_width) - 1

    def pack(self, t: ModuleTerm) -> int:
        return sum(map(lshift, t.exp, self.shifts), self.rank - t.comp)

    def pack_exp(self, e: Exponent) -> int:
        return sum(map(lshift, e, self.shifts))

    def unpack_exp(self, p: int) -> Exponent:
        mask = self.mask
        return tuple([p >> s & mask for s in self.shifts])

    def unpack(self, p: int) -> ModuleTerm:
        return ModuleTerm(self.unpack_exp(p), self.rank - (p & self.comp_mask))


@dataclass(frozen=True)
class FreeModuleLayout:
    """Ambient weighted free module: variables x0..xn, generators e1..em."""

    n: int
    weights: tuple[int, ...] = (0,)

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("need at least one variable")
        if not self.weights:
            raise ValueError("rank must be at least 1")

    @property
    def nvars(self) -> int:
        return self.n + 1

    @property
    def rank(self) -> int:
        return len(self.weights)

    def weight(self, comp: int) -> int:
        return self.weights[comp - 1]

    def term_degree(self, t: ModuleTerm) -> int:
        return sum(t.exp) + self.weights[t.comp - 1]

    def check_term(self, t: ModuleTerm):
        if len(t.exp) != self.nvars:
            raise ValueError(f"exponent length {len(t.exp)} != {self.nvars}")
        if not 1 <= t.comp <= self.rank:
            raise ValueError(f"component {t.comp} out of range 1..{self.rank}")


def listing_key(layout: FreeModuleLayout, t: ModuleTerm):
    """Deterministic listing order for term sets: degree ascending, then
    degrevlex descending, then component ascending."""
    return (layout.term_degree(t), t.exp, t.comp)


# Sparse parameter monomial: sorted tuple of (parameter index, power) pairs
# with positive powers; () is the constant monomial.
ParamMonomial = tuple[tuple[int, int], ...]
# The sparse terms of a ParamPoly: monomial -> non-zero rational.
ParamTerms = dict[ParamMonomial, Rational]


def _mono_mul(a: ParamMonomial, b: ParamMonomial) -> ParamMonomial:
    """The product of two sparse monomials.  A factor of one pair, the
    shape of every generic tail coefficient, is inserted into the other
    factor's sorted pairs where its index belongs."""
    if not a:
        return b
    if not b:
        return a
    if len(b) != 1:
        if len(a) != 1:
            powers = dict(a)
            for i, p in b:
                powers[i] = powers.get(i, 0) + p
            return tuple(sorted(powers.items()))
        a, b = b, a
    (i, p), = b
    for k, (j, q) in enumerate(a):
        if j >= i:
            if j == i:
                return a[:k] + ((i, p + q),) + a[k + 1:]
            return a[:k] + b + a[k:]
    return a + b


def _mono_order_key(m: ParamMonomial):
    """Degree ascending, then ascending dense exponent tuple.

    The dense order is the order of the pairs (-index, power) in turn, so
    the key is the degree followed by those pairs, flattened; monomials of
    one or two pairs, nearly all of them, are keyed without a loop."""
    if len(m) == 1:
        (i, p), = m
        return (p, -i, p)
    if len(m) == 2:
        (i, p), (j, q) = m
        return (p + q, -i, p, -j, q)
    degree = 0
    flat: list[int] = []
    for i, p in m:
        degree += p
        flat += (-i, p)
    return (degree, *flat)


class ParamPoly:
    """Polynomial in a declared list of parameters, rational coefficients.

    Storage is sparse: each monomial is a sorted tuple of ``(index, power)``
    pairs (``()`` is the constant), mapped to a non-zero rational, so the
    cost of arithmetic does not grow with the number of parameters.  The
    constructor wraps such terms as they are: nothing is copied, checked or
    converted.  `const` stores an integral rational as an int; arithmetic
    stores what int and Fraction arithmetic yield, so ints stay ints, and
    only a result computed from a non-integral Fraction can be an integral
    Fraction (equal to the int, and printed alike).
    Instances are treated as immutable; arithmetic returns fresh objects.
    Plain numbers coerce to constants, so rationals and ParamPolys mix
    freely in module-element coefficients.
    """

    __slots__ = ("nparams", "_terms")

    def __init__(self, nparams: int, terms: ParamTerms):
        self.nparams = nparams
        self._terms = terms

    @classmethod
    def const(cls, nparams: int, value) -> "ParamPoly":
        v = rational(Fraction(value))
        return cls(nparams, {(): v} if v else {})

    def _coerce(self, other) -> "ParamPoly":
        if isinstance(other, ParamPoly):
            if other.nparams != self.nparams:
                raise ValueError("mixing ParamPolys over different parameter lists")
            return other
        if isinstance(other, (int, Fraction)):
            return ParamPoly.const(self.nparams, other)
        return NotImplemented  # type: ignore[return-value]

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ParamPoly.const(self.nparams, other)
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return self.nparams == other.nparams and self._terms == other._terms

    def __hash__(self):
        return hash((self.nparams, frozenset(self._terms.items())))

    def __neg__(self) -> "ParamPoly":
        return ParamPoly(self.nparams, {m: -c for m, c in self._terms.items()})

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        param_add_product(out, other._terms, {(): 1}, 1)
        return ParamPoly(self.nparams, out)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: ParamTerms = {}
        param_add_product(out, self._terms, other._terms, 1)
        return ParamPoly(self.nparams, out)

    __rmul__ = __mul__

    def is_constant(self) -> bool:
        return all(not m for m in self._terms)

    def constant_value(self) -> Rational:
        if not self._terms:
            return 0
        [(m, c)] = self._terms.items()
        if m:
            raise ValueError("not a constant")
        return c

    def sorted_terms(self) -> list[tuple[ParamMonomial, Rational]]:
        """(sparse monomial, coefficient) pairs, degree ascending, then
        ascending dense exponent tuple."""
        return sorted(self._terms.items(), key=lambda item: _mono_order_key(item[0]))

    def __repr__(self):
        return f"ParamPoly({self.nparams}, {self._terms!r})"


Coeff = Union[int, Fraction, ParamPoly]


class ModuleElement:
    """Homogeneous sparse element of a weighted free module.

    ``terms`` never stores zero coefficients, and the constructor stores
    integral rationals as ints (`rational`).  ``degree`` is None exactly for
    the zero element, which is compatible with every degree.
    """

    __slots__ = ("layout", "terms", "degree")

    def __init__(self, layout: FreeModuleLayout, terms: Mapping[ModuleTerm, Coeff]):
        clean: dict[ModuleTerm, Coeff] = {}
        degree = None
        for t, c in terms.items():
            if not c:
                continue
            layout.check_term(t)
            d = layout.term_degree(t)
            if degree is None:
                degree = d
            elif d != degree:
                raise HeterogeneousElement(
                    f"degrees {degree} and {d} in one element"
                )
            clean[t] = rational(c)
        self.layout = layout
        self.terms = clean
        self.degree = degree

    @classmethod
    def _trusted(cls, layout: FreeModuleLayout, terms: dict, degree) -> "ModuleElement":
        """Wrap terms that are valid for the layout, share the given degree
        and carry stored non-zero coefficients; nothing is copied, checked
        or converted."""
        el = object.__new__(cls)
        el.layout = layout
        el.terms = terms
        el.degree = degree
        return el

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, t: ModuleTerm) -> Coeff:
        return self.terms.get(t, 0)

    def sorted_terms(self):
        """The terms component ascending, then degrevlex descending: on
        exponents of one degree, ascending tuple order is exactly that."""
        return sorted(self.terms.items(), key=lambda item: (item[0].comp, item[0].exp))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModuleElement):
            return NotImplemented
        return self.layout == other.layout and self.terms == other.terms

    def __repr__(self):
        return f"ModuleElement({self.terms!r})"


# ---------- scalar polynomials (differential entries, coordinate changes) ----

# A scalar polynomial in x0..xn is a sparse dict {exponent tuple: coefficient};
# the empty dict is zero.  These are the entries of differential matrices.
Poly = dict[Exponent, Coeff]


def poly_add_product(target: Poly, p: Poly, q: Poly, sign: int) -> None:
    """In-place target += sign * p * q over the non-zero terms: every value
    is stored by the int-when-integral rule and an entry that cancels is
    deleted.  The one place where scalar polynomials are multiplied."""
    for e1, c1 in p.items():
        if sign < 0:
            c1 = -c1
        for e2, c2 in q.items():
            e = tuple(map(add, e1, e2))
            s = target.get(e)
            s = c1 * c2 if s is None else s + c1 * c2
            if s:
                target[e] = rational(s)
            else:
                del target[e]


def param_add_product(target: ParamTerms, p: ParamTerms, q: ParamTerms, sign: int) -> None:
    """`poly_add_product` on the sparse terms of ParamPolys, without
    `rational`, as in all ParamPoly arithmetic; the one loop that adds or
    multiplies them (ParamPoly `+` and `*`, the K[C] steps of the
    reduction kernel `marked._reduce`)."""
    for m1, c1 in p.items():
        if sign < 0:
            c1 = -c1
        for m2, c2 in q.items():
            m = _mono_mul(m1, m2)
            s = target.get(m)
            s = c1 * c2 if s is None else s + c1 * c2
            if s:
                target[m] = s
            else:
                del target[m]


def sparse_terms(c: Coeff) -> ParamTerms:
    """The sparse terms of a ParamPoly c, not copied, or of a non-zero
    rational c as a constant."""
    return c._terms if isinstance(c, ParamPoly) else {(): c}


def poly_constant(p: Poly):
    """The value of a non-zero constant polynomial, else None."""
    if len(p) != 1:
        return None
    [(e, c)] = p.items()
    if any(e):
        return None
    return c

