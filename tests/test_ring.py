import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from marked_bases import (
    FreeModuleLayout,
    HeterogeneousElement,
    MissingParameter,
    ModuleElement,
    ParamPoly,
)
from marked_bases.ring import poly_add_product
from conftest import E, LAY3, T
from oracles import evaluate, mul_term, param_poly, param_variable

LAY1 = FreeModuleLayout(0)
LAY2 = FreeModuleLayout(1)


class TestCanonicalize:
    def test_zero_coefficient_removed(self):
        e = ModuleElement(LAY3, {T((0, 1, 0)): Fraction(0), T((1, 0, 0)): Fraction(1)})
        assert set(e.terms) == {T((1, 0, 0))}

    def test_heterogeneous_rejected(self):
        with pytest.raises(HeterogeneousElement):
            ModuleElement(LAY3, {T((0, 0, 2)): Fraction(1), T((1, 0, 0)): Fraction(1)})

    def test_idempotent(self):
        e = E(LAY3, {T((1, 1, 0)): 1, T((0, 0, 2)): -3})
        again = ModuleElement(e.layout, e.terms)
        assert ModuleElement(again.layout, again.terms) == again == e

    def test_weights_enter_degrees(self):
        lay = FreeModuleLayout(1, (0, 1))
        e = ModuleElement(lay, {T((1, 0), 2): Fraction(1), T((1, 1), 1): Fraction(2)})
        assert e.degree == 2
        with pytest.raises(HeterogeneousElement):
            ModuleElement(lay, {T((1, 0), 1): Fraction(1), T((1, 0), 2): Fraction(1)})


class TestMulTerm:
    def test_single_variable(self):
        e = mul_term(E(LAY3, {T((0, 1, 0)): 1}), (1, 0, 0))
        assert e == E(LAY3, {T((1, 1, 0)): 1})

    def test_identity(self):
        e = E(LAY3, {T((1, 1, 0)): 2, T((0, 0, 2)): -1})
        assert mul_term(e, (0, 0, 0)) == e

    def test_twisted_product(self):
        # x2 * (x1x0 + x2^2) = x2x1x0 + x2^3
        e = mul_term(E(LAY3, {T((1, 1, 0)): 1, T((0, 0, 2)): 1}), (0, 0, 1))
        assert e == E(LAY3, {T((1, 1, 1)): 1, T((0, 0, 3)): 1})
        assert e.degree == 3

    @given(
        st.tuples(*[st.integers(0, 3)] * 3),
        st.tuples(*[st.integers(0, 3)] * 3),
    )
    def test_composition(self, s, t):
        e = E(LAY3, {T((1, 1, 0)): 1, T((0, 0, 2)): -2})
        assert mul_term(mul_term(e, t), s) == mul_term(e, tuple(a + b for a, b in zip(s, t)))


@pytest.mark.parametrize("term, text", [
    (T((1, 0, 1)), "x2*x0"),
    (T((0, 0, 0)), "1"),
    (T((0, 2, 0), 3), "x1^2*e3"),
    (T((0, 0, 0), 2), "e2"),
])
def test_module_term_prints_in_the_grammar(term, text):
    assert str(term) == f"{term}" == text


def test_rational_arithmetic_exact():
    rng = random.Random(1)
    for _ in range(1000):
        a, c = rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)
        b, d = rng.randint(1, 10**6), rng.randint(1, 10**6)
        assert Fraction(a, b) + Fraction(c, d) == Fraction(a * d + c * b, b * d)


class TestParamPoly:
    def test_evaluate_difference_of_square(self):
        a = param_variable(2, 0)
        b = param_variable(2, 1)
        p = a - b * b
        assert evaluate(p, {0: Fraction(4), 1: Fraction(2)}) == 0

    def test_evaluate_constant(self):
        assert evaluate(ParamPoly.const(0, 7), {}) == 7

    def test_missing_parameter(self):
        a = param_variable(2, 0)
        b = param_variable(2, 1)
        with pytest.raises(MissingParameter):
            evaluate(a - b * b, {0: Fraction(1)})

    def test_is_ring_morphism(self):
        rng = random.Random(2)
        for _ in range(50):
            terms_p = {
                tuple(rng.randint(0, 2) for _ in range(3)): Fraction(rng.randint(-4, 4))
                for _ in range(3)
            }
            terms_q = {
                tuple(rng.randint(0, 2) for _ in range(3)): Fraction(rng.randint(-4, 4))
                for _ in range(3)
            }
            p, q = param_poly(3, terms_p), param_poly(3, terms_q)
            point = {i: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for i in range(3)}
            assert evaluate(p * q, point) == evaluate(p, point) * evaluate(q, point)
            assert evaluate(p + q, point) == evaluate(p, point) + evaluate(q, point)

    def test_mixing_with_fractions(self):
        a = param_variable(1, 0)
        assert Fraction(2) * a == a + a
        assert a - a == ParamPoly.const(1, 0)
        assert not (a - a)
        assert ParamPoly.const(1, 1) == 1


# Stored coefficients: ints, and Fractions with denominators 2 and 3, so
# that sums of products often come out integral.
STORED = st.integers(-3, 3).filter(bool) | st.fractions(-3, 3, max_denominator=3).filter(
    bool
).map(lambda f: f.numerator if f.denominator == 1 else f)
POLYS = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3), STORED, max_size=4)


def naive_add_product(target, p, q, sign):
    """target + sign * p * q: the product dict first, then the sum, zero
    sums dropped."""
    product = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            product[e] = product.get(e, 0) + c1 * c2
    out = dict(target)
    for e, c in product.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def assert_stored(poly):
    for c in poly.values():
        assert c and (type(c) is int or (type(c) is Fraction and c.denominator != 1)), c


class TestPolyAddProduct:
    """`poly_add_product` against a naive reference; the worked example of
    an integral Fraction stored as an int is in test_coefficients.py."""

    @given(POLYS, POLYS, POLYS, st.sampled_from([1, -1]))
    def test_matches_naive_reference(self, target, p, q, sign):
        expected = naive_add_product(target, p, q, sign)
        poly_add_product(target, p, q, sign)
        assert target == expected
        assert_stored(target)

    @given(POLYS, POLYS, POLYS)
    def test_cancels_to_empty(self, extra, p, q):
        target = naive_add_product(extra, p, q, 1)
        poly_add_product(target, p, q, -1)
        poly_add_product(target, {(0, 0, 0): -1}, extra, 1)
        assert target == {}

    @given(POLYS, POLYS)
    def test_poly_mul(self, p, q):
        """A product is a multiply-add into an empty target."""
        product = {}
        poly_add_product(product, p, q, 1)
        assert product == naive_add_product({}, p, q, 1)
        assert_stored(product)


def test_zero_element_compatible_with_every_degree():
    """A zero coefficient fixes no degree, on a term of any degree."""
    assert ModuleElement(LAY3, {T((0, 0, 2)): 1, T((0, 0, 3)): 0}).degree == 2
    zero = ModuleElement(LAY3, {T((0, 0, 2)): 0, T((0, 0, 3)): 0})
    assert zero.is_zero() and zero.degree is None
    assert mul_term(zero, (1, 0, 0)).degree is None
