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
from conftest import E, LAY3, T

LAY1 = FreeModuleLayout(0)
LAY2 = FreeModuleLayout(1)


class TestCanonicalize:
    def test_zero_coefficient_removed(self):
        e = ModuleElement(LAY3, {T((0, 1, 0)): Fraction(0), T((1, 0, 0)): Fraction(1)})
        assert e.support() == {T((1, 0, 0))}

    def test_cancellation_gives_zero(self):
        e = E(LAY3, {T((0, 1, 0)): 1}) - E(LAY3, {T((0, 1, 0)): 1})
        assert e.is_zero()
        assert e.degree is None

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
        e = E(LAY3, {T((0, 1, 0)): 1}).mul_term((1, 0, 0))
        assert e == E(LAY3, {T((1, 1, 0)): 1})

    def test_identity(self):
        e = E(LAY3, {T((1, 1, 0)): 2, T((0, 0, 2)): -1})
        assert e.mul_term((0, 0, 0)) == e

    def test_twisted_product(self):
        # x2 * (x1x0 + x2^2) = x2x1x0 + x2^3
        e = E(LAY3, {T((1, 1, 0)): 1, T((0, 0, 2)): 1}).mul_term((0, 0, 1))
        assert e == E(LAY3, {T((1, 1, 1)): 1, T((0, 0, 3)): 1})
        assert e.degree == 3

    @given(
        st.tuples(*[st.integers(0, 3)] * 3),
        st.tuples(*[st.integers(0, 3)] * 3),
    )
    def test_composition(self, s, t):
        e = E(LAY3, {T((1, 1, 0)): 1, T((0, 0, 2)): -2})
        assert e.mul_term(t).mul_term(s) == e.mul_term(tuple(a + b for a, b in zip(s, t)))


def test_rational_arithmetic_exact():
    rng = random.Random(1)
    for _ in range(1000):
        a, c = rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)
        b, d = rng.randint(1, 10**6), rng.randint(1, 10**6)
        assert Fraction(a, b) + Fraction(c, d) == Fraction(a * d + c * b, b * d)


class TestParamPoly:
    def test_evaluate_difference_of_square(self):
        a = ParamPoly.variable(2, 0)
        b = ParamPoly.variable(2, 1)
        p = a - b * b
        assert p.evaluate({0: Fraction(4), 1: Fraction(2)}) == 0

    def test_evaluate_constant(self):
        assert ParamPoly.const(0, 7).evaluate({}) == 7

    def test_missing_parameter(self):
        a = ParamPoly.variable(2, 0)
        b = ParamPoly.variable(2, 1)
        with pytest.raises(MissingParameter):
            (a - b * b).evaluate({0: Fraction(1)})

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
            p, q = ParamPoly(3, terms_p), ParamPoly(3, terms_q)
            point = {i: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for i in range(3)}
            assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
            assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)

    def test_mixing_with_fractions(self):
        a = ParamPoly.variable(1, 0)
        assert Fraction(2) * a == a + a
        assert a - a == ParamPoly.const(1, 0)
        assert not (a - a)
        assert ParamPoly.const(1, 1) == 1

    def test_no_zero_terms_stored(self):
        p = ParamPoly(1, {(1,): Fraction(0), (0,): Fraction(2)})
        assert list(p.terms) == [(0,)]


def test_zero_element_compatible_with_every_degree():
    zero = ModuleElement.zero(LAY3)
    assert (zero + E(LAY3, {T((0, 0, 2)): 1})).degree == 2
    assert (zero + E(LAY3, {T((0, 0, 3)): 1})).degree == 3
