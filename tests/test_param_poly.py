"""ParamPoly (sparse monomials) against the dense reference in oracles.py."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from marked_bases.ring import MissingParameter, ParamPoly, _mono_mul, _mono_order_key
from marked_bases.textio import format_param_poly
from oracles import (
    dense_add,
    dense_evaluate,
    dense_format,
    dense_mul,
    dense_neg,
    dense_occurring,
    evaluate,
    dense_sorted_terms,
    dense_sub,
    dense_terms,
    param_poly,
    sparse_mono_mul,
    sparse_mono_order_key,
)

NPARAMS = 5
NAMES = [f"C_{{{i // 2},{i % 2}}}" for i in range(NPARAMS)]

exponents = st.tuples(*[st.integers(0, 2)] * NPARAMS)
coefficients = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
dense_polys = st.dictionaries(exponents, coefficients, max_size=5).map(
    lambda p: {e: c for e, c in p.items() if c}
)
points = st.lists(coefficients, min_size=NPARAMS, max_size=NPARAMS)


def pp(p) -> ParamPoly:
    return param_poly(NPARAMS, p)


def dense_of(monomial) -> tuple[int, ...]:
    e = [0] * NPARAMS
    for i, power in monomial:
        e[i] = power
    return tuple(e)


@settings(max_examples=100, deadline=None)
@given(dense_polys, dense_polys)
def test_arithmetic_matches_dense(p, q):
    assert dense_terms(pp(p)) == p
    assert dense_terms(pp(p) + pp(q)) == dense_add(p, q)
    assert dense_terms(pp(p) - pp(q)) == dense_sub(p, q)
    assert dense_terms(pp(p) * pp(q)) == dense_mul(p, q)
    assert dense_terms(-pp(p)) == dense_neg(p)


@settings(max_examples=100, deadline=None)
@given(dense_polys, dense_polys, coefficients)
def test_mixing_with_numbers_matches_dense(p, q, c):
    const = {(0,) * NPARAMS: c} if c else {}
    assert dense_terms(c * pp(p)) == dense_mul(const, p)
    assert dense_terms(pp(p) + c) == dense_add(p, const)
    assert dense_terms(c - pp(p)) == dense_sub(const, p)
    assert dense_terms(pp(p) - c) == dense_sub(p, const)


@settings(max_examples=100, deadline=None)
@given(dense_polys, dense_polys)
def test_equality_and_hash_follow_the_dense_value(p, q):
    a, b = pp(p) * pp(q) + pp(p), pp(q) * pp(p) + pp(p)
    assert a == b and hash(a) == hash(b)
    c = pp(dense_add(dense_mul(p, q), p))
    assert a == c and hash(a) == hash(c)
    assert (pp(p) == pp(q)) == (p == q)
    assert (pp(p) - pp(p)) == 0 and not (pp(p) - pp(p))


@settings(max_examples=100, deadline=None)
@given(dense_polys, points)
def test_evaluate_and_occurring_match_dense(p, point):
    assignment = dict(enumerate(point))
    assert evaluate(pp(p), assignment) == dense_evaluate(p, point)
    for i in range(NPARAMS):
        del assignment[i]
        try:
            evaluate(pp(p), assignment)
        except MissingParameter:
            assert i in dense_occurring(p)
        else:
            assert i not in dense_occurring(p)
        assignment[i] = point[i]


@settings(max_examples=100, deadline=None)
@given(dense_polys, dense_polys)
def test_print_order_and_text_match_dense(p, q):
    for dense in (p, dense_mul(p, q)):
        poly = pp(dense)
        assert [(dense_of(m), c) for m, c in poly.sorted_terms()] == dense_sorted_terms(dense)
        assert format_param_poly(poly, NAMES) == dense_format(dense, NAMES)


# Sparse monomials over a dozen parameters, one or two pairs most often, as
# in the family equations, whose generic tail coefficients are one pair each.
sparse_monomials = st.dictionaries(
    st.integers(0, 11), st.integers(1, 3), max_size=4
).map(lambda powers: tuple(sorted(powers.items())))


@settings(max_examples=300, deadline=None)
@given(sparse_monomials, sparse_monomials)
def test_monomial_product_matches_the_reference(a, b):
    assert _mono_mul(a, b) == sparse_mono_mul(a, b)
    assert _mono_mul(b, a) == sparse_mono_mul(a, b)


@settings(max_examples=100, deadline=None)
@given(st.lists(sparse_monomials, min_size=2, max_size=12, unique=True))
def test_monomial_order_matches_the_reference(monomials):
    assert sorted(monomials, key=_mono_order_key) == sorted(
        monomials, key=sparse_mono_order_key
    )
    for a in monomials:
        for b in monomials:
            assert (_mono_order_key(a) < _mono_order_key(b)) == (
                sparse_mono_order_key(a) < sparse_mono_order_key(b)
            )
