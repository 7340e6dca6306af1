"""Arithmetic results keep the Poly invariant without re-checking it.

Sums, products, negation, scaling, lifts, truncations and homogeneous
parts are built without the validating constructor.  Each result must
still equal its re-validated copy, hold only nonzero canonical
coefficients (an int when integral, a Fraction with denominator > 1
otherwise, never a float) on exponent tuples of the table's width, and
own a dict of its own.

The multiply-accumulate kernel `sum_of_products`, which `*`, `minor`
and the certificate re-checks run, is held to a product written out
below the way `Poly.__mul__` once formed it (a generator of term
products added into a dict one at a time), on both of its paths: the
packed one, taken when exponents are below `PACK_LIMIT` and the call
forms enough term products, and the tuple one, taken otherwise.

The division loop `_reduce_terms` (and `divide_exact` on top of it) is
held to a plain rational division written out below: the same
remainder, and the same quotient for each divisor, down to the order in
which the divisors are first used.  `divide_exact` must refuse exactly
the inputs that leave a remainder.

The tests are skipped when hypothesis is absent.
"""

from __future__ import annotations

import contextlib
import operator
from fractions import Fraction

import pytest

from blocksplit import ring
from blocksplit.ring import (
    NonDivisibleError,
    Poly,
    VarTable,
    _divisor,
    _mono_div,
    _mono_divides,
    _reduce_terms,
    divide_exact,
    elimination,
    grevlex,
    parse_poly,
    sum_of_products,
    truncate,
)

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

XYZ = VarTable(("x", "y", "z"))
WIDER = XYZ.extend(("t",))

coefficients = st.fractions(min_value=-20, max_value=20, max_denominator=6)
monomials = st.tuples(*(st.integers(0, 3) for _ in range(len(XYZ))))
polys = st.dictionaries(monomials, coefficients, max_size=6).map(
    lambda terms: Poly(XYZ, terms))
scalars = st.one_of(
    st.integers(-9, 9).filter(bool),
    st.fractions(min_value=-9, max_value=9, max_denominator=5).filter(bool))


def assert_invariant(r: Poly, *operands: Poly) -> None:
    assert r == Poly(r.table, r.terms)
    width = len(r.table)
    for mono, c in r.terms.items():
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1)
        assert c != 0
        assert type(mono) is tuple and len(mono) == width
    for p in operands:
        assert r.terms is not p.terms


@settings(max_examples=150, deadline=None)
@given(polys, polys, scalars, st.integers(0, 8))
def test_arithmetic_results_hold_the_invariant(a, b, k, degree):
    for r in (a + b, a - b, a - a, a * b, -a, a * k, k * a, a + k, a - k,
              a.lift(WIDER), truncate(a, degree),
              a.homogeneous_part(degree)):
        assert_invariant(r, a, b)
    if not b.is_zero():
        assert_invariant(divide_exact(a * b, b), a, b)
        assert_invariant(b * (Fraction(1) / b.leading()[1]), a, b)
    assert_invariant(parse_poly(str(a), XYZ), a, b)


# -- the division loop against a plain rational division ------------------

def reference_division(f: Poly, divisors: list[Poly], order):
    """f = sum(q_i * divisors[i]) + r by the textbook loop on Fractions:
    the leading term of what is left goes to the first divisor whose
    leading monomial divides it, or else to the remainder."""
    table = f.table
    rest, remainder, quotients = f, Poly.zero(table), {}
    while not rest.is_zero():
        lm, lc = rest.leading(order)
        for i, g in enumerate(divisors):
            glm, glc = g.leading(order)
            if _mono_divides(glm, lm):
                t = Poly(table, {_mono_div(lm, glm): Fraction(lc) / glc})
                rest = rest - t * g
                quotients[i] = quotients.get(i, Poly.zero(table)) + t
                break
        else:
            head = Poly(table, {lm: lc})
            remainder, rest = remainder + head, rest - head
    return remainder, quotients


integers = st.integers(-30, 30).filter(bool)
dividends = st.one_of(
    st.dictionaries(monomials, integers, max_size=8),
    st.dictionaries(monomials, coefficients, max_size=8),
).map(lambda terms: Poly(XYZ, terms))
# linear divisors with large coefficients divide many terms, and each
# step can grow the loop's integer scale, past CONTENT_BITS in a few steps
linear = st.sampled_from([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
divisor_polys = st.one_of(
    st.dictionaries(monomials, integers, min_size=1, max_size=4),
    st.dictionaries(monomials, coefficients, min_size=1, max_size=4),
    st.dictionaries(linear, st.integers(-10**7, 10**7).filter(bool),
                    min_size=1, max_size=4),
).map(lambda terms: Poly(XYZ, terms)).filter(lambda g: not g.is_zero())


@contextlib.contextmanager
def content_bits(bits):
    saved, ring.CONTENT_BITS = ring.CONTENT_BITS, bits
    try:
        yield
    finally:
        ring.CONTENT_BITS = saved


# at 0 bits every step that grows the scale divides the content out
@pytest.mark.parametrize("bits", [ring.CONTENT_BITS, 0])
@settings(max_examples=200, deadline=None)
@given(dividends, st.lists(divisor_polys, min_size=1, max_size=3),
       st.sampled_from([grevlex, elimination(1)]))
def test_reduce_terms_matches_rational_division(bits, f, divisors, order):
    expected, expected_q = reference_division(f, divisors, order)
    shapes = [_divisor(g, order) for g in divisors]
    with content_bits(bits):
        remainder, quotients = _reduce_terms(dict(f.terms), shapes, order)
    assert_invariant(Poly._trusted(XYZ, remainder))
    assert remainder == expected.terms
    assert list(quotients) == list(expected_q)
    for i, q in quotients.items():
        assert_invariant(Poly._trusted(XYZ, q))
        assert q == expected_q[i].terms


@settings(max_examples=150, deadline=None)
@given(dividends, divisor_polys, dividends)
def test_divide_exact_matches_rational_division(a, g, extra):
    assert divide_exact(a * g, g) == a
    f = a * g + extra
    expected, expected_q = reference_division(f, [g], grevlex)
    if expected.is_zero():
        quotient = expected_q.get(0, Poly.zero(XYZ))
        assert divide_exact(f, g).terms == quotient.terms
    else:
        with pytest.raises(NonDivisibleError):
            divide_exact(f, g)


# -- the multiply-accumulate kernel against a plain product ---------------

def reference_sum_of_products(table: VarTable, products) -> dict:
    """sum(sign * a * b), each product a generator of term products added
    into one dict, a monomial dropped as soon as it cancels."""
    out: dict = {}
    add = operator.add
    for a, b, sign in products:
        for m1, c1 in a.terms.items():
            for mono, coeff in ((tuple(map(add, m1, m2)), sign * c1 * c2)
                                for m2, c2 in b.terms.items()):
                c = out.get(mono, 0) + coeff
                if c:
                    out[mono] = c.numerator if c.denominator == 1 else c
                else:
                    out.pop(mono, None)
    return out


@contextlib.contextmanager
def pack_work(work):
    saved, ring.PACK_WORK = ring.PACK_WORK, work
    try:
        yield
    finally:
        ring.PACK_WORK = saved


NONE = VarTable(())
# 127 is the largest exponent that packs; 128 and 300 send the call to the
# tuple loop, the latter past what one byte holds
exponents = st.sampled_from([0, 1, 2, 3, 127, 128, 300])
wide_polys = st.dictionaries(
    st.tuples(*(exponents for _ in range(len(XYZ)))), coefficients,
    max_size=8).map(lambda terms: Poly(XYZ, terms))
constant_polys = st.dictionaries(st.just(()), coefficients, max_size=1).map(
    lambda terms: Poly(NONE, terms))
signs = st.sampled_from([1, -1])


def product_lists(polys):
    """Lists of (a, b, sign); when the drawn flag is set, the first
    product comes again with the opposite sign, so that every one of its
    terms cancels."""
    return st.tuples(st.lists(st.tuples(polys, polys, signs), min_size=1,
                              max_size=3), st.booleans()).map(
        lambda pair: pair[0] + [(*pair[0][0][:2], -pair[0][0][2])]
        if pair[1] else pair[0])


def test_packing_stops_at_exponent_128():
    assert Poly(XYZ, {(127, 0, 127): 1})._pack() == [(127 + (127 << 16), 1)]
    assert Poly(XYZ, {(0, 128, 0): 1, (1, 0, 0): 2})._pack() is None
    assert Poly(NONE, {(): 5})._pack() == [(0, 5)]


# 0 packs every call whose exponents allow it; the default packs only
# calls whose term products times the table's width reach PACK_WORK
@pytest.mark.parametrize("work", [ring.PACK_WORK, 0])
@settings(max_examples=150, deadline=None)
@given(st.one_of(product_lists(wide_polys), product_lists(polys),
                 product_lists(constant_polys)))
def test_sum_of_products_matches_the_plain_product(work, products):
    table = products[0][0].table
    expected = reference_sum_of_products(table, products)
    with pack_work(work):
        result = sum_of_products(table, products)
        a, b, _ = products[0]
        product = a * b
    assert result.terms == expected
    assert_invariant(result, *(p for a, b, _ in products for p in (a, b)))
    assert product.terms == reference_sum_of_products(table, [(a, b, 1)])
    assert_invariant(product, a, b)
