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

The division loop `_reduce_terms` (and `divide` and `divide_exact` on
top of it) is held to a plain rational division written out below: the
same remainder, and the same quotient for each divisor, down to the
order in which the divisors are first used.  `divide_exact` must refuse exactly
the inputs that leave a remainder.

The tests are skipped when hypothesis is absent.
"""

from __future__ import annotations

import contextlib
import operator
from fractions import Fraction

import pytest

from blocksplit import ring
from blocksplit.groebner import Ideal, normal_form
from blocksplit.ring import (
    NonDivisibleError,
    Poly,
    VarTable,
    _divisor,
    _mono_div,
    _mono_divides,
    _reduce_terms,
    divide,
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
              a.lift(WIDER), truncate(a, degree)):
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

# Twelve variables pack under grevlex (`PACK_DIVISION_WIDTH`); three and
# none do not, nor does an elimination order at any width.
TWELVE = VarTable(f"x{i}" for i in range(1, 13))
NONE = VarTable(())
sparse = st.tuples(*(st.sampled_from([0, 0, 0, 1, 2]) for _ in TWELVE.names))
wide_linear = st.sampled_from(
    [(0,) * 12] + [tuple(int(i == j) for j in range(12)) for i in range(12)])


def wide(monos, coeffs, min_size=0, max_size=8):
    return st.dictionaries(monos, coeffs, min_size=min_size,
                           max_size=max_size).map(
        lambda terms: Poly(TWELVE, terms))


def of_degree(mono: tuple, degree: int, slot: int) -> tuple:
    """`mono` with the exponent at `slot` raised until its total degree
    is `degree` (or left as it is, if it is already past)."""
    mono = list(mono)
    mono[slot] += max(degree - sum(mono), 0)
    return tuple(mono)


# total degrees 126 and 127 pack, 128 and 300 send the call to the tuple
# loop; a term one or two below each is drawn as well
high = st.builds(of_degree, sparse,
                 st.sampled_from([126, 127, 128, 300]).flatmap(
                     lambda top: st.sampled_from([top, top - 1, top - 2])),
                 st.integers(0, 11))


def binomial(lead: tuple, coeff, low, slot: int) -> Poly:
    """coeff * x^lead plus low times a monomial of smaller degree: the
    variable at `slot` when lead has degree 2 or more, else 1.  Each step
    by it turns one term into one term of smaller degree, so dividing a
    degree-300 term takes at most 300 steps."""
    tail = (0,) * 12
    if sum(lead) > 1:
        tail = tuple(int(i == slot) for i in range(12))
    return Poly(TWELVE, {lead: coeff, tail: low})


leads = sparse.filter(any)
binomials = st.builds(binomial, leads, coefficients.filter(bool),
                      coefficients.filter(bool), st.integers(0, 11))
# a leading monomial of degree 128 or more, which divides no small term
big_divisors = st.builds(binomial, high.filter(lambda m: sum(m) >= 128),
                         integers, integers, st.integers(0, 11))
orders = st.sampled_from([grevlex, elimination(1)])

division_cases = st.one_of(
    # three variables: the tuple loop
    st.tuples(dividends, st.lists(divisor_polys, min_size=1, max_size=3),
              orders),
    # twelve variables: packed under grevlex, by tuples under elimination
    st.tuples(
        st.one_of(wide(sparse, integers), wide(sparse, coefficients)),
        st.lists(st.one_of(
            wide(sparse, integers, min_size=1, max_size=4),
            wide(wide_linear, st.integers(-10**7, 10**7).filter(bool),
                 min_size=1, max_size=4)).filter(lambda g: not g.is_zero()),
            min_size=1, max_size=3),
        orders),
    # degrees around 128, divided by binomials with a smaller tail
    st.tuples(wide(st.one_of(high, sparse), coefficients, max_size=4),
              st.lists(binomials, min_size=1, max_size=2),
              st.just(grevlex)),
    # a small dividend beside a divisor of degree 128 or more
    st.tuples(wide(sparse, coefficients),
              st.tuples(big_divisors,
                        st.lists(binomials, min_size=1, max_size=2)).map(
                  lambda pair: [pair[0], *pair[1]]).flatmap(st.permutations),
              st.just(grevlex)),
    # no variables: constants divided by constants
    st.tuples(st.dictionaries(st.just(()), coefficients, max_size=1).map(
                  lambda terms: Poly(NONE, terms)),
              st.lists(st.sampled_from([2, -3, Fraction(5, 7)]).map(
                  lambda c: Poly.const(NONE, c)), min_size=1, max_size=2),
              orders),
)


@contextlib.contextmanager
def content_bits(bits):
    saved, ring.CONTENT_BITS = ring.CONTENT_BITS, bits
    try:
        yield
    finally:
        ring.CONTENT_BITS = saved


# at 0 bits every step that grows the scale divides the content out
@pytest.mark.parametrize("bits", [ring.CONTENT_BITS, 0])
@settings(max_examples=300, deadline=None)
@given(division_cases)
def test_reduce_terms_matches_rational_division(bits, case):
    f, divisors, order = case
    expected, expected_q = reference_division(f, divisors, order)
    shapes = [_divisor(g, order) for g in divisors]
    with content_bits(bits):
        remainder, quotients = _reduce_terms(dict(f.terms), shapes, order)
    assert_invariant(Poly._trusted(f.table, remainder))
    assert remainder == expected.terms
    assert list(remainder) == list(expected.terms)
    assert list(quotients) == list(expected_q)
    for i, q in quotients.items():
        assert_invariant(Poly._trusted(f.table, q))
        assert q == expected_q[i].terms
        assert list(q) == list(expected_q[i].terms)


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


@settings(max_examples=150, deadline=None)
@given(division_cases)
def test_divide_matches_rational_division_for_each_dividend(case):
    """One divisor shape serves several dividends, zero among them, over
    the tuple and the packed loop alike."""
    f, divisors, _ = case
    g = divisors[0]
    fs = [f, f + g, Poly.zero(f.table)]
    results = divide(fs, g)
    assert len(results) == len(fs)
    for f, (q, r) in zip(fs, results):
        expected, expected_q = reference_division(f, [g], grevlex)
        assert r.terms == expected.terms
        assert q.terms == expected_q.get(0, Poly.zero(f.table)).terms
        assert_invariant(q, f, g)
        assert_invariant(r, f, g)
    with pytest.raises(NonDivisibleError):
        divide(fs, Poly.zero(f.table))


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


def loop_taken(f: Poly, divisors: list[Poly]) -> str:
    """Which loop `_reduce_terms` runs to divide f by `divisors` under
    grevlex, "packed" or "tuple".  Its results are the same either way,
    so each divisor's shape is handed over with the packed form of g + 1
    in place of g's own: the packed loop then divides by the g + 1 and
    the tuple loop by the g.  f must leave the two divisions apart."""
    shapes = [_divisor(g) for g in divisors]
    decoys = [_divisor(g + 1) for g in divisors]
    by_g = _reduce_terms(dict(f.terms), shapes, grevlex)
    by_decoys = _reduce_terms(dict(f.terms), decoys, grevlex)
    assert by_g != by_decoys
    mixed = _reduce_terms(dict(f.terms), [
        shape[:4] + decoy[4:] for shape, decoy in zip(shapes, decoys)],
        grevlex)
    return {True: "packed", False: "tuple"}[mixed == by_decoys]


@pytest.mark.parametrize("f,divisors,loop", [
    # the dividend's degree: 127 packs, 128 does not
    ("x1^126*x3 + 3*x4", ["2*x1 + x2"], "packed"),
    ("x1^127*x3 + 3*x4", ["2*x1 + x2"], "tuple"),
    # a divisor's leading degree: 127 packs, 128 does not, even where
    # that divisor divides no term
    ("x1^127 + x3", ["x1^127 + x2"], "packed"),
    ("x1^3 + x3", ["x1^128 + x2", "2*x1 + x2"], "tuple"),
    ("x1^3 + x3", ["x1^127 + x2", "2*x1 + x2"], "packed"),
])
def test_division_packs_below_degree_128(f, divisors, loop):
    f = parse_poly(f, TWELVE)
    divisors = [parse_poly(g, TWELVE) for g in divisors]
    assert loop_taken(f, divisors) == loop
    expected, expected_q = reference_division(f, divisors, grevlex)
    remainder, quotients = _reduce_terms(
        dict(f.terms), [_divisor(g) for g in divisors], grevlex)
    assert remainder == expected.terms
    assert quotients == {i: q.terms for i, q in expected_q.items()}


def test_narrow_tables_and_elimination_do_not_pack():
    assert loop_taken(parse_poly("x^2*y + z", XYZ),
                      [parse_poly("2*x + y", XYZ)]) == "tuple"
    g = parse_poly("2*x1 + x2", TWELVE)
    assert _divisor(g)[4] is not None
    assert _divisor(g, elimination(1))[4] is None
    assert _divisor(parse_poly("2*x + y", XYZ))[4] is None


@pytest.mark.parametrize("table", [XYZ, TWELVE])
def test_packed_keys_never_leave_the_division_loop(table):
    """On the packed path (twelve variables) and the tuple path (three)
    alike, the division loop, `normal_form` and `divide_exact` key what
    they return by exponent tuples of the table's width."""
    a, b, c = (Poly.var(table, name) for name in table.names[:3])
    f = a**3 * b - 2 * b * c**2 + Fraction(1, 3) * a + 5
    gens = [2 * a * b - c, b**2 + 3 * a]
    assert (_divisor(gens[0])[4] is not None) == (table is TWELVE)
    remainder, quotients = _reduce_terms(
        dict(f.terms), [_divisor(g) for g in gens], grevlex)
    assert remainder and quotients
    normal, cofactors = normal_form(f, Ideal(table, gens))
    assert sum_of_products(table, [(q, g, 1) for q, g in zip(
        cofactors, gens)]) + normal == f
    exact = divide_exact(f * gens[0], gens[0])
    assert exact == f
    for terms in (remainder, *quotients.values(), normal.terms,
                  *(q.terms for q in cofactors), exact.terms):
        for mono in terms:
            assert type(mono) is tuple and len(mono) == len(table)
            assert all(type(e) is int and e >= 0 for e in mono)


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
