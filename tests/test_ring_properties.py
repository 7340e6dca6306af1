"""Arithmetic results keep the Poly invariant without re-checking it.

Sums, products, negation, scaling, lifts, truncations and homogeneous
parts are built without the validating constructor.  Each result must
still equal its re-validated copy, hold only nonzero canonical
coefficients (an int when integral, a Fraction with denominator > 1
otherwise, never a float) on exponent tuples of the table's width, and
own a dict of its own.  The test is skipped when hypothesis is absent.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from blocksplit.ring import Poly, VarTable, divide_exact, parse_poly, truncate

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

