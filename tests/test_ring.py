"""Exact polynomial arithmetic, parsing, and the local-ring helpers."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from blocksplit.oracle import jet_member_witness
from blocksplit.ring import (
    LINE,
    NonDivisibleError,
    ParseError,
    Poly,
    RingError,
    TableMismatchError,
    VarTable,
    _divisor,
    _reduce_terms,
    divide_exact,
    elimination,
    format_poly,
    grevlex,
    local_unit_test,
    parse_poly,
    restrict_to_line,
    sqrt_exact,
    truncate,
    y_profile,
)

XY = VarTable(("x", "y"))
X12 = VarTable(("x1", "x2"))


def P(text, table=XY):
    return parse_poly(text, table)


def random_poly(rng, table, degree=3, terms=4, allow_zero=True):
    nvars = len(table)
    out = Poly.zero(table)
    for _ in range(rng.randrange(0 if allow_zero else 1, terms + 1)):
        mono = [0] * nvars
        for _ in range(rng.randrange(degree + 1)):
            mono[rng.randrange(nvars)] += 1
        c = rng.randrange(-5, 6)
        out = out + Poly(table, {tuple(mono): Fraction(c)})
    return out


def test_parse_examples():
    assert P("(x2 - x1)*(x2^2 + x2*x1 + x1^2)", X12) == P("x2^3 - x1^3", X12)
    assert P("0").is_zero()
    assert P("3/2*y - x^2*y + x^2*y") == P("3/2*y")


def test_parse_grammar_corners():
    assert P("-x^2") == -P("x") * P("x")
    assert P("2*(x + y)^3") == P("x + y") ** 3 * P("2")
    assert P("1/2 - 1/2").is_zero()
    # ^ binds tighter than unary minus inside a term
    assert P("x - y^2") == P("x") - P("y") * P("y")


def test_parse_errors():
    with pytest.raises(ParseError):
        P("x +")
    with pytest.raises(ParseError):
        P("z + 1")  # undeclared variable
    with pytest.raises(ParseError):
        P("x ^ -2")
    err = None
    try:
        P("x + (y")
    except ParseError as exc:
        err = exc
    assert err is not None and err.position >= 0


# exact error text, recorded before the parser folded plain factors
PARSE_ERRORS = [
    ("x + * y", "unexpected '*' (at position 4)"),
    ("(x", "expected ')' (at position 2)"),
    ("3/0", "zero denominator (at position 3)"),
    ("w", "undeclared variable 'w' (at position 0)"),
    ("x^", "expected a number (at position 2)"),
    ("x y", "unexpected 'y' (at position 2)"),
    ("", "unexpected end of input (at position 0)"),
    ("--x", "unexpected '-' (at position 1)"),
    ("1/2/3", "unexpected '/' (at position 3)"),
    ("x-", "unexpected end of input (at position 2)"),
    ("3x", "unexpected 'x' (at position 1)"),
    ("x^-1", "expected a number (at position 2)"),
    ("(x))", "unexpected ')' (at position 3)"),
    ("x*(y", "expected ')' (at position 4)"),
    ("x + 1/0", "zero denominator (at position 7)"),
    ("@", "unexpected '@' (at position 0)"),
    ("x^2^", "expected a number (at position 4)"),
    ("  ", "unexpected end of input (at position 2)"),
    ("x*", "unexpected end of input (at position 2)"),
    ("1/", "expected a number (at position 2)"),
    ("y ^ (2)", "expected a number (at position 4)"),
    ("x2", "undeclared variable 'x2' (at position 0)"),
    ("(" * 101 + "x" + ")" * 101,
     "parentheses nested more than 100 deep (at position 100)"),
    # non-ASCII digits and letters are not part of the grammar
    ("x^²", "expected a number (at position 2)"),
    ("é", "unexpected 'é' (at position 0)"),
    ("x*é", "unexpected 'é' (at position 2)"),
]


@pytest.mark.parametrize("text,message", PARSE_ERRORS,
                         ids=[f"err{i}" for i in range(len(PARSE_ERRORS))])
def test_parse_error_text(text, message):
    with pytest.raises(ParseError) as info:
        P(text)
    assert str(info.value) == message


# canonical output, recorded before the parser folded plain factors;
# '^' is left-associative, so 2^3^2 is (2^3)^2
PARSE_CANONICAL = [
    ("2^3^2*x", "64*x"),
    ("x^2^3", "x^6"),
    ("-(x-y)^2 + 3/4*x*y^2", "3/4*x*y^2 - x^2 + 2*x*y - y^2"),
    ("x - x", "0"),
    ("(x+1)^0", "1"),
    ("0*x + 0", "0"),
    ("(" * 100 + "x" + ")" * 100, "x"),
    ("3/6*x", "1/2*x"),
    ("+x - 2*y^0", "x - 2"),
    ("(2*x)^3*y", "8*x^3*y"),
    ("0^0", "1"),
    ("0^2*x + 1", "1"),
    (" 1 / 2 * x ", "1/2*x"),
    ("(x-y)*(x+y) - x^2", "-y^2"),
]


@pytest.mark.parametrize("text,expected", PARSE_CANONICAL,
                         ids=[f"ok{i}" for i in range(len(PARSE_CANONICAL))])
def test_parse_canonical_text(text, expected):
    assert str(P(text)) == expected


def test_vartable_rules():
    with pytest.raises(RingError):
        VarTable(("x", "x"))
    with pytest.raises(RingError):
        VarTable(("2bad",))
    ext = XY.extend(["t"])
    assert ext.names == ("x", "y", "t")
    assert XY.names == ("x", "y")
    assert ext.fresh_names(["t"]) == ["t0"]


def test_fresh_names_are_fresh_jointly():
    table = VarTable(("x_1", "t", "t0"))
    assert table.fresh_names([]) == []
    assert table.fresh_names(["t", "s", "s", "s"]) == ["t1", "s", "s0", "s1"]
    # x_1 is taken, so its stem's name x_10 is the next stem's too
    stems = [f"x_{k}" for k in range(1, 11)]
    names = table.fresh_names(stems)
    assert names == ["x_10", *stems[1:9], "x_100"]
    assert table.extend(names).names == table.names + tuple(names)


def test_arith_examples():
    assert P("y - x") * P("y + x") == P("y^2 - x^2")
    f = P("3*x*y - 7")
    assert (f + (-f)).is_zero()
    assert P("x2 - x1^2", X12) * P("x2^2 + x2*x1^2 + x1^4", X12) == \
        P("x2^3 - x1^6", X12)


def test_table_mismatch():
    with pytest.raises(TableMismatchError):
        P("x") + P("x1", X12)


def test_ring_axioms_random():
    rng = random.Random(7)
    for _ in range(500):
        f = random_poly(rng, XY)
        g = random_poly(rng, XY)
        h = random_poly(rng, XY)
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f + g == g + f
        assert f * g == g * f


def test_divide_exact_examples():
    assert divide_exact(P("y^2 - x^2"), P("y - x")) == P("y + x")
    assert divide_exact(P("x2^3 - x1^3", X12), P("x2 - x1", X12)) == \
        P("x2^2 + x2*x1 + x1^2", X12)
    with pytest.raises(NonDivisibleError):
        divide_exact(P("x"), P("y"))
    with pytest.raises(RingError):
        divide_exact(P("x"), P("0"))


def test_divide_exact_random():
    rng = random.Random(11)
    for _ in range(200):
        f = random_poly(rng, XY)
        g = random_poly(rng, XY, allow_zero=False)
        if g.is_zero():
            continue
        assert divide_exact(f * g, g) == f


def test_local_unit_test():
    assert local_unit_test(P("1 + x"))
    assert not local_unit_test(P("x"))
    assert not local_unit_test(P("0"))


def test_truncate():
    assert truncate(P("1 + x + x^2"), 2) == P("1 + x")
    assert truncate(P("1 + x + x^2"), 0).is_zero()
    # x*y^3 has total degree 4, so it is dropped at bound 4
    assert truncate(P("y^2 + x*y^3"), 4) == P("y^2")


def test_truncate_compatible_with_product():
    rng = random.Random(13)
    for _ in range(100):
        f = random_poly(rng, XY)
        g = random_poly(rng, XY)
        for N in (1, 2, 4):
            assert truncate(f * g, N) == \
                truncate(truncate(f, N) * truncate(g, N), N)


def test_sqrt_exact_examples():
    assert sqrt_exact(P("x^2")) == P("x")
    f = P("x + y + x*y")
    assert sqrt_exact(f * f) == f
    assert sqrt_exact(P("x^2 + y^2")) is None
    # sign normalization: lowest term positive
    g = P("-x - y^2")
    assert sqrt_exact(g * g) == -g


def test_sqrt_exact_random():
    rng = random.Random(17)
    for _ in range(100):
        g = random_poly(rng, XY, degree=2, terms=3)
        root = sqrt_exact(g * g)
        if g.is_zero():
            assert root == g
        else:
            assert root == g or root == -g


def test_a_zero_direction_evaluates_at_the_point():
    """restrict_to_line(f, q, 0) is the constant f(q): term by term, and
    the value at t = 0 of the restriction to a line through q."""
    rng = random.Random(73)
    table = VarTable(("x", "y", "z"))
    zero = (0, 0, 0)
    for _ in range(60):
        f = random_poly(rng, table, degree=6, terms=6)
        if rng.randrange(3) == 0:
            f = f * Poly.const(table, Fraction(rng.randrange(1, 9), 7))
        q = tuple(rng.randrange(-4, 5) for _ in range(3))
        value = Fraction(0)
        for mono, coeff in f.terms.items():
            term = Fraction(coeff)
            for p, e in zip(q, mono):
                for _ in range(e):
                    term *= p
            value += term
        at = restrict_to_line(f, q, zero)
        assert at.table == LINE and at == Poly.const(LINE, value)
        direction = tuple(rng.randrange(-3, 4) for _ in range(3))
        line = restrict_to_line(f, q, direction)
        assert line.constant_term() == value
    assert restrict_to_line(P("(1 + x + y)^10"), (-1, -1), (0, 0)) \
        == Poly.const(LINE, 1)


def test_y_profile():
    t = VarTable(("x12", "x21", "y1", "y2"))
    f = parse_poly(
        "y1^2*y2^2 - y1*y2*x12*x21 + x12^2*x21^2", t)
    assert y_profile(f, ["y1", "y2"]) == {(2, 2)}
    assert y_profile(parse_poly("x12*y1", t), ["y1"]) == set()
    assert y_profile(parse_poly("y1 + y2", t), ["y1", "y2"]) == \
        {(1, 0), (0, 1)}


def test_format_round_trip():
    rng = random.Random(23)
    for _ in range(200):
        f = random_poly(rng, XY)
        assert parse_poly(format_poly(f), XY) == f


def test_format_is_canonical():
    f = P("y + x")
    g = P("x + y")
    assert format_poly(f) == format_poly(g)
    assert format_poly(P("0")) == "0"


def test_leading_trailing():
    f = P("x^2 + y^3")
    mono, coeff = f.leading(grevlex)
    assert mono == (0, 3) and coeff == 1
    mono, coeff = f.trailing(grevlex)
    assert mono == (2, 0) and coeff == 1
    assert f.order() == 2


def canonical(terms):
    """`terms`, after checking each coefficient is canonical: an int when
    integral, else a Fraction with denominator > 1."""
    for c in terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1)
    return terms


def test_coefficients_are_int_unless_fractional():
    f = P("6/3*x + 1/2*y - 3/2*y + 4")
    assert canonical(f.terms) == {(1, 0): 2, (0, 1): -1, (0, 0): 4}
    assert all(type(c) is int for c in f.terms.values())
    g = Poly(XY, {(1, 0): Fraction(4, 2), (0, 0): Fraction(1, 3),
                  (0, 1): True})
    assert canonical(g.terms) == {(1, 0): 2, (0, 0): Fraction(1, 3),
                                  (0, 1): 1}
    # an int and the equal Fraction hash, compare and print alike
    assert hash(P("2*x")) == hash(Poly(XY, {(1, 0): Fraction(2)}))
    assert str(P("x") * Fraction(4, 2)) == "2*x"
    # products and sums of Fractions that come out integral
    h = P("1/2*x + 1/3") * P("2*x + 3")
    assert canonical(h.terms) == {(2, 0): 1, (1, 0): Fraction(13, 6),
                                  (0, 0): 1}
    assert canonical((P("1/2*x") + P("1/2*x")).terms) == {(1, 0): 1}
    assert canonical((P("1/2*x") * 2).terms) == {(1, 0): 1}
    assert canonical(Poly.const(XY, Fraction(6, 3)).terms) == {(0, 0): 2}


def test_float_coefficient_is_refused():
    with pytest.raises(RingError, match="float coefficient"):
        Poly(XY, {(1, 0): 0.5})
    with pytest.raises(RingError, match="float coefficient"):
        Poly.const(XY, 1.0)


@pytest.mark.parametrize("make", [lambda x: x * 2.0, lambda x: 2.0 * x,
                                  lambda x: x + 0.5, lambda x: 0.5 - x],
                         ids=["x*2.0", "2.0*x", "x+0.5", "0.5-x"])
def test_float_operand_is_refused(make):
    with pytest.raises(RingError, match="float"):
        make(P("x"))


def test_divisions_stay_exact():
    assert canonical((P("2*x + 1") * Fraction(1, 2)).terms) == \
        {(1, 0): 1, (0, 0): Fraction(1, 2)}
    root = sqrt_exact(P("x^2 + x + 1/4"))
    assert root == P("x + 1/2")
    canonical(root.terms)
    ok, cofactors = jet_member_witness(P("x + y"), (P("2*x + 2*y"),), 3)
    assert ok and cofactors == (P("1/2"),)
    canonical(cofactors[0].terms)


@pytest.mark.parametrize("f,g,q,r", [
    ("x^2*y + 3*x + 1", "2*x*y + 1", "1/2*x", "5/2*x + 1"),
    # a tail entry that is updated, and one that is new, come out integral
    ("x^2*y + 3/2*x", "2*x*y + 1", "1/2*x", "x"),
    ("x^2*y", "2*x*y + 2", "1/2*x", "-x"),
])
def test_reduce_terms_with_leading_coefficient_two(f, g, q, r):
    f, g = P(f), P(g)
    remainder, quotients = _reduce_terms(dict(f.terms), (_divisor(g),),
                                         grevlex)
    assert canonical(quotients[0]) == P(q).terms
    assert canonical(remainder) == P(r).terms
    assert P(q) * g + P(r) == f


def split_reference(block, mono):
    inside = set(block)
    return (tuple(mono[i] for i in block),
            tuple(e for i, e in enumerate(mono) if i not in inside))


@pytest.mark.parametrize("block", [(6, 1), (6, 2), (6, 3), (6, 5), (6, 6),
                                   (1, 1), (3, 2), (5, 4)])
def test_block_order_keys_match_generic_split(block):
    """Elimination of the trailing k of `width` variables keys a monomial
    by grevlex on those k, then by grevlex on the rest."""
    width, k = block
    rng = random.Random(width * 7 + k)
    order = elimination(k)
    for _ in range(200):
        mono = tuple(rng.randrange(4) for _ in range(width))
        head, tail = split_reference(range(width - k, width), mono)
        assert order(mono) == (grevlex(head), grevlex(tail))
