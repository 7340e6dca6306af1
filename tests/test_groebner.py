"""Groebner engine: bases, witnesses, intersection, colon, local tests."""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

import blocksplit.groebner
from blocksplit.certificate import NonInclusion
from blocksplit.groebner import (
    Ideal,
    _Gen,
    _buchberger,
    _reduce,
    colon,
    contains_local_unit,
    groebner_basis,
    ideal_product,
    ideal_sum,
    intersect,
    member_global,
    member_local,
    normal_form,
)
from blocksplit.oracle import JetEchelon
from blocksplit.ring import (
    InvariantError,
    NonDivisibleError,
    Poly,
    RingError,
    VarTable,
    _mono_div,
    _mono_divides,
    _mono_lcm,
    _reduce_terms,
    divide_exact,
    elimination,
    grevlex,
    parse_poly,
)

from support import subset_local

XY = VarTable(("x", "y"))
X12 = VarTable(("x1", "x2"))
XYZ = VarTable(("x", "y", "z"))


def P(text, table=XY):
    return parse_poly(text, table)


def ideal(*texts, table=XY):
    return Ideal(table, tuple(parse_poly(t, table) for t in texts))


def random_poly(rng, table, degree=3, terms=3, allow_zero=True):
    nvars = len(table)
    out = Poly.zero(table)
    for _ in range(rng.randrange(0 if allow_zero else 1, terms + 1)):
        mono = [0] * nvars
        for _ in range(rng.randrange(degree + 1)):
            mono[rng.randrange(nvars)] += 1
        out = out + Poly(table, {tuple(mono): Fraction(rng.randrange(-4, 5))})
    return out


def random_ideal(rng, table):
    gens = [random_poly(rng, table, allow_zero=False) for _ in range(rng.randrange(1, 4))]
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        gens = [Poly.var(table, table.names[0])]
    return Ideal(table, tuple(gens))


def same_ideal(I, J):
    return (all(member_global(g, J)[0] for g in I.generators)
            and all(member_global(g, I)[0] for g in J.generators))


def test_basis_examples():
    assert set(map(str, groebner_basis(ideal("x", "y")))) == {"x", "y"}
    basis = groebner_basis(ideal("x^2 + y", "x*y"))
    assert set(map(str, basis)) == {"x^2 + y", "x*y", "y^2"}
    f = P("2*x^2 - 4*y")
    basis = groebner_basis(Ideal(XY, (f,)))
    assert len(basis) == 1 and basis[0] == f * (Fraction(1) / f.leading()[1])


def test_basis_buchberger_criterion():
    """Every S-polynomial of the returned basis reduces to zero by it."""
    rng = random.Random(31)
    for _ in range(25):
        I = random_ideal(rng, XY)
        basis = groebner_basis(I)
        if len(basis) == 1 and basis[0].is_zero():
            continue
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                g1, g2 = basis[i], basis[j]
                m1, c1 = g1.leading(grevlex)
                m2, c2 = g2.leading(grevlex)
                lcm = _mono_lcm(m1, m2)
                s = (Poly(XY, {_mono_div(lcm, m1): Fraction(1) / c1}) * g1
                     - Poly(XY, {_mono_div(lcm, m2): Fraction(1) / c2}) * g2)
                remainder, _ = normal_form(s, I)
                assert remainder.is_zero()


def test_basis_cached_generates_same_ideal():
    I = ideal("x^2 + y", "x*y")
    basis = groebner_basis(I)
    J = Ideal(XY, tuple(basis))
    assert same_ideal(I, J)


def test_normal_form_examples():
    r, cofactors = normal_form(P("x^2*y"), ideal("x^2 + y"))
    assert r == P("-y^2")
    # re-expansion: f = sum(cofactor*gen) + remainder
    assert P("x^2*y") == cofactors[0] * P("x^2 + y") + r
    f = P("x^3 - 2*x*y + 1")
    r, _ = normal_form(f, Ideal(XY, (f,)))
    assert r.is_zero()
    r, _ = normal_form(P("1"), ideal("x", "y"))
    assert r == P("1")


def test_member_global_examples():
    ok, w = member_global(P("x2^3 - x1^3", X12), ideal("x2 - x1", table=X12))
    assert ok and w.verify()
    ok, w = member_global(P("x*y"), ideal("x^2", "y^2"))
    assert not ok and w is None
    f = P("x^2 - y + 3")
    ok, w = member_global(f, Ideal(XY, (f,)))
    assert ok and w.verify()


def test_intersect_examples():
    assert same_ideal(intersect(ideal("x"), ideal("y")), ideal("x*y"))
    assert same_ideal(intersect(ideal("x"), ideal("x")), ideal("x"))
    meet = intersect(ideal("x2 - x1", table=X12),
                     ideal("x2^2 + x2*x1 + x1^2", table=X12))
    assert same_ideal(meet, ideal("x2^3 - x1^3", table=X12))


def test_intersect_properties():
    rng = random.Random(37)
    for _ in range(15):
        I = random_ideal(rng, XY)
        J = random_ideal(rng, XY)
        meet_ij = intersect(I, J)
        meet_ji = intersect(J, I)
        assert same_ideal(meet_ij, meet_ji)
        for g in ideal_product(I, J).generators:
            assert member_global(g, meet_ij)[0]


def test_colon_examples():
    assert same_ideal(colon(ideal("x*y"), P("x")), ideal("y"))
    assert same_ideal(colon(ideal("x^2"), P("x")), ideal("x"))
    assert same_ideal(colon(ideal("x*y", "x^2"), P("x")), ideal("x", "y"))
    with pytest.raises(RingError):
        colon(ideal("x"), P("0"))


def test_member_local_examples():
    f = P("x^2")
    I = ideal("x^2 + x^3")
    ok, w = member_local(f, I)
    assert ok
    assert w.verify()
    assert not member_global(f, I)[0]

    # a no found by a jet order carries its certificate
    ok, w = member_local(P("x"), ideal("x^2", "x*y"))
    assert not ok and isinstance(w, NonInclusion)
    assert w.order == 2 and w.failures() == []


def test_member_local_unit_witness():
    # x^2*(1+x) = (x^2+x^3): the witness unit must be a local unit
    ok, w = member_local(P("x^2"), ideal("x^2 + x^3"))
    assert ok
    assert w.unit.constant_term() != 0
    assert w.unit * P("x^2") == w.cofactors[0] * P("x^2 + x^3")


def test_member_local_refuses_a_unit_when_the_ideal_lies_in_m():
    """A unit f is outside I R_m when every generator of I vanishes at
    the origin; the answer comes before any Groebner basis.  Through the
    colon route this instance ran past 30 s."""
    t = VarTable(("x1", "x2", "x3"))
    I = Ideal(t, [parse_poly(g, t) for g in (
        "2*x2^3*x3^2 + 2*x1*x2", "-x1^3*x2^3 - 4*x1^3*x2*x3",
        "-5*x1^3*x2^2 + 5*x1*x3^3")])
    f = parse_poly("-2*x1^2*x2*x3 - 5*x2^3 - 2", t)
    start = time.perf_counter()
    assert member_local(f, I) == (False, None)
    assert time.perf_counter() - start < 1.0
    assert I._basis is None
    # a generator that is a unit makes I the whole local ring
    ok, w = member_local(P("1 + x"), ideal("x^2", "y - 1"))
    assert ok and w.verify()


def refuse_colon(monkeypatch):
    """Make any call of groebner.colon fail the test."""
    def colon_ran(*args):
        raise AssertionError("the colon ran")
    monkeypatch.setattr(blocksplit.groebner, "colon", colon_ran)


def test_member_local_separates_the_capped_case_by_jets(monkeypatch):
    """Through the colon this case took 16 s; f lies outside I + m^2."""
    refuse_colon(monkeypatch)
    t = VarTable(("x1", "x2", "x3"))
    I = Ideal(t, [parse_poly(g, t) for g in (
        "2*x1^3 - 4*x3^2", "-2*x1^2*x3 - 2*x1*x2^2",
        "-x1*x3^4 - 5*x1*x2*x3")])
    f = parse_poly("-x1*x2^3*x3^2 + 5*x1*x2^3 + 2*x1", t)
    start = time.perf_counter()
    ok, w = member_local(f, I)
    assert time.perf_counter() - start < 1.0
    assert not ok and isinstance(w, NonInclusion)
    assert (w.element, w.ideal_gens, w.order) == (f, I.generators, 2)
    assert w.failures() == []


def test_member_local_unit_ideal_shortcut(monkeypatch):
    """(x^2, y - 1) is the whole local ring but not the whole polynomial
    ring; its unit generator certifies every element."""
    refuse_colon(monkeypatch)
    I = ideal("x^2", "y - 1")
    for f in (P("1 + x"), P("x"), P("x*y + y^3")):
        assert not member_global(f, I)[0]
        ok, w = member_local(f, I)
        assert ok and w.failures() == []
        assert w.unit == P("y - 1") and w.cofactors == (P("0"), f)


def test_non_inclusion_tampering_fails():
    """y^2 is outside (x - y^2) + m^3 but not outside (x - y^2) + m^2; its
    functional is 1 at y^2 and at x, which makes it vanish on x - y^2."""
    I = ideal("x - y^2")
    ok, w = member_local(P("y^2"), I)
    assert not ok and w.order == 3 and w.functional == P("x + y^2")
    assert w.failures() == []
    changed = NonInclusion(w.element, w.ideal_gens, w.order,
                           w.functional + P("x"))
    lowered = NonInclusion(w.element, w.ideal_gens, 2, w.functional)
    member = NonInclusion(P("x*y - y^3"), w.ideal_gens, w.order, w.functional)
    assert changed.failures() == [
        "non-inclusion: the functional does not vanish on a monomial "
        "multiple of generator 0 modulo m^3"]
    assert lowered.failures() == [
        "non-inclusion: the functional is not one on R/m^2: it weighs a "
        "monomial of degree >= 2"]
    assert member.failures() == [
        "non-inclusion: the functional vanishes on the element"]


def test_member_local_rechecks_a_jet_functional(monkeypatch):
    monkeypatch.setattr(JetEchelon, "separator", lambda self, f: P("x"))
    with pytest.raises(InvariantError, match="jet separation"):
        member_local(P("y^2"), ideal("x - y^2"))


def test_subset_local_examples():
    t = VarTable(("x", "y", "x1", "x2"))
    # entries of x*A + y*1 for A = [[x2, x1], [x1, x2]]: the inclusion
    # behind the conjugation check, tr = 2*x2 and sqrt(D) = 2*x1
    I = Ideal(t, (parse_poly("x*x1", t), parse_poly("x*x1", t),
                  parse_poly("2*y + 2*x*x2", t),
                  parse_poly("0", t)))
    J = Ideal(t, (parse_poly("2*y + 2*x*x2", t), parse_poly("2*x*x1", t)))
    ok, witnesses = subset_local(I, J)
    assert ok
    for g, w in zip(I.generators, witnesses):
        assert w.verify()

    assert subset_local(ideal("x"), ideal("x", "y"))[0]
    ok, failing = subset_local(ideal("x", "y"), ideal("x"))
    assert not ok and failing == P("y")


def test_contains_local_unit():
    assert contains_local_unit(ideal("1 + x"))
    assert not contains_local_unit(ideal("x", "y"))
    assert contains_local_unit(ideal("x", "x + 1/3"))


def test_zero_and_unit_ideals():
    Z = Ideal(XY, (Poly.zero(XY),))
    assert not member_global(P("x"), Z)[0]
    assert member_global(P("0"), Z)[0]
    U = ideal("2")
    ok, w = member_global(P("x"), U)
    assert ok and w.verify()


def test_witness_soundness_random():
    """Every positive membership answer re-expands exactly."""
    rng = random.Random(41)
    positives = 0
    for _ in range(120):
        I = random_ideal(rng, XY)
        f = random_poly(rng, XY)
        ok, w = member_global(f, I)
        if ok:
            positives += 1
            assert w.verify()
            # global membership implies local membership
            ok_loc, w_loc = member_local(f, I)
            assert ok_loc and w_loc.verify()
    assert positives >= 10


def test_member_local_soundness_random():
    rng = random.Random(43)
    positives = 0
    for _ in range(80):
        I = random_ideal(rng, XY)
        f = random_poly(rng, XY)
        ok, w = member_local(f, I)
        if ok:
            positives += 1
            assert w.verify()
    assert positives >= 10


def test_ideal_sum_product():
    S = ideal_sum(ideal("x"), ideal("y"))
    assert same_ideal(S, ideal("x", "y"))
    Pr = ideal_product(ideal("x", "y"), ideal("x"))
    assert same_ideal(Pr, ideal("x^2", "x*y"))


def test_ideal_validation():
    with pytest.raises(RingError):
        Ideal(XY, ())
    with pytest.raises(RingError):
        Ideal(XY, (P("x1", X12),))


# -- reduction contract --------------------------------------------------
#
# The two functions below are the quadratic loops that `_reduce` and
# `divide_exact` used before reduction worked in place: each step rebuilt
# the whole remainder and searched it for its leading term.  The in-place
# loop must return exactly what they return, term for term.  `_reduce`
# returns the remainder and a cofactor vector; `division` reads the
# quotients of the same loop, `ring._reduce_terms`.

def reference_reduce(f, basis, order):
    table = f.table
    p = f
    remainder = Poly.zero(table)
    quotients = {}
    while not p.is_zero():
        lm, lc = p.leading(order)
        for i, g in enumerate(basis):
            if _mono_divides(g.lm, lm):
                t = Poly(table, {_mono_div(lm, g.lm): Fraction(lc) / g.lc})
                p = p - t * g.poly
                quotients[i] = quotients.get(i, Poly.zero(table)) + t
                break
        else:
            lt = Poly(table, {lm: lc})
            remainder = remainder + lt
            p = p - lt
    return remainder, quotients


def reference_divide_exact(f, g):
    if g.is_zero():
        raise NonDivisibleError("division by the zero polynomial")
    lm_g, lc_g = g.leading()
    quotient = Poly.zero(f.table)
    rest = f
    while not rest.is_zero():
        lm_r, lc_r = rest.leading()
        if not _mono_divides(lm_g, lm_r):
            raise NonDivisibleError("not divisible")
        t = Poly(f.table, {_mono_div(lm_r, lm_g): Fraction(lc_r) / lc_g})
        quotient = quotient + t
        rest = rest - g * t
    return quotient


ORDERS = [grevlex, elimination(1), elimination(2)]


def reduction_cases(seed, count):
    """(f, divisors, order, gens): divisors are a Groebner basis from
    `_buchberger`, tracked or not (tracked over gens), or the raw
    generators in the order given, as Buchberger reduces against a
    partial basis."""
    rng = random.Random(seed)
    for n in range(count):
        order = ORDERS[n % len(ORDERS)]
        I = random_ideal(rng, XYZ)
        f = random_poly(rng, XYZ, degree=5, terms=8)
        gens = [g for g in I.generators if not g.is_zero()]
        track = n % 3 != 2 and n % 2 == 0
        inputs = [_Gen(g, order, tuple(Poly.const(XYZ, int(i == j))
                                       for i in range(len(gens)))
                       if track else None, j) for j, g in enumerate(gens)]
        divisors = inputs if n % 3 == 2 else _buchberger(inputs, order)
        yield f, divisors, order, gens


def division(f, divisors, order):
    """(remainder, {basis index: quotient}) of the division loop."""
    remainder, quotients = _reduce_terms(
        dict(f.terms), [g.div for g in divisors], order)
    return (Poly(f.table, remainder),
            {i: Poly(f.table, q) for i, q in quotients.items()})


def test_reduce_matches_reference_loop():
    nontrivial = 0
    for f, divisors, order, _ in reduction_cases(53, 120):
        remainder, quotients = division(f, divisors, order)
        ref_remainder, ref_quotients = reference_reduce(f, divisors, order)
        assert remainder == ref_remainder
        assert list(quotients) == list(ref_quotients)
        assert quotients == ref_quotients
        assert _reduce(f, divisors, order, None) == (remainder, None)
        nontrivial += bool(quotients) and not remainder.is_zero()
    assert nontrivial >= 20


def test_reduce_division_identity():
    """The quotients rebuild f; with tracked divisors, `_reduce`'s
    cofactors (sign 1, from zeros) rebuild f - remainder over gens."""
    tracked = 0
    for f, divisors, order, gens in reduction_cases(59, 120):
        remainder, quotients = division(f, divisors, order)
        total = remainder
        for i, q in quotients.items():
            assert not q.is_zero()
            total = total + q * divisors[i].poly
        assert total == f
        for mono in remainder.terms:
            assert not any(_mono_divides(g.lm, mono) for g in divisors)
        if divisors and divisors[0].vec is not None:
            zeros = (Poly.zero(f.table),) * len(gens)
            r, cofactors = _reduce(f, divisors, order, zeros, sign=1)
            assert r == remainder
            combined = remainder
            for c, g in zip(cofactors, gens):
                combined = combined + c * g
            assert combined == f
            tracked += 1
    assert tracked >= 20


def test_reduce_by_empty_basis_is_identity():
    f = P("x^3 - 2*x*y + 5")
    assert _reduce(f, [], grevlex, None) == (f, None)
    assert _reduce(Poly.zero(XY), [], grevlex, None) == (Poly.zero(XY), None)
    assert _reduce(f, [], grevlex, (f, f)) == (f, (f, f))


def test_divide_exact_matches_reference_loop():
    rng = random.Random(61)
    refused = 0
    for _ in range(150):
        a = random_poly(rng, XYZ, degree=4, terms=6)
        b = random_poly(rng, XYZ, degree=3, terms=4, allow_zero=False)
        if b.is_zero():
            continue
        assert divide_exact(a * b, b) == a
        assert divide_exact(a * b, b) == reference_divide_exact(a * b, b)
        c = a * b + random_poly(rng, XYZ, degree=4, terms=2)
        try:
            expected = reference_divide_exact(c, b)
        except NonDivisibleError as exc:
            refused += 1
            with pytest.raises(NonDivisibleError) as info:
                divide_exact(c, b)
            assert str(info.value) == str(exc)
        else:
            assert divide_exact(c, b) == expected
    assert refused >= 50
    with pytest.raises(NonDivisibleError) as info:
        divide_exact(P("x"), P("0"))
    assert str(info.value) == "division by the zero polynomial"
