"""Groebner engine: bases, witnesses, intersection, colon, local tests."""

from __future__ import annotations

import json
import pathlib
import random
import sys
import time
from fractions import Fraction

import pytest

import blocksplit.groebner
import blocksplit.matrix
from blocksplit.certificate import NonInclusion
from blocksplit.groebner import (
    Ideal,
    _Gen,
    _Vec,
    _buchberger,
    _combine,
    _coprime,
    _reduce,
    _spoly,
    _spoly_recipe,
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
from blocksplit.matrix import PolyMatrix, kernel
from blocksplit.oracle import JetEchelon
from blocksplit.ring import (
    InvariantError,
    NonDivisibleError,
    Poly,
    RingError,
    VarTable,
    _divisor,
    _mono_div,
    _mono_divides,
    _mono_lcm,
    _reduce_terms,
    divide_exact,
    elimination,
    grevlex,
    parse_poly,
)

from support import perfbench_workloads, subset_local

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
    assert member_local(P("x"), Z) == (False, None)
    ok, w = member_local(P("0"), Z)
    assert ok and w.verify()
    U = ideal("2")
    ok, w = member_global(P("x"), U)
    assert ok and w.verify()
    # Ideal drops zero generators and the zero ideal's basis is empty, so
    # sums, colons and normal forms need no zero case of their own
    J = ideal("x", "y^2")
    assert ideal_sum(Z, J).generators == J.generators
    assert ideal_sum(J, Z).generators == J.generators
    assert ideal_sum(Z, Z).is_zero()
    assert colon(Z, P("x")).is_zero()
    assert normal_form(P("x + 1"), Z) == (P("x + 1"), (P("0"),))


def test_member_local_stops_the_jet_search_at_the_monomial_cap(monkeypatch):
    """Over 12 variables, jets of order 5 span 1820 > MAX_JET_MONOMIALS
    monomials, so echelons are built for N = 2..4 only.  x1^4 lies in
    (x1^5) + m^4, so none separates, and the colon (x1) holds no unit."""
    t = VarTable(tuple(f"x{k}" for k in range(1, 13)))
    orders, colons = [], []

    class Counted(JetEchelon):
        def __init__(self, generators, table, N):
            orders.append(N)
            super().__init__(generators, table, N)

    def counted_colon(I, f):
        colons.append(f)
        return colon(I, f)

    monkeypatch.setattr(blocksplit.groebner, "JetEchelon", Counted)
    monkeypatch.setattr(blocksplit.groebner, "colon", counted_colon)
    f = parse_poly("x1^4", t)
    assert member_local(f, Ideal(t, [parse_poly("x1^5", t)])) == (False, None)
    assert orders == [2, 3, 4] and colons == [f]


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
# returns the remainder and the quotients by basis position, those of
# the same loop, `ring._reduce_terms`, that `division` reads.

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
        assert _reduce(f, divisors, order) == (remainder, quotients)
        nontrivial += bool(quotients) and not remainder.is_zero()
    assert nontrivial >= 20


def test_reduce_division_identity():
    """`_reduce`'s quotients rebuild f, of f / scale too; with tracked
    divisors, the cofactors that `_combine` forms from them (sign 1)
    rebuild f - remainder over gens."""
    tracked = 0
    for f, divisors, order, gens in reduction_cases(59, 120):
        remainder, quotients = _reduce(f, divisors, order)
        assert _reduce(f * 3, divisors, order, 3) == (remainder, quotients)
        total = remainder
        for i, q in quotients.items():
            assert not q.is_zero()
            total = total + q * divisors[i].poly
        assert total == f
        for mono in remainder.terms:
            assert not any(_mono_divides(g.lm, mono) for g in divisors)
        if divisors and divisors[0].vec is not None:
            cofactors = _combine(f.table, len(gens), [
                (q, divisors[i], 1) for i, q in quotients.items()])
            combined = remainder
            for c, g in zip(cofactors, gens):
                combined = combined + c * g
            assert combined == f
            tracked += 1
    assert tracked >= 20


def test_a_recipe_chain_longer_than_the_recursion_limit_forms():
    """Reading a vector forms its unformed ancestors on an explicit
    stack, so a chain of recipes of any length forms."""
    one, x = P("1"), P("x")
    gen = _Gen(x, grevlex, (one, x), 0)
    for seq in range(1, sys.getrecursionlimit() + 10):
        gen = _Gen(x, grevlex, None, seq, [(one, gen.node, 1)])
    assert gen.vec == (one, x)


def test_reduce_by_empty_basis_is_identity():
    f = P("x^3 - 2*x*y + 5")
    zero = Poly.zero(XY)
    assert _reduce(f, [], grevlex) == (f, {})
    assert _reduce(zero, [], grevlex) == (zero, {})
    assert _reduce(f * 4, [], grevlex, 4) == (f, {})
    # no quotient: the cofactors are zero, and an element reduced by
    # nothing keeps its parent's vector
    assert _combine(XY, 2, []) == (zero, zero)
    parent = _Gen(f, grevlex, (f, f), 0)
    assert _combine(XY, 2, [(P("1"), parent, 1)]) == (f, f)


def test_a_non_member_forms_no_cofactor(monkeypatch):
    """`member_global` forms cofactors for a member only: a non-member
    query, basis included, runs no `sum_of_products` in the engine."""
    calls = []
    real = blocksplit.groebner.sum_of_products

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(blocksplit.groebner, "sum_of_products", counted)
    I = ideal("x^2 - y^3", "x*y^2 + y^4")
    assert member_global(P("x*y + y^2"), I) == (False, None)
    assert calls == []
    ok, witness = member_global(P("x^3 - x*y^3"), I)
    assert ok and witness.verify() and calls


def test_tracked_basis_vectors_rebuild_their_elements():
    """Every element of a tracked basis is the combination of the
    generators that its vector names, whichever order the vectors are
    read in: read forwards on one copy of each ideal and backwards on
    another, they are the same tuples, and no recipe is left."""
    rng = random.Random(67)
    rebuilt = lazy = 0
    for _ in range(100):
        table = (XY, XYZ)[rng.randrange(2)]
        I = random_ideal(rng, table)
        twin = Ideal(table, I.generators)
        lazy += sum(g.node._recipe is not None for g in I.basis())
        forwards = [g.vec for g in I.basis()]
        backwards = [g.vec for g in reversed(twin.basis())][::-1]
        assert forwards == backwards
        # a formed vector keeps no recipe, so no ancestor stays alive
        assert all(g.node._recipe is None
                   for g in I.basis() + twin.basis())
        for g, vec in zip(I.basis(), forwards):
            assert len(vec) == len(I.generators)
            total = Poly.zero(table)
            for c, gen in zip(vec, I.generators):
                total = total + c * gen
            assert total == g.poly
            rebuilt += len(I.basis()) > 1
    assert rebuilt >= 30 and lazy >= 50


def test_an_unread_recipe_holds_no_basis_element():
    """Recipes name vector nodes, not basis elements, so an unread vector
    keeps no parent's poly, divisor shape or packed form alive.  Walked
    from the 8x8 hidden sum's (f1, f2) basis, every recipe reachable
    names only `_Vec`s, and some are left unread."""
    doc = json.loads((pathlib.Path(__file__).parent / "golden"
                      / "quiver4.json").read_text(encoding="utf-8"))
    table = VarTable([f"x_{i}_{j}" for i in range(1, 5)
                      for j in range(1, 5)] + [f"y_{i}" for i in range(1, 5)])
    basis = Ideal(table, [parse_poly(f, table)
                          for f in doc["factors"]]).basis()
    stack = [g.node for g in basis]
    seen, recipes = set(), 0
    while stack:
        node = stack.pop()
        if id(node) in seen or node._recipe is None:
            continue
        seen.add(id(node))
        recipes += 1
        for m, parent, sign in node._recipe:
            assert type(m) is Poly and sign in (1, -1)
            assert type(parent) is _Vec
            stack.append(parent)
    assert recipes >= len(basis)


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


def reference_update(G, B, h, positions):
    """The Gebauer-Moeller update as first written, before `_update`
    kept one lcm per element of G: each candidate pairing recomputes its
    lcms and is tested against a concatenated list."""
    C = [(h, g) for g in G
         if not positions or g.lm[-positions:] == h.lm[-positions:]]
    D = []
    while C:
        _, g = C.pop(0)
        lcm_hg = _mono_lcm(h.lm, g.lm)
        survives = _coprime(h.lm, g.lm) or not any(
            _mono_divides(_mono_lcm(h.lm, other.lm), lcm_hg)
            for _, other in C + D
        )
        if survives:
            D.append((h, g))
    E = [(a, b) for a, b in D if not _coprime(a.lm, b.lm)]
    B_new = []
    for g1, g2 in B:
        lcm12 = _mono_lcm(g1.lm, g2.lm)
        if (
            not _mono_divides(h.lm, lcm12)
            or _mono_lcm(g1.lm, h.lm) == lcm12
            or _mono_lcm(h.lm, g2.lm) == lcm12
        ):
            B_new.append((g1, g2))
    B_new.extend(E)
    G_new = [g for g in G if not _mono_divides(h.lm, g.lm)]
    G_new.append(h)
    return G_new, B_new


def reference_buchberger(inputs, order, positions=0, monic=False):
    """`_buchberger` by the plain rule: every input and every minimal
    element goes through `_reduce`, and pairs are updated by
    `reference_update`.  seq and order as in the engine.  With `monic`,
    the interreduction also rescales each element by 1 / lc, its
    recipe's multipliers with it, as the engine once did."""
    tracked = bool(inputs) and inputs[0].vec is not None
    seq = len(inputs)
    G, B = [], []
    for gen in inputs:
        remainder, quotients = _reduce(gen.poly, G, order)
        if remainder.is_zero():
            continue
        if quotients:
            recipe = None
            if tracked:
                recipe = [(Poly.const(remainder.table, 1), gen.node, 1)] + [
                    (q, G[i].node, -1) for i, q in quotients.items()]
            gen = _Gen(remainder, order, None, gen.seq, recipe)
        G, B = reference_update(G, B, gen, positions)
    while B:
        pair = max(B, key=lambda ab: (order(_mono_lcm(ab[0].lm, ab[1].lm)),
                                      -ab[0].seq, -ab[1].seq))
        B.remove(pair)
        lcm = _mono_lcm(pair[0].lm, pair[1].lm)
        s, scale = _spoly(*pair, lcm)
        remainder, quotients = _reduce(s, G, order, scale)
        if remainder.is_zero():
            continue
        recipe = None
        if tracked:
            recipe = _spoly_recipe(*pair, lcm) + [
                (q, G[i].node, -1) for i, q in quotients.items()]
        G, B = reference_update(
            G, B, _Gen(remainder, order, None, seq, recipe), positions)
        seq += 1
    minimal = []
    for g in sorted(G, key=lambda g: order(g.lm), reverse=True):
        if not any(_mono_divides(h.lm, g.lm) for h in minimal):
            minimal.append(g)
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        remainder, quotients = _reduce(g.poly, others, order)
        scale = Fraction(1) / remainder.leading(order)[1] if monic else 1
        if not quotients and scale == 1:
            reduced.append(g)
            continue
        recipe = None
        if tracked:
            recipe = [(Poly.const(remainder.table, scale), g.node, 1)] + [
                (q * scale, others[k].node, -1)
                for k, q in quotients.items()]
        reduced.append(_Gen(remainder * scale, order, None, g.seq, recipe))
    reduced.sort(key=lambda g: order(g.lm))
    return reduced


def assert_same_basis(ours, theirs, order):
    """The same polys in the same order with the same seq, the same
    formed vectors, and every shape the one `_divisor` builds."""
    assert [(g.poly, g.seq) for g in ours] == \
        [(g.poly, g.seq) for g in theirs]
    assert [g.vec for g in ours] == [g.vec for g in theirs]
    for g in ours:
        assert g.div == _divisor(g.poly, order)
        assert (g.lm, g.lc) == g.poly.leading(order)


def assert_monic_rescale(ours, monic):
    """The basis of the old monic rule is ours with each element, and its
    vector, scaled by 1 / lc."""
    scales = [Fraction(1) / g.lc for g in ours]
    assert [g.poly for g in monic] == [
        g.poly * k for g, k in zip(ours, scales)]
    if ours and ours[0].vec is not None:
        assert [g.vec for g in monic] == [
            tuple(c * k for c in g.vec) for g, k in zip(ours, scales)]


WIDE = [VarTable(tuple(f"x{i}" for i in range(1, n + 1))) for n in range(1, 6)]


def seeded_poly(rng, table, rational, degree=3, terms=3):
    """One to `terms` terms of degree <= `degree`, coefficients +-1..3,
    over 1..4 when `rational`."""
    out = {}
    for _ in range(rng.randint(1, terms)):
        mono = [0] * len(table)
        for _ in range(rng.randint(0, degree)):
            mono[rng.randrange(len(table))] += 1
        mono = tuple(mono)
        coeff = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                         rng.randint(1, 4) if rational else 1)
        out[mono] = out.get(mono, 0) + coeff
    return Poly(table, out)


def engine_cases(seed, count):
    """(inputs, order): seeded ideals over 1 to 5 variables, integer or
    rational, tracked or not, under grevlex (packed from 4 variables on)
    or elimination of a trailing block."""
    rng = random.Random(seed)
    for n in range(count):
        table = WIDE[n % len(WIDE)]
        k = rng.randrange(len(table))
        order = elimination(k) if k else grevlex
        gens = [seeded_poly(rng, table, rational=n % 2 == 1)
                for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if not g.is_zero()] or [P("1", table)]
        tracked = n % 4 < 2
        one, zero = Poly.const(table, 1), Poly.zero(table)
        yield [_Gen(g, order, tuple(one if i == j else zero
                                    for i in range(len(gens)))
                    if tracked else None, j)
               for j, g in enumerate(gens)], order


def test_buchberger_matches_the_plain_reference(monkeypatch):
    """Skipping the reductions that cannot divide, one reduce-or-keep
    step, one lcm per element of G in the pair update, pairs built once
    with their lcm and key, and no minimality scan change no basis, seq,
    vector or shape; the old monic rule's basis is the same one scaled
    to lc 1.  Every pair update keeps the elements and pairs, in order,
    that the plain update keeps, each pair's record holds its own lcm
    and key, and the leading monomials of G stay an antichain."""
    real = blocksplit.groebner._update

    def checked(G, B, h, order, positions):
        G_new, B_new = real(G, B, h, order, positions)
        assert (G_new, [(a, b) for _, _, a, b in B_new]) == reference_update(
            G, [(a, b) for _, _, a, b in B], h, positions)
        for key, lcm, a, b in B_new:
            assert lcm == _mono_lcm(a.lm, b.lm)
            assert key == (order(lcm), -a.seq, -b.seq)
        assert not any(_mono_divides(g.lm, k.lm)
                       for g in G_new for k in G_new if g is not k)
        return G_new, B_new

    monkeypatch.setattr(blocksplit.groebner, "_update", checked)
    for inputs, order in engine_cases(71, 400):
        ours = _buchberger(inputs, order)
        assert_same_basis(ours, reference_buchberger(inputs, order), order)
        assert_monic_rescale(ours,
                             reference_buchberger(inputs, order, monic=True))


def test_kernel_bases_match_the_plain_reference(monkeypatch):
    """The module case: `matrix.kernel`'s position-over-term bases, and
    its columns pairwise distinct without a dedupe set."""
    bases = []
    real = blocksplit.matrix._buchberger

    def both(inputs, order, positions=0):
        ours = real(inputs, order, positions)
        bases.append((ours, reference_buchberger(inputs, order, positions),
                      reference_buchberger(inputs, order, positions, True),
                      order))
        return ours

    monkeypatch.setattr(blocksplit.matrix, "_buchberger", both)
    rng = random.Random(73)
    for n in range(40):
        table = WIDE[n % 3]
        rows, cols = rng.randint(1, 2), rng.randint(2, 3)
        M = PolyMatrix(table, [[seeded_poly(rng, table, n % 2 == 1, 2, 2)
                                for _ in range(cols)] for _ in range(rows)])
        columns = kernel(M)
        assert len({tuple(p.key() for p in v) for v in columns}) == \
            len(columns)
    assert len(bases) == 40
    for ours, theirs, monic, order in bases:
        assert_same_basis(ours, theirs, order)
        assert_monic_rescale(ours, monic)


def count_calls(monkeypatch, *names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(blocksplit.groebner, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(blocksplit.groebner, name, counted)
    return calls


def test_a_principal_basis_reduces_nothing(monkeypatch):
    """One generator: the basis is the generator itself, its shape built
    once and nothing reduced; `groebner_basis` scales it to monic."""
    calls = count_calls(monkeypatch, "_reduce", "_divisor")
    f = P("-2*x^2 + 4*y")
    basis = Ideal(XY, (f,)).basis()
    assert calls == {"_reduce": 0, "_divisor": 1}
    assert [g.poly for g in basis] == [f]
    assert basis[0].vec == (P("1"),)
    assert groebner_basis(Ideal(XY, (f,))) == [f * Fraction(-1, 2)]
    assert calls == {"_reduce": 0, "_divisor": 2}


def test_member_sweep_basis_call_counts(monkeypatch):
    """The bases of local-member seed 1's 2000 ideals take these many
    reductions, divisor shapes and monomial lcms: an input or a minimal
    element is reduced only when something divides into it, and a pair's
    lcm is computed once, when the pair is built."""
    cases = perfbench_workloads().local_member(1, 2000)
    ideals = []
    for case in cases:
        table = VarTable(case["vars"])
        ideals.append(Ideal(table, [parse_poly(g, table)
                                    for g in case["ideal"]]))
    calls = count_calls(monkeypatch, "_reduce", "_divisor", "_mono_lcm")
    for I in ideals:
        I.basis()
    assert calls == {"_reduce": 2768, "_divisor": 5516, "_mono_lcm": 4005}
