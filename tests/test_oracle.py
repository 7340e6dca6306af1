"""Jet-truncation oracle: exact linear algebra cross-check for membership."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from blocksplit.groebner import Ideal, member_local
from blocksplit.matrix import det
from blocksplit.oracle import (
    JetSpace,
    jet_member,
    jet_member_witness,
    random_unimodular,
)
from blocksplit.ring import (
    MAX_JET_MONOMIALS,
    Poly,
    RingError,
    VarTable,
    iter_monomials,
    local_unit_test,
    parse_poly,
    truncate,
)

XY = VarTable(("x", "y"))
X12 = VarTable(("x1", "x2"))


def P(text, table=XY):
    return parse_poly(text, table)


def random_poly(seed, table=X12, degree=3, terms=3, coeff_bound=5):
    """Nonzero polynomial seeded by `seed`: `terms` draws of a monomial of
    degree <= `degree` with a coefficient in [-coeff_bound, coeff_bound]."""
    rng = random.Random(seed)
    pool = list(iter_monomials(len(table), degree + 1))
    acc = {}
    for _ in range(terms):
        mono = pool[rng.randrange(len(pool))]
        coeff = rng.randint(-coeff_bound, coeff_bound)
        if coeff:
            acc[mono] = acc.get(mono, Fraction(0)) + coeff
    f = Poly(table, acc)
    if f.is_zero():
        mono = pool[rng.randrange(len(pool))]
        f = Poly(table, {mono: Fraction(rng.randint(1, coeff_bound))})
    return f


def test_jet_space_dimension():
    space = JetSpace(XY, 3)
    # monomials of total degree < 3 in two variables: 1+2+3
    assert len(space.monomials) == 6
    single = JetSpace(VarTable(("x",)), 5)
    assert len(single.monomials) == 5


def test_jet_space_is_capped():
    # two variables: N*(N+1)/2 monomials below degree N
    N = max(n for n in range(1, MAX_JET_MONOMIALS)
            if n * (n + 1) // 2 <= MAX_JET_MONOMIALS)
    assert len(JetSpace(XY, N).monomials) == N * (N + 1) // 2
    with pytest.raises(RingError, match=f"jet order {N + 1} over 2 "
                       "variables spans more than"):
        JetSpace(XY, N + 1)


def test_jet_member_examples():
    assert not jet_member(P("x"), Ideal(XY, (P("x^2"),)), 3)
    assert jet_member(P("x^2"), Ideal(XY, (P("x^2 + x^3"),)), 4)


def test_jet_witness_congruence():
    I = Ideal(XY, (P("x^2 + x^3"),))
    ok, cofactors = jet_member_witness(P("x^2"), I.generators, 4)
    assert ok
    diff = P("x^2")
    for c, g in zip(cofactors, I.generators):
        diff = diff - c * g
    assert truncate(diff, 4).is_zero()


def test_jet_unit_family():
    # f in (f * unit) locally for any unit; jets must agree at every order
    units = ("1 + x", "2 - y", "1/3 + x*y")
    for u in units:
        I = Ideal(XY, (P("x^2 - y^3") * P(u),))
        f = P("x^2 - y^3")
        assert member_local(f, I)[0]
        for N in (2, 4, 6, 8):
            assert jet_member(f, I, N)


def test_jet_obstruction_family():
    """f = combination + h with a known lowest obstruction degree d:
    jet membership must fail for every N > d."""
    cases = [
        # (generators, f, obstruction degree)
        (("x^2", "x*y"), "x^2 + y^3", 3),
        (("x^2",), "x^2*(1 + x) + y^4", 4),
        (("x^3", "y^3"), "x^3 - y^3 + x*y", 2),
    ]
    for gens, f, d in cases:
        I = Ideal(XY, tuple(P(g) for g in gens))
        for N in range(d + 1, 9):
            assert not jet_member(P(f), I, N)
        assert not member_local(P(f), I)[0]


def test_agreement_with_member_local():
    """The jet oracle referees member_local both ways: a member passes at
    orders 4 and 6, and a non-member fails at some order up to 8.  The
    counts pin the sweep, so that a change to either side shows."""
    rng = random.Random(73)
    members = proper = nonmembers = 0
    for seed in range(60):
        f = random_poly(rng.randrange(10 ** 6))
        gens = tuple(random_poly(rng.randrange(10 ** 6)) for _ in range(2))
        I = Ideal(X12, gens)
        ok, _ = member_local(f, I)
        if ok:
            for N in (4, 6):
                assert jet_member(f, I, N)
            members += 1
            # I is proper at the origin iff no generator is a unit there
            proper += not any(map(local_unit_test, gens))
        else:
            assert not all(jet_member(f, I, N) for N in range(1, 9)), seed
            nonmembers += 1
    assert (members, proper, nonmembers) == (37, 12, 23)


def test_random_unimodular_det_one():
    rng = random.Random(79)
    for n in (2, 3):
        for _ in range(10):
            U = random_unimodular(rng, XY, n)
            assert det(U) == Poly.const(XY, 1)
