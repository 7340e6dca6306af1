"""Jet-truncation oracle: exact linear algebra cross-check for membership."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

import blocksplit.ring
from blocksplit.certificate import NonInclusion
from blocksplit.groebner import Ideal, member_local
from blocksplit.matrix import det
from blocksplit.oracle import (
    JetEchelon,
    JetSpace,
    jet_member,
    jet_member_witness,
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

from support import random_unimodular

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
    # spaces of one width and order share one monomial tuple and index
    assert JetSpace(X12, 3).monomials is space.monomials


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


class ReferenceEchelon:
    """The rational elimination, stated plainly: each row is the Poly
    x^mono * g truncated below N, every pivot row is made monic, and a
    row is reduced by subtracting its entry times the monic pivot row at
    its smallest pivot column, until none is left."""

    def __init__(self, generators, table, N):
        self.generators = tuple(generators)
        self.space = JetSpace(table, N)
        self.pivots = {}
        for gi, g in enumerate(self.generators):
            o = g.order()
            if o is None or o >= N:
                continue
            for mono in self.space.monomials:
                if sum(mono) + o >= N:
                    continue
                shifted = truncate(Poly(table, {mono: 1}) * g, N)
                row, comb = self.reduce(self.space.vector(shifted),
                                        {(gi, mono): Fraction(1)})
                if row:
                    scale = row[min(row)]
                    self.pivots[min(row)] = (
                        {c: v / scale for c, v in row.items()},
                        {k: v / scale for k, v in comb.items()})

    def reduce(self, row, comb):
        row, comb = {c: Fraction(v) for c, v in row.items()}, dict(comb)
        while True:
            hits = [c for c in row if c in self.pivots]
            if not hits:
                return row, comb
            factor = row[min(hits)]
            prow, pcomb = self.pivots[min(hits)]
            for target, source in ((row, prow), (comb, pcomb)):
                for k, v in source.items():
                    target[k] = target.get(k, 0) - factor * v
                    if not target[k]:
                        del target[k]

    def witness(self, f):
        row, comb = self.reduce(self.space.vector(f), {})
        if row:
            return False, None
        cofactors = [{} for _ in self.generators]
        for (gi, mono), coeff in comb.items():
            cofactors[gi][mono] = -coeff
        return True, tuple(Poly(f.table, c) for c in cofactors)

    def separator(self, f):
        row, _ = self.reduce(self.space.vector(f), {})
        if not row:
            return None
        c = min(row)
        lam = {c: Fraction(1)}
        for p in sorted((p for p in self.pivots if p < c), reverse=True):
            prow, _ = self.pivots[p]
            lam[p] = -sum(v * lam.get(j, 0) for j, v in prow.items()
                          if j != p)
        return Poly(f.table, {self.space.monomials[j]: v
                              for j, v in lam.items()})


TABLES = (VarTable(("x",)), XY, VarTable(("x", "y", "z")))
COEFFS = (1, -1, 2, -3, Fraction(1, 3), Fraction(-5, 2))


def seeded_poly(rng, table, degree, terms):
    """A polynomial of up to `terms` terms of degree <= `degree`, its
    coefficients drawn from COEFFS (integers, 1/3 and -5/2)."""
    pool = list(iter_monomials(len(table), degree + 1))
    return Poly(table, {pool[rng.randrange(len(pool))]: rng.choice(COEFFS)
                        for _ in range(terms)})


def seeded_cases(seed, count):
    """(generators, table, N, elements): ideals over 1 to 3 variables at
    N = 1..6, whose generators include zero, constants and other units
    besides ideals inside m, and elements tested against each."""
    rng = random.Random(seed)
    for n in range(count):
        table = TABLES[n % len(TABLES)]
        N = 1 + n % 6
        if len(table) == 3:
            N = min(N, 5)
        gens = [seeded_poly(rng, table, 3, rng.randint(1, 4))
                for _ in range(rng.randint(1, 3))]
        kind = rng.randrange(6)
        if kind == 0:
            gens.append(Poly.zero(table))
        elif kind == 1:
            gens.append(Poly.const(table, rng.choice(COEFFS)))
        elif kind == 2:
            gens[0] = gens[0] + Poly.const(table, rng.choice(COEFFS))
        elif kind == 3:
            # no constant term: the ideal lies in m
            gens = [g - Poly.const(table, g.constant_term()) for g in gens]
        rng.shuffle(gens)
        elements = [seeded_poly(rng, table, N, rng.randint(1, 5))
                    for _ in range(4)]
        # a combination of the generators lies in the ideal
        elements.append(sum((seeded_poly(rng, table, 1, 2) * g
                             for g in gens), Poly.zero(table)))
        yield gens, table, N, elements


def test_fraction_free_echelon_matches_the_rational_elimination():
    """The fraction-free echelon and the rational reference have the same
    pivot columns, each pivot row a multiple of the monic one, and give
    the same witness and separator for every element; every functional
    passes the certificate layer's own re-check."""
    members = separated = 0
    for gens, table, N, elements in seeded_cases(83, 150):
        echelon = JetEchelon(gens, table, N)
        reference = ReferenceEchelon(gens, table, N)
        assert echelon.pivots.keys() == reference.pivots.keys()
        for p, (row, _) in echelon.pivots.items():
            monic, _ = reference.pivots[p]
            assert {c: Fraction(v, row[p]) for c, v in row.items()} == monic
        for f in elements:
            assert echelon.witness(f) == reference.witness(f)
            functional = echelon.separator(f)
            assert functional == reference.separator(f)
            ok, cofactors = echelon.witness(f)
            assert ok == (functional is None)
            if ok:
                members += 1
                rest = f - sum((c * g for c, g in zip(cofactors, gens)),
                               Poly.zero(table))
                assert truncate(rest, N).is_zero()
            else:
                separated += 1
                assert NonInclusion(f, gens, N, functional).failures() == []
    assert (members, separated) == (528, 222)


def test_building_an_echelon_forms_no_product_and_keeps_integer_rows(
        monkeypatch):
    """Rows come from shifted terms: building an echelon runs no
    `sum_of_products`, `truncate` or validating Poly constructor.  Every
    stored pivot row and its combination hold ints, of content 1
    together."""
    cases = list(seeded_cases(89, 60))
    calls = []

    def spy(name, real):
        def counted(*args):
            calls.append(name)
            return real(*args)
        return counted

    for name in ("sum_of_products", "truncate"):
        monkeypatch.setattr(blocksplit.ring, name,
                            spy(name, getattr(blocksplit.ring, name)))
    monkeypatch.setattr(Poly, "__init__", spy("Poly", Poly.__init__))
    echelons = [JetEchelon(gens, table, N) for gens, table, N, _ in cases]
    monkeypatch.undo()
    assert calls == []
    rows = 0
    for echelon in echelons:
        for row, comb in echelon.pivots.values():
            entries = [*row.values(), *comb.values()]
            assert all(type(v) is int for v in entries)
            assert math.gcd(*entries) == 1
            rows += 1
    assert rows >= 300
