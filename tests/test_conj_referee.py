"""check-conj's non-square verdicts refereed by sympy.

A NotDecomposable check-conj verdict carries a point certificate exactly
when its discriminant is no square in Q[x]: sympy's ``factor_list`` of
the discriminant then shows a constant that is negative or not the
square of a rational, or a factor of odd multiplicity.  The seeded
matrices are 2x2 over one to three variables: half have random entries,
whose discriminant is rarely a square, and half are conjugates
U*T*U^-1 of an upper triangular T by a unimodular U, whose discriminant
(t11 - t22)^2 always is.  The test is skipped when sympy is absent.
"""

from __future__ import annotations

import random

import pytest

from blocksplit.certificate import NOT_DECOMPOSABLE, NonSquare
from blocksplit.matrix import PolyMatrix, det
from blocksplit.quiver import check_conj_2x2
from blocksplit.ring import Poly, VarTable

from support import _random_poly, random_unimodular

sympy = pytest.importorskip("sympy")

TABLES = [VarTable(("x",)), VarTable(("x", "y")), VarTable(("x", "y", "z"))]


def to_sympy(p: Poly, symbols):
    return sympy.Add(*(c * sympy.Mul(*(s ** e for s, e in zip(symbols, m)))
                       for m, c in p.terms.items()))


def sympy_nonsquare(p: Poly) -> bool:
    """Is the nonzero p no square in Q[x], by sympy's factorization?"""
    symbols = sympy.symbols(p.table.names)
    constant, factors = sympy.factor_list(to_sympy(p, symbols), *symbols)
    constant = sympy.Rational(constant)
    return (constant < 0 or not sympy.sqrt(constant).is_Rational
            or any(m % 2 for _, m in factors))


def random_matrix(rng: random.Random, table: VarTable) -> PolyMatrix:
    def entry():
        return _random_poly(rng, table, 2, 3, 3)

    if rng.random() < 0.5:
        return PolyMatrix(table, ((entry(), entry()), (entry(), entry())))
    U = random_unimodular(rng, table, 2)
    a, b, c, d = U[0, 0], U[0, 1], U[1, 0], U[1, 1]
    inverse = PolyMatrix(table, ((d, -b), (-c, a)))
    T = PolyMatrix(table, ((entry(), entry()), (Poly.zero(table), entry())))
    return U * T * inverse


def test_a_point_certificate_comes_exactly_with_a_nonsquare_discriminant():
    rng = random.Random(27)
    seen = {True: 0, False: 0}
    for k in range(90):
        A = random_matrix(rng, TABLES[k % 3])
        v = check_conj_2x2(A)
        if v.status != NOT_DECOMPOSABLE:
            continue
        disc = A.trace() * A.trace() - det(A) * 4
        nonsquare = sympy_nonsquare(disc)
        assert bool(v.of(NonSquare)) == nonsquare, A.entries
        assert (v.failing == disc) == nonsquare, A.entries
        seen[nonsquare] += 1
    # both sides of the rule stay covered
    assert seen[True] >= 20 and seen[False] >= 5, seen
