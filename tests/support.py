"""Helpers shared by several test modules: seeded unimodular base changes
and local inclusion of one ideal in another, generator by generator."""

from __future__ import annotations

import random

from blocksplit.groebner import Ideal, member_local
from blocksplit.matrix import PolyMatrix
from blocksplit.ring import Poly, VarTable, iter_monomials


def _random_poly(rng: random.Random, table: VarTable, degree: int, terms: int,
                 coeff_bound: int) -> Poly:
    pool = list(iter_monomials(len(table), degree + 1))
    acc = {}
    for _ in range(terms):
        mono = pool[rng.randrange(len(pool))]
        coeff = rng.randint(-coeff_bound, coeff_bound)
        if coeff:
            acc[mono] = acc.get(mono, 0) + coeff
    return Poly(table, acc)


def random_unimodular(rng: random.Random, table: VarTable, n: int,
                      degree: int = 1, steps: int = 3) -> PolyMatrix:
    """Product of elementary transvections: determinant exactly 1."""
    M = PolyMatrix.identity(table, n)
    for _ in range(steps):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        p = _random_poly(rng, table, degree, 2, 2)
        E = [[Poly.const(table, 1 if r == c else 0) for c in range(n)]
             for r in range(n)]
        E[i][j] = p
        M = M * PolyMatrix(table, E)
    return M


def subset_local(I: Ideal, J: Ideal):
    """Is every generator of I in J locally?

    Returns (True, [Inclusion per generator]) or (False, first failing
    generator)."""
    witnesses = []
    for g in I.generators:
        ok, witness = member_local(g, J)
        if not ok:
            return False, g
        witnesses.append(witness)
    return True, witnesses
