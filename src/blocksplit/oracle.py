"""Independent brute-force verification layer.

Ideal membership modulo m^N is a finite-dimensional linear-algebra
question: f lies in I + m^N iff the truncation of f is a rational linear
combination of truncated monomial multiples of the generators.  The row
reduction here is exact (rational pivots, no tolerances) and shares no
code with the Groebner engine, so the two can referee each other.

A jet answer is one-sided evidence: true at order N means "consistent
with local membership up to degree N", never a proof of membership.

The module also hosts ``random_unimodular``, seeded base changes of
determinant one for invariance tests.
"""

from __future__ import annotations

import random
from typing import Iterable

from .ring import (
    Coeff,
    Poly,
    RingError,
    VarTable,
    _check_jet_size,
    _div,
    iter_monomials,
    truncate,
)
from .groebner import Ideal
from .matrix import PolyMatrix


class JetSpace:
    """Monomial basis of R/m^N: all monomials of total degree < N, at most
    MAX_JET_MONOMIALS of them."""

    __slots__ = ("table", "bound", "monomials", "_index")

    def __init__(self, table: VarTable, bound: int):
        if bound < 1:
            raise RingError("jet order must be at least 1")
        _check_jet_size("jet order", bound, len(table))
        self.table = table
        self.bound = bound
        self.monomials = tuple(iter_monomials(len(table), bound))
        self._index = {mono: i for i, mono in enumerate(self.monomials)}

    def vector(self, f: Poly) -> dict[int, Coeff]:
        """Sparse coordinate vector of f mod m^N."""
        vec = {}
        for mono, coeff in f.terms.items():
            if sum(mono) < self.bound:
                vec[self._index[mono]] = coeff
        return vec


def _eliminate(row: dict[int, Coeff], comb: dict, pivots: dict):
    """Reduce row against current pivot rows, carrying the combination.

    Eliminating one column can introduce entries in later pivot columns,
    so this loops until no pivot column is left in the row."""
    while True:
        hit = min((c for c in row if c in pivots), default=None)
        if hit is None:
            return row, comb
        factor = row[hit]
        prow, pcomb = pivots[hit]
        for c, v in prow.items():
            new = row.get(c, 0) - factor * v
            if new:
                row[c] = new
            else:
                row.pop(c, None)
        for k, v in pcomb.items():
            new = comb.get(k, 0) - factor * v
            if new:
                comb[k] = new
            else:
                comb.pop(k, None)


def _insert(row: dict[int, Coeff], comb: dict, pivots: dict) -> None:
    row, comb = _eliminate(row, comb, pivots)
    if not row:
        return
    col = min(row)
    scale = row[col]
    row = {c: _div(v, scale) for c, v in row.items()}
    comb = {k: _div(v, scale) for k, v in comb.items()}
    pivots[col] = (row, comb)


class JetEchelon:
    """The truncated monomial multiples of an ideal's generators modulo
    m^N, row-reduced once.  Testing an element eliminates against the
    pivot rows without changing them, so every element tested against one
    ideal at one order shares a single echelon."""

    __slots__ = ("generators", "space", "pivots")

    def __init__(self, generators: Iterable[Poly], table: VarTable, N: int):
        self.generators = tuple(generators)
        self.space = JetSpace(table, N)
        self.pivots: dict = {}
        for gi, g in enumerate(self.generators):
            o = g.order()
            if o is None or o >= N:
                continue
            for mono in self.space.monomials:
                if sum(mono) + o >= N:
                    continue
                shifted = truncate(Poly(table, {mono: 1}) * g, N)
                if shifted.is_zero():
                    continue
                _insert(self.space.vector(shifted), {(gi, mono): 1},
                        self.pivots)

    def witness(self, f: Poly):
        """Decide f in (generators) + m^N; on success return cofactors c_i
        with f = sum(c_i * g_i) modulo m^N (a unit-free congruence
        witness)."""
        row, comb = _eliminate(self.space.vector(f), {}, self.pivots)
        if row:
            return False, None
        cofactors: list[dict] = [{} for _ in self.generators]
        for (gi, mono), coeff in comb.items():
            cofactors[gi][mono] = -coeff
        return True, tuple(Poly(f.table, c) for c in cofactors)


def jet_member_witness(f: Poly, generators: Iterable[Poly], N: int):
    """JetEchelon(generators).witness(f) for a single element f."""
    return JetEchelon(generators, f.table, N).witness(f)


def jet_member(f: Poly, I: Ideal, N: int) -> bool:
    """Truncated membership test; exact linear algebra, no Groebner."""
    ok, _ = jet_member_witness(f, I.generators, N)
    return ok


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
