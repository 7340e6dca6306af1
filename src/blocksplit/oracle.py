"""Brute-force membership modulo m^N by exact linear algebra.

Ideal membership modulo m^N is a finite-dimensional linear-algebra
question: f lies in I + m^N iff the truncation of f is a rational linear
combination of truncated monomial multiples of the generators.  The row
reduction here is exact (no tolerances) and uses no Groebner basis.

It is fraction-free (E. H. Bareiss, Math. Comp. 22, 1968).  A row has
its denominators cleared once, and a pivot is eliminated by
cross-multiplication: the row times the pivot entry a, minus the pivot
row times the row's entry b, both first divided by gcd(a, b).  Every row
is then an integer multiple of the row that an elimination with monic
rational pivots would hold at the same step, with the same support, so
the pivot columns, the functionals and the cofactors are those of that
elimination.  A stored pivot row and its combination are divided by
their joint content, which keeps the integers small.

A jet answer that f lies in I + m^N is one-sided evidence: it means
"consistent with local membership up to degree N", never a proof of
membership.  The other answer is a proof: when f is not in I + m^N, the
echelon yields a functional on R/m^N that vanishes on I + m^N and not on
f, so f is not in I at the origin either (`groebner.member_local` uses it
to answer no before any colon).
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import add
from typing import Iterable

from .ring import (
    Coeff,
    Poly,
    RingError,
    VarTable,
    _check_jet_size,
    _div,
    _integral,
    _jet_span,
    iter_monomials,
)


@lru_cache(maxsize=128)
def _monomial_basis(width: int, bound: int):
    """The monomials of degree < bound in `width` variables, in grevlex
    ascending order (so by ascending degree), and their column index.
    Every space of that width and order shares both, so neither may be
    changed."""
    monomials = tuple(iter_monomials(width, bound))
    return monomials, {mono: i for i, mono in enumerate(monomials)}


class JetSpace:
    """Monomial basis of R/m^N: all monomials of total degree < N, at most
    MAX_JET_MONOMIALS of them.  Spaces of one width and order share one
    monomial tuple and index, built once."""

    __slots__ = ("table", "bound", "monomials", "_index")

    def __init__(self, table: VarTable, bound: int):
        if bound < 1:
            raise RingError("jet order must be at least 1")
        _check_jet_size("jet order", bound, len(table))
        self.table = table
        self.bound = bound
        self.monomials, self._index = _monomial_basis(len(table), bound)

    def vector(self, f: Poly) -> dict[int, Coeff]:
        """Sparse coordinate vector of f mod m^N."""
        index, bound = self._index, self.bound
        return {index[mono]: coeff for mono, coeff in f.terms.items()
                if sum(mono) < bound}


def _eliminate(row: dict[int, int], comb: dict, pivots: dict) -> int:
    """Reduce the integer row in place against the pivot rows, carrying
    its combination, and return the factor k that the row and the
    combination were multiplied by: the new row is k times the old one
    plus a combination of pivot rows.  Eliminating one column can
    introduce entries in later pivot columns, so this loops until no
    pivot column is left in the row."""
    scale = 1
    while True:
        col = min((c for c in row if c in pivots), default=None)
        if col is None:
            return scale
        b = row[col]
        prow, pcomb = pivots[col]
        a = prow[col]
        g = math.gcd(a, b)
        a, b = a // g, b // g
        if a != 1:
            scale *= a
            for c in row:
                row[c] *= a
            for k in comb:
                comb[k] *= a
        for c, v in prow.items():
            new = row.get(c, 0) - b * v
            if new:
                row[c] = new
            else:
                row.pop(c, None)
        for k, v in pcomb.items():
            new = comb.get(k, 0) - b * v
            if new:
                comb[k] = new
            else:
                comb.pop(k, None)


def _insert(row: dict[int, int], comb: dict, pivots: dict) -> None:
    _eliminate(row, comb, pivots)
    if not row:
        return
    content = math.gcd(*row.values(), *comb.values())
    if content != 1:
        row = {c: v // content for c, v in row.items()}
        comb = {k: v // content for k, v in comb.items()}
    pivots[min(row)] = (row, comb)


class JetEchelon:
    """The truncated monomial multiples of an ideal's generators modulo
    m^N, row-reduced once.  Testing an element eliminates against the
    pivot rows without changing them, so every element tested against one
    ideal at one order shares a single echelon.

    pivots maps a pivot column p to (row, comb): an integer row, zero
    before p and nonzero at p, and its integer combination {(i, mono):
    c}, with row == sum(c * (x^mono * generators[i] mod m^N)) and the
    row and the combination together of content 1."""

    __slots__ = ("generators", "space", "pivots")

    def __init__(self, generators: Iterable[Poly], table: VarTable, N: int):
        self.generators = tuple(generators)
        self.space = JetSpace(table, N)
        self.pivots: dict = {}
        monomials, index = self.space.monomials, self.space._index
        for gi, g in enumerate(self.generators):
            o = g.order()
            if o is None or o >= N:
                continue
            low = {t: c for t, c in g.terms.items() if sum(t) < N}
            d = _integral(low)
            terms = sorted((sum(t), t, c) for t, c in low.items())
            # the monomials of degree < N - o, a prefix since the space
            # lists them by ascending degree; x^mono times g's lowest
            # part has degree below N, so no row is zero
            for mono in monomials[:_jet_span(N - o, len(table))]:
                room = N - sum(mono)
                row = {index[tuple(map(add, mono, t))]: c
                       for dt, t, c in terms if dt < room}
                _insert(row, {(gi, mono): d}, self.pivots)

    def witness(self, f: Poly):
        """Decide f in (generators) + m^N; on success return cofactors c_i
        with f = sum(c_i * g_i) modulo m^N (a unit-free congruence
        witness)."""
        row = self.space.vector(f)
        comb: dict = {}
        scale = _integral(row) * _eliminate(row, comb, self.pivots)
        if row:
            return False, None
        # the reduced row, zero, is scale * f plus the sum of comb[(i,
        # mono)] * x^mono * generators[i], modulo m^N
        cofactors: list[dict] = [{} for _ in self.generators]
        for (gi, mono), coeff in comb.items():
            cofactors[gi][mono] = _div(-coeff, scale)
        return True, tuple(Poly(f.table, c) for c in cofactors)

    def separator(self, f: Poly) -> Poly | None:
        """None when f lies in (generators) + m^N; otherwise a functional
        lam on R/m^N, as the Poly sum(lam(x^a) * x^a), that vanishes on
        (generators) + m^N and has lam(f) != 0.

        lam is 1 at c, the first column of f's reduced row, and 0 at every
        other non-pivot column; at a pivot column p it makes lam vanish on
        p's row.  A pivot row is nonzero at p and only at later columns
        besides, so back substitution fixes lam at the pivots before c,
        dividing by each pivot's entry, and the later ones get 0.  The
        pivot rows span (generators) + m^N, so lam(f) is the reduced
        row's entry at c divided by the factor the row was scaled by."""
        row = self.space.vector(f)
        _integral(row)
        _eliminate(row, {}, self.pivots)
        if not row:
            return None
        c = min(row)
        lam = {c: 1}
        for p in sorted((p for p in self.pivots if p < c), reverse=True):
            prow, _ = self.pivots[p]
            value = sum(v * lam.get(j, 0) for j, v in prow.items() if j != p)
            if value:
                lam[p] = _div(-value, prow[p])
        monomials = self.space.monomials
        return Poly(f.table, {monomials[j]: v for j, v in lam.items()})


def jet_member_witness(f: Poly, generators: Iterable[Poly], N: int):
    """JetEchelon(generators).witness(f) for a single element f."""
    return JetEchelon(generators, f.table, N).witness(f)


def jet_member(f: Poly, I, N: int) -> bool:
    """Truncated membership test of f in the groebner.Ideal I; exact
    linear algebra, no Groebner."""
    ok, _ = jet_member_witness(f, I.generators, N)
    return ok
