"""Brute-force membership modulo m^N by exact linear algebra.

Ideal membership modulo m^N is a finite-dimensional linear-algebra
question: f lies in I + m^N iff the truncation of f is a rational linear
combination of truncated monomial multiples of the generators.  The row
reduction here is exact (rational pivots, no tolerances) and uses no
Groebner basis.

A jet answer that f lies in I + m^N is one-sided evidence: it means
"consistent with local membership up to degree N", never a proof of
membership.  The other answer is a proof: when f is not in I + m^N, the
echelon yields a functional on R/m^N that vanishes on I + m^N and not on
f, so f is not in I at the origin either (`groebner.member_local` uses it
to answer no before any colon).
"""

from __future__ import annotations

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

    def separator(self, f: Poly) -> Poly | None:
        """None when f lies in (generators) + m^N; otherwise a functional
        lam on R/m^N, as the Poly sum(lam(x^a) * x^a), that vanishes on
        (generators) + m^N and has lam(f) != 0.

        lam is 1 at c, the first column of f's reduced row, and 0 at every
        other non-pivot column; at a pivot column p it makes lam vanish on
        p's row.  A pivot row is 1 at p and nonzero only at later columns,
        so back substitution fixes lam at the pivots before c, and the
        later ones get 0.  The pivot rows span (generators) + m^N, so
        lam(f) is the reduced row's entry at c."""
        row, _ = _eliminate(self.space.vector(f), {}, self.pivots)
        if not row:
            return None
        c = min(row)
        lam = {c: 1}
        for p in sorted((p for p in self.pivots if p < c), reverse=True):
            prow, _ = self.pivots[p]
            value = -sum(v * lam.get(j, 0) for j, v in prow.items() if j != p)
            if value:
                lam[p] = value
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

