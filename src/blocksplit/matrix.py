"""Matrices over the polynomial ring: exact determinants, minor (Fitting)
ideals, and kernel bases.

Determinants and Fitting ideals share one routine: a Laplace expansion
along the first row, memoized on (row tuple, column tuple), so every
sub-minor is computed once per call and no step divides.  The entries are
sparse polynomials, where expansion by minors beats elimination
(Gentleman & Johnson, ACM TOMS 2(3), 1976).  Kernels are syzygies of the
column family, found by a module Groebner basis under a
position-over-term order that eliminates the target block.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Sequence

from .ring import (
    GREVLEX,
    InvariantError,
    Poly,
    RingError,
    VarTable,
    _mono_div,
    _mono_divides,
    _mono_lcm,
)
from .groebner import Ideal


class PolyMatrix:
    """Immutable rectangular grid of Poly over a single VarTable."""

    __slots__ = ("table", "rows", "cols", "entries")

    def __init__(self, table: VarTable, entries: Iterable[Iterable[Poly]]):
        grid = tuple(tuple(row) for row in entries)
        if not grid or not grid[0]:
            raise RingError("matrix needs at least one row and one column")
        width = len(grid[0])
        for row in grid:
            if len(row) != width:
                raise RingError("ragged matrix rows")
            for entry in row:
                if entry.table != table:
                    raise RingError("entry declared over a different VarTable")
        self.table = table
        self.rows = len(grid)
        self.cols = width
        self.entries = grid

    @staticmethod
    def identity(table: VarTable, n: int) -> "PolyMatrix":
        one = Poly.const(table, 1)
        zero = Poly.zero(table)
        return PolyMatrix(
            table,
            [[one if i == j else zero for j in range(n)] for i in range(n)],
        )

    @staticmethod
    def zeros(table: VarTable, m: int, n: int) -> "PolyMatrix":
        zero = Poly.zero(table)
        return PolyMatrix(table, [[zero] * n for _ in range(m)])

    def __getitem__(self, ij: tuple[int, int]) -> Poly:
        i, j = ij
        return self.entries[i][j]

    def col(self, j: int) -> tuple[Poly, ...]:
        return tuple(row[j] for row in self.entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyMatrix)
            and self.table == other.table
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash(tuple(tuple(e.key() for e in row) for row in self.entries))

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise RingError("matrix shape mismatch in addition")
        return PolyMatrix(
            self.table,
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
        )

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self + other.scale(Poly.const(other.table, -1))

    def __mul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise RingError("matrix shape mismatch in product")
        rows = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = Poly.zero(self.table)
                for k in range(self.cols):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            rows.append(row)
        return PolyMatrix(self.table, rows)

    def scale(self, factor: Poly) -> "PolyMatrix":
        return PolyMatrix(
            self.table,
            [[factor * e for e in row] for row in self.entries],
        )

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix(
            self.table,
            [
                [self.entries[i][j] for i in range(self.rows)]
                for j in range(self.cols)
            ],
        )

    def lift(self, target: VarTable) -> "PolyMatrix":
        return PolyMatrix(
            target,
            [[e.lift(target) for e in row] for row in self.entries],
        )

    def trace(self) -> Poly:
        if self.rows != self.cols:
            raise RingError("trace of a non-square matrix")
        acc = Poly.zero(self.table)
        for i in range(self.rows):
            acc = acc + self.entries[i][i]
        return acc

    def apply(self, column: Sequence[Poly]) -> tuple[Poly, ...]:
        """Matrix-vector product, column given as a length-cols sequence."""
        if len(column) != self.cols:
            raise RingError("vector length mismatch")
        out = []
        for i in range(self.rows):
            acc = Poly.zero(self.table)
            for j in range(self.cols):
                acc = acc + self.entries[i][j] * column[j]
            out.append(acc)
        return tuple(out)

    def __repr__(self) -> str:
        body = "; ".join(
            ", ".join(str(e) for e in row) for row in self.entries
        )
        return f"PolyMatrix[{body}]"


def _minor(M: PolyMatrix, memo: dict, rows: tuple, cols: tuple) -> Poly:
    """Determinant of the submatrix of M on increasing index tuples of
    equal length, memoized in `memo` under (rows, cols).

    Laplace expansion along the first row of the row set: the sub-minors
    it needs sit on the row suffix, so every larger minor that shares
    them reads them from the memo.  Zero entries and zero sub-minors
    contribute no product.  The memo is a plain argument, not a closure
    over a recursive function, so it is freed when the caller drops it
    rather than at the next cyclic garbage collection.
    """
    if len(rows) == 1:
        return M.entries[rows[0]][cols[0]]
    value = memo.get((rows, cols))
    if value is None:
        top, rest = M.entries[rows[0]], rows[1:]
        value = Poly.zero(M.table)
        for k, c in enumerate(cols):
            if top[c].is_zero():
                continue
            sub = _minor(M, memo, rest, cols[:k] + cols[k + 1:])
            if sub.is_zero():
                continue
            term = top[c] * sub
            value = value - term if k % 2 else value + term
        memo[(rows, cols)] = value
    return value


def det(M: PolyMatrix) -> Poly:
    """Exact determinant: the full minor of the memoized expansion."""
    if M.rows != M.cols:
        raise RingError("determinant of a non-square matrix")
    full = tuple(range(M.rows))
    return _minor(M, {}, full, full)


def fitting_ideal(M: PolyMatrix, j: int) -> Ideal:
    """Ideal of all j x j minors; (1) for j <= 0 and (0) past the size.

    All minors share one memo, so a sub-minor common to several j x j
    minors is computed once."""
    if j <= 0:
        return Ideal(M.table, (Poly.const(M.table, 1),))
    if j > min(M.rows, M.cols):
        return Ideal(M.table, (Poly.zero(M.table),))
    memo: dict = {}
    gens = []
    seen = set()
    for rows in itertools.combinations(range(M.rows), j):
        for cols in itertools.combinations(range(M.cols), j):
            g = _minor(M, memo, rows, cols)
            if g.is_zero() or g.key() in seen:
                continue
            seen.add(g.key())
            gens.append(g)
    if not gens:
        return Ideal(M.table, (Poly.zero(M.table),))
    gens.sort(key=Poly.key)
    return Ideal(M.table, gens)


class KernelBasis:
    """Generating set for {v : M v = 0}, each column checked exactly."""

    __slots__ = ("columns",)

    def __init__(self, columns: Iterable[Sequence[Poly]]):
        self.columns = tuple(tuple(c) for c in columns)

    def __iter__(self):
        return iter(self.columns)

    def __len__(self) -> int:
        return len(self.columns)

    def __repr__(self) -> str:
        return f"KernelBasis({[tuple(str(p) for p in col) for col in self.columns]})"


class _Vec:
    """Module element: tuple of Poly with a cached leading (position, mono)."""

    __slots__ = ("parts", "pos", "lm", "lc")

    def __init__(self, parts: tuple[Poly, ...], keyfn):
        self.parts = parts
        best = None
        for pos, p in enumerate(parts):
            if p.is_zero():
                continue
            mono, coeff = p.leading(GREVLEX)
            cand = keyfn(pos, mono)
            if best is None or cand > best[0]:
                best = (cand, pos, mono, coeff)
        if best is None:
            self.pos, self.lm, self.lc = -1, None, None
        else:
            _, self.pos, self.lm, self.lc = best

    def is_zero(self) -> bool:
        return self.pos < 0


def _module_reduce(vec: _Vec, basis: list[_Vec], keyfn, table: VarTable) -> _Vec:
    parts = vec.parts
    current = vec
    while not current.is_zero():
        hit = None
        for g in basis:
            if g.pos == current.pos and _mono_divides(g.lm, current.lm):
                hit = g
                break
        if hit is None:
            break
        t = Poly(table, {_mono_div(current.lm, hit.lm): current.lc / hit.lc})
        parts = tuple(a - t * b for a, b in zip(current.parts, hit.parts))
        current = _Vec(parts, keyfn)
    return current


def kernel(M: PolyMatrix) -> KernelBasis:
    """Syzygies of the columns of M.

    Works in R^(m+n) on the graph generators (col_j, e_j): a module
    Groebner basis under an order that ranks the first block above the
    second makes the elements supported purely in the second block a
    generating set of the kernel.
    """
    table = M.table
    m, n = M.rows, M.cols
    zero = Poly.zero(table)

    def keyfn(pos: int, mono):
        block = 1 if pos < m else 0
        return (block, -pos, GREVLEX.key(mono))

    gens = []
    for j in range(n):
        parts = list(M.col(j)) + [zero] * n
        parts[m + j] = Poly.const(table, 1)
        gens.append(_Vec(tuple(parts), keyfn))

    basis: list[_Vec] = []
    pairs: list[tuple[int, int]] = []

    def queue_pairs(k: int) -> None:
        for t in range(k):
            if basis[k].pos == basis[t].pos:
                pairs.append((k, t))

    for g in gens:
        r = _module_reduce(g, basis, keyfn, table)
        if not r.is_zero():
            basis.append(r)
            queue_pairs(len(basis) - 1)
    while pairs:
        pair = min(
            pairs,
            key=lambda ij: (
                GREVLEX.key(_mono_lcm(basis[ij[0]].lm, basis[ij[1]].lm)),
                ij,
            ),
        )
        pairs.remove(pair)
        i, j = pair
        a, b = basis[i], basis[j]
        lcm = _mono_lcm(a.lm, b.lm)
        ta = Poly(table, {_mono_div(lcm, a.lm): Fraction(1) / a.lc})
        tb = Poly(table, {_mono_div(lcm, b.lm): Fraction(1) / b.lc})
        parts = tuple(ta * x - tb * y for x, y in zip(a.parts, b.parts))
        r = _module_reduce(_Vec(parts, keyfn), basis, keyfn, table)
        if r.is_zero():
            continue
        basis.append(r)
        queue_pairs(len(basis) - 1)

    columns = []
    seen = set()
    for g in basis:
        if g.pos < m:
            continue
        v = g.parts[m:]
        residual = M.apply(v)
        if any(not p.is_zero() for p in residual):
            raise InvariantError("kernel generator failed exact re-check")
        scale = Fraction(1) / g.lc
        v = tuple(scale * p for p in v)
        key = tuple(p.key() for p in v)
        if key not in seen:
            seen.add(key)
            columns.append(v)
    columns.sort(key=lambda v: tuple(p.key() for p in v))
    return KernelBasis(columns)
