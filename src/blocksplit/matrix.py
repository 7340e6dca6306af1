"""Matrices over the polynomial ring: exact determinants, minor (Fitting)
ideals, and kernels.

Determinants, Fitting ideals and adjugates share one routine,
`ring.minor`: a Laplace expansion along the first row, memoized on (row
tuple, column tuple), so every sub-minor is computed once per memo and no
step divides.  The certificate layer re-checks determinants with the same
routine.  Kernels are syzygies of the
column family, read off a Groebner basis of a submodule of R^(m+n)
under a position-over-term order; the `groebner` engine that serves
ideals computes it, with positions encoded as extra variables.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from .ring import (InvariantError, Poly, RingError, TableMismatchError,
                   VarTable, elimination, minor, sum_of_products)
from .groebner import Ideal, _Gen, _buchberger


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

    def __mul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise RingError("matrix shape mismatch in product")
        # column j of the product is self applied to column j of other
        return PolyMatrix(self.table, zip(*map(self.apply,
                                               zip(*other.entries))))

    def scale(self, factor: Poly) -> "PolyMatrix":
        return PolyMatrix(
            self.table,
            [[factor * e for e in row] for row in self.entries],
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
        """Matrix-vector product, column given as a length-cols sequence;
        each entry is one `sum_of_products`."""
        if len(column) != self.cols:
            raise RingError("vector length mismatch")
        if any(p.table != self.table for p in column):
            raise TableMismatchError("vector over a different variable table")
        return tuple(sum_of_products(self.table, [(a, b, 1) for a, b in
                                                  zip(row, column)])
                     for row in self.entries)

    def __repr__(self) -> str:
        body = "; ".join(
            ", ".join(str(e) for e in row) for row in self.entries
        )
        return f"PolyMatrix[{body}]"


def det(M: PolyMatrix, memo: dict | None = None) -> Poly:
    """Exact determinant: the full minor of the memoized expansion.  A
    `memo` passed in keeps the sub-minors for later minors of M."""
    if M.rows != M.cols:
        raise RingError("determinant of a non-square matrix")
    full = tuple(range(M.rows))
    return minor(M.entries, {} if memo is None else memo, full, full)


def fitting_ideal(M: PolyMatrix, j: int, memo: dict | None = None) -> Ideal:
    """Ideal of all j x j minors; (1) for j <= 0 and (0) past the size.

    All minors share one memo (`memo` when given, as for `det`), so a
    sub-minor common to several j x j minors is computed once."""
    if j <= 0:
        return Ideal(M.table, (Poly.const(M.table, 1),))
    if j > min(M.rows, M.cols):
        return Ideal(M.table, (Poly.zero(M.table),))
    if memo is None:
        memo = {}
    gens = []
    seen = set()
    for rows in itertools.combinations(range(M.rows), j):
        for cols in itertools.combinations(range(M.cols), j):
            g = minor(M.entries, memo, rows, cols)
            if g.is_zero() or g.key() in seen:
                continue
            seen.add(g.key())
            gens.append(g)
    if not gens:
        return Ideal(M.table, (Poly.zero(M.table),))
    gens.sort(key=Poly.key)
    return Ideal(M.table, gens)


def adjugate(M: PolyMatrix, memo: dict | None = None) -> PolyMatrix:
    """adj(M): entry (i, j) is (-1)^(i+j) times the minor of M without row
    j and column i, so M * adj(M) = det(M) * I.  The minors come from
    `memo` when given (as for `det`)."""
    if M.rows != M.cols:
        raise RingError("adjugate of a non-square matrix")
    n = M.rows
    if n == 1:
        return PolyMatrix.identity(M.table, 1)
    memo = {} if memo is None else memo
    others = [tuple(k for k in range(n) if k != i) for i in range(n)]
    return PolyMatrix(M.table, [
        [minor(M.entries, memo, others[j], others[i]) * (-1) ** (i + j)
         for j in range(n)] for i in range(n)])


def kernel(M: PolyMatrix) -> tuple[tuple[Poly, ...], ...]:
    """Syzygies of the columns of M: a generating set of {v : M v = 0},
    each column checked exactly, sorted.

    Works in R^(m+n) on the graph generators (col_j, e_j), each vector
    written as a polynomial linear in m+n fresh position variables,
    appended after the ring's own.  Under the elimination order on those
    trailing variables (position over term, lower position first, grevlex
    inside a position) the first block ranks above the second, so the
    elements of the Groebner basis whose leading position lies in the
    second block are supported there and generate the kernel.
    """
    table = M.table
    m, n = M.rows, M.cols
    width = len(table)
    ext = table.extend(
        table.fresh_names(f"e{k}" for k in range(1, m + n + 1)))
    order = elimination(m + n)
    unit = [tuple(int(k == pos) for k in range(m + n))
            for pos in range(m + n)]
    inputs = []
    for j in range(n):
        terms = {(0,) * width + unit[m + j]: 1}
        for i in range(m):
            for mono, coeff in M.entries[i][j].terms.items():
                terms[mono + unit[i]] = coeff
        inputs.append(_Gen(Poly._trusted(ext, terms), order, None, j))

    columns = []
    seen = set()
    for g in _buchberger(inputs, order, positions=m + n):
        if g.lm.index(1, width) - width < m:
            continue
        parts: list[dict] = [{} for _ in range(m + n)]
        for mono, coeff in g.poly.terms.items():
            parts[mono.index(1, width) - width][mono[:width]] = coeff
        v = tuple(Poly._trusted(table, p) for p in parts[m:])
        residual = M.apply(v)
        if any(not p.is_zero() for p in residual):
            raise InvariantError("kernel generator failed exact re-check")
        key = tuple(p.key() for p in v)
        if key not in seen:
            seen.add(key)
            columns.append(v)
    columns.sort(key=lambda v: tuple(p.key() for p in v))
    return tuple(columns)
