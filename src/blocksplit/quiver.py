"""Quiver representations over the ring, the Kronecker block embedding,
and the decomposability checks built on it.

A representation assigns to each vertex a free module of finite rank and
to each arrow a matrix over the ring (target rank x source rank).  Its
Kronecker form is the square block matrix

    block(i, j) = x_i_j * A_ij + (y_i * identity  if i == j)

over the table extended by one x per ordered pair and one y per vertex,
where A_ij is the arrow j -> i, zero when there is none, and parallel
arrows j -> i merge into sum(x_k * A^(k)) with one fresh x_k each.
Decomposability of the representation is decided through the
Fitting-ideal criterion on that single square matrix, relative to a
supplied splitting det = f1 * f2.

The 2x2 conjugation check is a fast path, decided over R itself by the
discriminant tr(A)^2 - 4 det(A).  R lies in Q(x) and Q[x] is integrally
closed, so a matrix diagonal after conjugation over R has a discriminant
(l1 - l2)^2 that is a square in Q[x].  A discriminant that is not one
rules the splitting out, and a small integer point where its value is
not the square of a rational certifies that.  Every outcome goes through
the same checklist runner as the other checks.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from .ring import (
    Poly,
    RingError,
    VarTable,
    _sqrt_fraction,
    restrict_to_line,
    sqrt_exact,
    sum_of_products,
    y_profile,
)
from .certificate import (
    MAX_LINE_DEGREE,
    HypothesisCheck,
    Identity,
    NonSquare,
    Verdict,
)
from .groebner import Ideal
from .matrix import PolyMatrix, det
from .decompose import _decide, _local_inclusion, _split_by_factors


class Vertex:
    __slots__ = ("id", "rank")

    def __init__(self, vid: str, rank: int):
        if rank < 1:
            raise RingError(f"vertex {vid!r} needs positive rank")
        self.id = vid
        self.rank = rank

    def __repr__(self) -> str:
        return f"Vertex({self.id!r}, rank={self.rank})"


class Arrow:
    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: str, target: str, matrix: PolyMatrix):
        self.source = source
        self.target = target
        self.matrix = matrix

    def __repr__(self) -> str:
        return f"Arrow({self.source!r} -> {self.target!r})"


class QuiverRep:
    """Ordered vertices with ranks, arrows with shape-checked matrices.

    Parallel arrows between the same ordered pair, and pairs with no
    arrow, are allowed; `build_kronecker` merges or zero-fills them."""

    __slots__ = ("table", "vertices", "arrows")

    def __init__(self, table: VarTable, vertices: Iterable[Vertex],
                 arrows: Iterable[Arrow]):
        self.table = table
        self.vertices = tuple(vertices)
        self.arrows = tuple(arrows)
        if not self.vertices:
            raise RingError("quiver needs at least one vertex")
        rank = {}
        for v in self.vertices:
            if v.id in rank:
                raise RingError(f"duplicate vertex id {v.id!r}")
            rank[v.id] = v.rank
        for a in self.arrows:
            if a.source not in rank:
                raise RingError(f"arrow source {a.source!r} not a vertex")
            if a.target not in rank:
                raise RingError(f"arrow target {a.target!r} not a vertex")
            want = (rank[a.target], rank[a.source])
            if (a.matrix.rows, a.matrix.cols) != want:
                raise RingError(
                    f"arrow {a.source!r} -> {a.target!r} matrix must be "
                    f"{want[0]} x {want[1]}")
            if a.matrix.table != table:
                raise RingError("arrow matrix declared over a different VarTable")


def _combination(table: VarTable, terms) -> PolyMatrix:
    """sum(f * M) over the (f, M) pairs of `terms`, matrices of one shape
    over `table`; each entry is one `sum_of_products`."""
    shape = terms[0][1]
    return PolyMatrix(table, [[sum_of_products(table, [
        (f, M.entries[i][j], 1) for f, M in terms])
        for j in range(shape.cols)] for i in range(shape.rows)])


class KroneckerForm:
    """Square block matrix over the extended table, plus the bookkeeping
    needed to read it: block offsets/sizes per vertex, the fresh-variable
    roles, and the y names in vertex order."""

    __slots__ = ("matrix", "base_table", "offsets", "sizes", "var_roles",
                 "y_names")

    def __init__(self, matrix: PolyMatrix, base_table: VarTable,
                 offsets, sizes, var_roles, y_names):
        self.matrix = matrix
        self.base_table = base_table
        self.offsets = tuple(offsets)
        self.sizes = tuple(sizes)
        self.var_roles = dict(var_roles)
        self.y_names = tuple(y_names)

    @property
    def table(self) -> VarTable:
        return self.matrix.table


def build_kronecker(Q: QuiverRep) -> KroneckerForm:
    """Kronecker form of a quiver representation, built in one pass.

    Block (i, j) is x_i_j * A + (y_i * identity if i == j), where A is the
    arrow j -> i, zero when there is none.  Parallel arrows j -> i merge
    into A = sum(x_k * A^(k)), with merge variables x_1, x_2, ... numbered
    in block order and made fresh by `VarTable.fresh_names`.  The table
    lists the job's variables, the merge variables, the x_i_j, the y_i."""
    groups: dict[tuple[str, str], list[PolyMatrix]] = {}
    for a in Q.arrows:
        groups.setdefault((a.target, a.source), []).append(a.matrix)
    blocks = [(i, t, j, s, groups.get((t.id, s.id), []))
              for i, t in enumerate(Q.vertices)
              for j, s in enumerate(Q.vertices)]
    parallel = [f"parallel({t.id}, {s.id}, {n})"
                for _, t, _, s, bunch in blocks if len(bunch) > 1
                for n in range(1, len(bunch) + 1)]
    merge_names = Q.table.fresh_names(
        f"x_{k}" for k in range(1, len(parallel) + 1))
    pair_names = [f"x_{i + 1}_{j + 1}" for i, _, j, _, _ in blocks]
    y_names = [f"y_{i + 1}" for i in range(len(Q.vertices))]
    table = Q.table.extend(merge_names + pair_names + y_names)
    roles = dict(zip(merge_names, parallel))
    roles.update((name, f"pair({t.id}, {s.id})")
                 for name, (_, t, _, s, _) in zip(pair_names, blocks))
    roles.update((name, f"vertex({v.id})")
                 for name, v in zip(y_names, Q.vertices))
    sizes = [v.rank for v in Q.vertices]
    offsets = [0, *itertools.accumulate(sizes)][:-1]
    grid = [[Poly.zero(table)] * sum(sizes) for _ in range(sum(sizes))]
    merge = iter(merge_names)
    for name, (i, t, j, s, bunch) in zip(pair_names, blocks):
        if len(bunch) > 1:
            bunch = [_combination(table, [(Poly.var(table, next(merge)),
                                           A.lift(table)) for A in bunch])]
        terms = [(Poly.var(table, name), A.lift(table)) for A in bunch]
        if i == j:
            terms.append((Poly.var(table, y_names[i]),
                          PolyMatrix.identity(table, t.rank)))
        if terms:
            for r, row in enumerate(_combination(table, terms).entries):
                grid[offsets[i] + r][offsets[j]:offsets[j] + s.rank] = row
    return KroneckerForm(PolyMatrix(table, grid), Q.table, offsets, sizes,
                         roles, y_names)


def conj_pencil(mats: list[PolyMatrix]) -> KroneckerForm:
    """One-vertex pencil sum(x_i * A_i) + y * identity for the
    simultaneous-conjugation problem."""
    if not mats:
        raise RingError("conjugation pencil needs at least one matrix")
    size = mats[0].rows
    base = mats[0].table
    for A in mats:
        if A.rows != A.cols or A.rows != size:
            raise RingError("conjugation pencil needs equal square matrices")
        if A.table != base:
            raise RingError("matrices declared over different VarTables")
    x_names = [f"x_{k + 1}" for k in range(len(mats))]
    table = base.extend(x_names + ["y"])
    acc = _combination(table, [
        (Poly.var(table, "y"), PolyMatrix.identity(table, size)),
        *((Poly.var(table, name), A.lift(table))
          for name, A in zip(x_names, mats))])
    roles = {name: f"loop({k + 1})" for k, name in enumerate(x_names)}
    roles["y"] = "vertex(1)"
    return KroneckerForm(acc, base, (0,), (size,), roles, ("y",))


_QUIVER_SCOPE = (
    "relative to the split (f1, f2) of the Kronecker-form determinant: "
    "NotDecomposable rules out exactly the vertex-wise splittings with "
    "det = f1 * f2"
)


def check_quiver(form: KroneckerForm, f1: Poly, f2: Poly,
                 jet_order: int | None = None) -> Verdict:
    """Decomposability of a representation, given as its Kronecker form
    (see build_kronecker), relative to the supplied splitting of det of
    that form.

    The pure-y monomial bound is the strict one (0 < l_i < m_i for every
    vertex), which is recorded in the hypothesis detail."""
    if f1.table != form.table or f2.table != form.table:
        raise RingError("factors must live over the Kronecker-extended table")

    def no_bounded_profile(f: Poly) -> bool:
        return not any(all(0 < l < m for l, m in zip(profile, form.sizes))
                       for profile in y_profile(f, form.y_names))

    y_check = HypothesisCheck.per_factor(
        "y-profile", "each factor contains a pure-y monomial with "
        "0 < l_i < m_i at every vertex (strict bound)",
        (("f1", f1), ("f2", f2)),
        ((no_bounded_profile, "has no pure-y monomial with 0 < l_i < m_i "
          "at every vertex (strict bound)"),))
    return _split_by_factors(form.matrix, f1, f2, "det of the Kronecker form",
                             y_check, _QUIVER_SCOPE, jet_order)


_CONJ_SCOPE = ("diagonalizability of a 2x2 matrix under conjugation; the "
               "verdict is absolute (not relative to a factor pair)")


# How many integer points `_nonsquare` tries before the non-square verdict
# goes without a point certificate.
NONSQUARE_POINTS = 64


def _small_points(width: int) -> Iterator[tuple[int, ...]]:
    """The first `NONSQUARE_POINTS` integer points of `width` coordinates
    by increasing largest absolute value r, each shell of the box
    [-r, r]^width in product order, built one at a time."""
    shells = ((q for q in itertools.product(range(-r, r + 1), repeat=width)
               if max(map(abs, q), default=0) == r)
              for r in range(NONSQUARE_POINTS))
    return itertools.islice(itertools.chain.from_iterable(shells),
                            NONSQUARE_POINTS)


def _nonsquare(f: Poly) -> list[NonSquare]:
    """A NonSquare for f at the first of `_small_points` where f is
    negative or not the square of a rational, as a list of one; empty when
    there is none or when f's degree passes MAX_LINE_DEGREE."""
    if f.degree() > MAX_LINE_DEGREE:
        return []
    zero = (0,) * len(f.table)
    for point in _small_points(len(f.table)):
        value = restrict_to_line(f, point, zero).constant_term()
        if _sqrt_fraction(value) is None:
            return [NonSquare(f, point, value)]
    return []


def check_conj_2x2(A: PolyMatrix) -> Verdict:
    """Conjugation-diagonalizability of a 2x2 matrix over the local ring.

    Under a nonzero discriminant tr^2 - 4 det, Decomposable iff the
    discriminant is a polynomial square r^2 and a12, a21, a11 - a22 all
    lie in (r) locally.  A discriminant with no polynomial square root is
    the failing element of a NotDecomposable verdict, certified by a
    point where it is not a rational square when `_nonsquare` finds one."""
    if A.rows != 2 or A.cols != 2:
        raise RingError("conjugation check needs a 2x2 matrix")
    tr = A.trace()
    disc = tr * tr - det(A) * 4
    nondegenerate = HypothesisCheck(
        "nondegenerate-discriminant", not disc.is_zero(),
        "tr(A)^2 - 4 det(A) is nonzero")
    root = sqrt_exact(disc) if nondegenerate.passed else None
    square = [] if root is None else [
        Identity("discriminant-square", disc, (root, root))]

    def decisive():
        if root is None:
            return disc, _nonsquare(disc)
        return _local_inclusion((A[0, 1], A[1, 0], A[0, 0] - A[1, 1]),
                                Ideal(A.table, (root,)))

    return _decide([(nondegenerate, square)], decisive, _CONJ_SCOPE, None)
