"""Quiver representations over the ring: completion/reduction, the
Kronecker block embedding, and the decomposability checks built on it.

A representation assigns to each vertex a free module of finite rank and
to each arrow a matrix over the ring (target rank x source rank).  After
complete_reduce every ordered vertex pair carries exactly one arrow; the
Kronecker form then is the square block matrix

    block(i, j) = x_i_j * A_ij + (y_i * identity  if i == j)

over the table extended by one fresh x per ordered pair and one fresh y
per vertex.  Decomposability of the representation is decided through
the Fitting-ideal criterion on that single square matrix, relative to a
supplied splitting det = f1 * f2.

The 2x2 conjugation check is a fast path: it classifies the
discriminant tr(A)^2 - 4 det(A) (polynomial square / square only after
extending coefficients / square only as a power series / provably no
square root at all) and only claims a verdict in the provable cases.  A
polynomial square decides through the same checklist runner as the
other checks.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable

from .ring import (
    Poly,
    RingError,
    SeriesSqrtError,
    VarTable,
    local_unit_test,
    sqrt_exact,
    sqrt_series,
    sum_of_products,
    y_profile,
)
from .certificate import (
    INCONCLUSIVE,
    NOT_DECOMPOSABLE,
    HypothesisCheck,
    Identity,
    Verdict,
)
from .groebner import Ideal
from .matrix import PolyMatrix, det
from .decompose import _decide, _split_by_factors


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

    Parallel arrows between the same ordered pair are allowed; they
    disappear after complete_reduce."""

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

    def is_complete_reduced(self) -> bool:
        seen = set()
        for a in self.arrows:
            key = (a.target, a.source)
            if key in seen:
                return False
            seen.add(key)
        return len(seen) == len(self.vertices) ** 2


def complete_reduce(Q: QuiverRep) -> QuiverRep:
    """One arrow per ordered vertex pair: missing arrows become zero
    matrices, parallel tuples merge into sum(x_k * A^(k)) with fresh
    variables x_1, x_2, ... (`VarTable.fresh_names`) appended to the
    table.  Idempotent."""
    groups: dict[tuple[str, str], list[PolyMatrix]] = {}
    for a in Q.arrows:
        groups.setdefault((a.target, a.source), []).append(a.matrix)
    count = sum(len(bunch) for bunch in groups.values() if len(bunch) > 1)
    merge_names = Q.table.fresh_names(f"x_{k}" for k in range(1, count + 1))
    if not merge_names and Q.is_complete_reduced():
        return Q
    table = Q.table.extend(merge_names) if merge_names else Q.table
    arrows = []
    pos = 0
    for t in Q.vertices:
        for s in Q.vertices:
            bunch = groups.get((t.id, s.id), [])
            if not bunch:
                merged = PolyMatrix.zeros(table, t.rank, s.rank)
            elif len(bunch) == 1:
                merged = bunch[0].lift(table)
            else:
                merged = _combination(table, [
                    (Poly.var(table, name), mat.lift(table))
                    for name, mat in zip(merge_names[pos:], bunch)])
                pos += len(bunch)
            arrows.append(Arrow(s.id, t.id, merged))
    return QuiverRep(table, Q.vertices, arrows)


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
    """Kronecker embedding of a complete reduced quiver representation."""
    if not Q.is_complete_reduced():
        raise RingError("build_kronecker needs a complete reduced quiver")
    K = len(Q.vertices)
    pair_names = [
        f"x_{i + 1}_{j + 1}" for i in range(K) for j in range(K)
    ]
    y_names = [f"y_{i + 1}" for i in range(K)]
    table = Q.table.extend(pair_names + y_names)
    roles = {}
    for i in range(K):
        for j in range(K):
            roles[f"x_{i + 1}_{j + 1}"] = f"pair({Q.vertices[i].id}, {Q.vertices[j].id})"
        roles[f"y_{i + 1}"] = f"vertex({Q.vertices[i].id})"
    index = {v.id: i for i, v in enumerate(Q.vertices)}
    sizes = [v.rank for v in Q.vertices]
    offsets = [0, *itertools.accumulate(sizes)][:-1]
    total = sum(sizes)
    grid = [[None] * total for _ in range(total)]
    for a in Q.arrows:
        i, j = index[a.target], index[a.source]
        x = Poly.var(table, f"x_{i + 1}_{j + 1}")
        terms = [(x, a.matrix.lift(table))]
        if i == j:
            terms.append((Poly.var(table, y_names[i]),
                          PolyMatrix.identity(table, sizes[i])))
        for r, row in enumerate(_combination(table, terms).entries):
            grid[offsets[i] + r][offsets[j]:offsets[j] + sizes[j]] = row
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
    """Decomposability of a complete reduced representation, given as its
    Kronecker form (see build_kronecker), relative to the supplied
    splitting of det of that form.

    The pure-y monomial bound is the strict one (0 < l_i < m_i for every
    vertex), which is recorded in the hypothesis detail."""
    if f1.table != form.table or f2.table != form.table:
        raise RingError("factors must live over the Kronecker-extended table")
    ok = True
    detail = ("each factor contains a pure-y monomial with 0 < l_i < m_i "
              "at every vertex (strict bound)")
    for label, f in (("f1", f1), ("f2", f2)):
        profiles = y_profile(f, form.y_names)
        good = any(
            all(0 < l < m for l, m in zip(profile, form.sizes))
            for profile in profiles
        )
        if not good:
            ok = False
            detail = (f"{label} has no pure-y monomial with 0 < l_i < m_i "
                      f"at every vertex (strict bound)")
            break
    y_check = HypothesisCheck("y-profile", ok, detail)
    return _split_by_factors(form.matrix, f1, f2, "det of the Kronecker form",
                             y_check, _QUIVER_SCOPE, jet_order)


_CONJ_SCOPE = ("diagonalizability of a 2x2 matrix under conjugation; the "
               "verdict is absolute (not relative to a factor pair)")


def check_conj_2x2(A: PolyMatrix, probe_order: int = 8) -> Verdict:
    """Conjugation-diagonalizability of a 2x2 matrix over the local ring.

    Decomposable iff the discriminant tr^2 - 4 det is a polynomial square
    and a12, a21, a11 - a22 all lie in (sqrt) locally.  When the
    discriminant only becomes a square after extending the coefficient
    field, or only as a power series, the verdict is Inconclusive with
    that reason; when it provably has no square root in any of those
    senses, NotDecomposable."""
    if A.rows != 2 or A.cols != 2:
        raise RingError("conjugation check needs a 2x2 matrix")
    tr = A.trace()
    disc = tr * tr - det(A) * 4
    nondegenerate = HypothesisCheck(
        "nondegenerate-discriminant", not disc.is_zero(),
        "tr(A)^2 - 4 det(A) is nonzero")
    root = sqrt_exact(disc) if nondegenerate.passed else None
    if root is not None or not nondegenerate.passed:
        square = [] if root is None else [
            Identity("discriminant-square", disc, (root, root))]
        return _decide(
            [(nondegenerate, square, [])],
            lambda: ((A[0, 1], A[1, 0], A[0, 0] - A[1, 1]),
                     Ideal(A.table, (root,))),
            _CONJ_SCOPE, None)

    # No polynomial square root; classify how badly that fails.
    low = disc.lowest_form()
    lead = low.leading()[1]
    unit_scaled = disc * (Fraction(1) / lead)
    reason = None
    if disc.order() % 2 == 1:
        reason = "the lowest-degree part has odd degree"
    elif sqrt_exact(low * (Fraction(1) / lead)) is None:
        reason = "the lowest-degree form is not a square even up to a constant"
    elif not local_unit_test(disc):
        # the root of a unit divides by a constant at every step, so only
        # a discriminant vanishing at the origin can meet an obstruction
        try:
            sqrt_series(unit_scaled, probe_order)
        except SeriesSqrtError:
            reason = "the forced power-series root hits a division obstruction"
    if reason is not None:
        established = HypothesisCheck(
            "discriminant-nonsquare-established", True,
            f"no square root exists over any coefficient extension or "
            f"power-series completion: {reason}")
        return Verdict(NOT_DECOMPOSABLE, [nondegenerate, established], [], [],
                       _CONJ_SCOPE, failing=disc)
    if sqrt_exact(unit_scaled) is not None:
        name = "square-root-needs-coefficient-extension"
    else:
        name = "square-root-only-as-power-series"
    open_root = HypothesisCheck(
        name, False,
        "the discriminant has no square root in the polynomial ring, but "
        "one cannot be ruled out after extension/completion")
    return Verdict(INCONCLUSIVE, [nondegenerate, open_root], [], [],
                   _CONJ_SCOPE, failed_hypothesis=name)
