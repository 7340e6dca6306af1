"""Quivers, the Kronecker embedding, and the section-3 checks."""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from blocksplit.certificate import Inclusion, NonSquare
from blocksplit.decompose import DECOMPOSABLE, INCONCLUSIVE, NOT_DECOMPOSABLE
from blocksplit.matrix import PolyMatrix, det
from blocksplit.quiver import (
    Arrow,
    QuiverRep,
    Vertex,
    _small_points,
    build_kronecker,
    check_conj_2x2,
    check_quiver,
    conj_pencil,
)
from blocksplit.ring import Poly, RingError, VarTable, parse_poly, sqrt_exact

from support import random_unimodular

EMPTY = VarTable(())
XY = VarTable(("x", "y"))
X12 = VarTable(("x1", "x2"))


def M(rows, table):
    return PolyMatrix(table, tuple(
        tuple(parse_poly(e, table) for e in row) for row in rows))


def int_matrix(rng, table, n):
    return PolyMatrix(table, tuple(
        tuple(Poly.const(table, rng.randrange(-4, 5)) for _ in range(n))
        for _ in range(n)))


def drop_vars(f, names):
    """Keep only the monomials with zero exponent on every listed name."""
    idx = [f.table.index(n) for n in names]
    kept = {m: c for m, c in f.terms.items() if all(m[i] == 0 for i in idx)}
    return Poly(f.table, kept)


def inverse_unimodular_2x2(U):
    a, b = U[0, 0], U[0, 1]
    c, d = U[1, 0], U[1, 1]
    # det(U) = 1, so the adjugate is the inverse
    return PolyMatrix(U.table, ((d, -b), (-c, a)))


def string_quiver(A_rows, B_rows, table=EMPTY):
    return QuiverRep(table, [Vertex("1", 2), Vertex("2", 2)],
                     [Arrow("1", "2", M(A_rows, table)),
                      Arrow("2", "1", M(B_rows, table))])


def star_quiver(C_rows, table=EMPTY):
    """Central vertex of rank 2 with a loop C; two rank-1 satellites."""
    return QuiverRep(table, [Vertex("0", 2), Vertex("1", 1), Vertex("2", 1)],
                     [Arrow("0", "0", M(C_rows, table)),
                      Arrow("1", "0", M([["1"], ["0"]], table)),
                      Arrow("2", "0", M([["0"], ["1"]], table))])


def test_build_kronecker_fills_zeros():
    # no arrow 2 -> 1 and no loops: block (1, 2) is zero, and the diagonal
    # blocks carry y_i alone
    Q = QuiverRep(EMPTY, [Vertex("1", 1), Vertex("2", 1)],
                  [Arrow("1", "2", M([["1"]], EMPTY))])
    form = build_kronecker(Q)
    t = form.table
    assert t.names == ("x_1_1", "x_1_2", "x_2_1", "x_2_2", "y_1", "y_2")
    assert form.matrix == M([["y_1", "0"], ["x_2_1", "y_2"]], t)


def test_build_kronecker_merges_parallel():
    A1 = M([["1", "0"], ["0", "0"]], EMPTY)
    A2 = M([["0", "0"], ["0", "1"]], EMPTY)
    form = build_kronecker(QuiverRep(EMPTY, [Vertex("1", 2)],
                                     [Arrow("1", "1", A1),
                                      Arrow("1", "1", A2)]))
    t = form.table
    assert t.names == ("x_1", "x_2", "x_1_1", "y_1")
    assert form.matrix == M([["x_1*x_1_1 + y_1", "0"],
                             ["0", "x_2*x_1_1 + y_1"]], t)
    assert form.base_table == EMPTY
    assert (form.var_roles["x_1"], form.var_roles["x_2"]) == \
        ("parallel(1, 1, 1)", "parallel(1, 1, 2)")

    # a declared x_1 is not reused: the first merge variable is x_10
    T = VarTable(("x_1",))
    form = build_kronecker(QuiverRep(T, [Vertex("1", 1)],
                                     [Arrow("1", "1", M([["x_1"]], T)),
                                      Arrow("1", "1", M([["1"]], T))]))
    t = form.table
    assert t.names == ("x_1", "x_10", "x_2", "x_1_1", "y_1")
    assert form.matrix == M([["x_1*x_10*x_1_1 + x_2*x_1_1 + y_1"]], t)
    assert form.base_table == T
    assert form.var_roles["x_10"] == "parallel(1, 1, 1)"
    assert "x_1" not in form.var_roles


def test_build_kronecker_one_loop():
    A = M([["x1", "x2"], ["0", "x1"]], X12)
    Q = QuiverRep(X12, [Vertex("1", 2)], [Arrow("1", "1", A)])
    form = build_kronecker(Q)
    t = form.table
    x, y = parse_poly("x_1_1", t), parse_poly("y_1", t)
    expected = A.lift(t).scale(x) + PolyMatrix.identity(t, 2).scale(y)
    assert form.matrix == expected
    assert form.var_roles["x_1_1"] == "pair(1, 1)"
    assert form.var_roles["y_1"] == "vertex(1)"


def test_build_kronecker_string_layout():
    A = [["1", "2"], ["3", "4"]]
    B = [["5", "6"], ["7", "8"]]
    form = build_kronecker(string_quiver(A, B))
    t = form.table
    grid = form.matrix
    # block (i, j) scales the arrow j -> i: [[y1*1, x12*B], [x21*A, y2*1]]
    assert grid[0, 0] == parse_poly("y_1", t)
    assert grid[0, 2] == parse_poly("5*x_1_2", t)
    assert grid[0, 3] == parse_poly("6*x_1_2", t)
    assert grid[2, 0] == parse_poly("x_2_1", t)
    assert grid[2, 1] == parse_poly("2*x_2_1", t)
    assert grid[2, 2] == parse_poly("y_2", t)
    assert form.sizes == (2, 2)
    assert form.offsets == (0, 2)


def test_kronecker_linear_in_fresh_vars():
    rng = random.Random(89)
    for _ in range(5):
        Q = string_quiver(
            [[str(rng.randrange(-3, 4)) for _ in range(2)] for _ in range(2)],
            [[str(rng.randrange(-3, 4)) for _ in range(2)] for _ in range(2)])
        form = build_kronecker(Q)
        t = form.table
        fresh = range(len(form.base_table), len(t))
        for i in range(form.matrix.rows):
            for j in range(form.matrix.cols):
                for mono in form.matrix[i, j].terms:
                    assert sum(mono[k] for k in fresh) == 1


def test_kronecker_det_at_x_zero():
    rng = random.Random(97)
    for _ in range(5):
        Q = star_quiver(
            [[str(rng.randrange(-3, 4)) for _ in range(2)] for _ in range(2)])
        form = build_kronecker(Q)
        t = form.table
        d = det(form.matrix)
        xnames = [n for n in t.names if n.startswith("x_")]
        specialized = drop_vars(d, xnames)
        expected = parse_poly("y_1^2*y_2*y_3", t)
        assert specialized == expected


def test_star_det_factorization():
    C = [["1", "2"], ["-1", "1"]]
    form = build_kronecker(star_quiver(C))
    t = form.table
    x00 = parse_poly("x_1_1", t)
    y0 = parse_poly("y_1", t)
    center = M(C, EMPTY).lift(t).scale(x00) + \
        PolyMatrix.identity(t, 2).scale(y0)
    assert det(form.matrix) == det(center) * parse_poly("y_2*y_3", t)


def test_check_quiver_string_decomposable():
    # A·B has zero trace and det -1: the determinant splits rationally
    Q = string_quiver([["0", "1"], ["1", "0"]],
                      [["1", "0"], ["0", "1"]])
    form = build_kronecker(Q)
    t = form.table
    f1 = parse_poly("y_1*y_2 - x_1_2*x_2_1", t)
    f2 = parse_poly("y_1*y_2 + x_1_2*x_2_1", t)
    v = check_quiver(form, f1, f2)
    assert v.status == DECOMPOSABLE
    assert v.verify()


def test_check_quiver_direct_sum():
    # direct sum of two rank-(1,1) string representations
    Q = string_quiver([["1", "0"], ["0", "2"]],
                      [["1", "0"], ["0", "1"]])
    form = build_kronecker(Q)
    t = form.table
    f1 = parse_poly("y_1*y_2 - x_1_2*x_2_1", t)
    f2 = parse_poly("y_1*y_2 - 2*x_1_2*x_2_1", t)
    assert det(form.matrix) == f1 * f2
    v = check_quiver(form, f1, f2)
    assert v.status == DECOMPOSABLE and v.verify()


def test_check_quiver_star_inconclusive():
    Q = star_quiver([["0", "1"], ["1", "0"]])
    form = build_kronecker(Q)
    t = form.table
    # det = (y_1^2 - x_1_1^2) * y_2 * y_3; try the natural splits
    splits = [
        ("(y_1^2 - x_1_1^2)*y_2", "y_3"),
        ("y_1^2 - x_1_1^2", "y_2*y_3"),
        ("(y_1 - x_1_1)*y_2", "(y_1 + x_1_1)*y_3"),
    ]
    for a, b in splits:
        v = check_quiver(form, parse_poly(a, t), parse_poly(b, t))
        assert v.status == INCONCLUSIVE
        assert v.failed_hypothesis == "y-profile"
        assert v.verify()


def test_check_quiver_det_mismatch_is_inconclusive():
    Q = string_quiver([["0", "1"], ["1", "0"]],
                      [["1", "0"], ["0", "1"]])
    form = build_kronecker(Q)
    t = form.table
    v = check_quiver(form, parse_poly("y_1", t), parse_poly("y_2", t))
    assert v.status == INCONCLUSIVE
    assert v.failed_hypothesis == "determinant-factorization"


def test_conj_pencil():
    A = M([["x1", "0"], ["0", "x2"]], X12)
    form = conj_pencil([A])
    t = form.table
    assert form.matrix == A.lift(t).scale(parse_poly("x_1", t)) + \
        PolyMatrix.identity(t, 2).scale(parse_poly("y", t))

    with pytest.raises(RingError):
        conj_pencil([])

    double = conj_pencil([A, A])
    t2 = double.table
    coeff = parse_poly("x_1 + x_2", t2)
    assert double.matrix == A.lift(t2).scale(coeff) + \
        PolyMatrix.identity(t2, 2).scale(parse_poly("y", t2))


def test_conj_ex1_grid():
    for k in range(1, 5):
        for l in range(1, 5):
            A = M([["x2", f"x1^{k}"], [f"x1^{l}", "x2"]], X12)
            v = check_conj_2x2(A)
            expected = DECOMPOSABLE if k == l else NOT_DECOMPOSABLE
            assert v.status == expected, (k, l)
            assert v.verify()


def test_conj_examples():
    v = check_conj_2x2(M([["x", "0"], ["0", "y^2"]], XY))
    assert v.status == DECOMPOSABLE and v.verify()

    v = check_conj_2x2(M([["x2", "x1"], ["x1", "x2"]], X12))
    assert v.status == DECOMPOSABLE and v.verify()
    elements = {str(inc.element) for inc in v.of(Inclusion)}
    assert "x1" in elements


def test_conj_degenerate_discriminant():
    v = check_conj_2x2(M([["x", "y"], ["0", "x"]], XY))
    assert v.status == INCONCLUSIVE
    assert v.failed_hypothesis == "nondegenerate-discriminant"


def nonsquare_of(v):
    """The point certificate of a verdict, as (polynomial, point, value),
    after checking that the verdict re-checks and that the certificate
    is for the failing element."""
    assert v.status == NOT_DECOMPOSABLE and v.verify()
    assert [h.name for h in v.hypotheses] == ["nondegenerate-discriminant"]
    (entry,) = v.of(NonSquare)
    assert entry.poly == v.failing
    return str(entry.poly), entry.point, entry.value


def test_conj_provable_nonsquares():
    # odd order: D = 4*x*y is no square, and -4 at (-1, 1)
    v = check_conj_2x2(M([["0", "x"], ["y", "0"]], XY))
    assert nonsquare_of(v) == ("4*x*y", (-1, 1), -4)

    # lowest form x^2 + y^2 is not c*h^2
    v = check_conj_2x2(M([["0", "x^2 + y^2"], ["1/4", "0"]], XY))
    assert nonsquare_of(v) == ("x^2 + y^2", (-1, -1), 2)

    # x^2 + y^3 is a square to no finite order
    v = check_conj_2x2(M([["0", "x^2 + y^3"], ["1/4", "0"]], XY))
    assert nonsquare_of(v) == ("y^3 + x^2", (-1, 1), 2)


def test_conj_membership_failure():
    v = check_conj_2x2(M([["0", "x"], ["x^3", "0"]], XY))
    assert v.status == NOT_DECOMPOSABLE
    assert v.failing == parse_poly("x", XY)
    assert v.verify()


def test_conj_refutes_squares_over_an_extension_or_as_series():
    """A square only over Q(sqrt 2), and a square only as a power series,
    are no squares in Q[x, y]; R lies in Q(x, y) and Q[x, y] is integrally
    closed, so they are none in R either, and the verdict is decided."""
    v = check_conj_2x2(M([["0", "x"], ["1/2*x", "0"]], XY))
    assert nonsquare_of(v) == ("2*x^2", (-1, -1), 2)

    v = check_conj_2x2(M([["0", "x"], ["x*(1 + x)", "0"]], XY))
    assert nonsquare_of(v) == ("4*x^3 + 4*x^2", (1, -1), 8)


@pytest.mark.parametrize("names", [("x1",), ("x1", "x2")])
def test_a_point_search_that_runs_out_still_decides(names):
    """d = 1 + prod(x1 - v), over the first coordinates v of the points
    the search tries, is 1 at each of them, a square; A = [[0, 1/4],
    [d, 0]] has discriminant d, no square in Q[x].  So the verdict is
    NotDecomposable without a point certificate."""
    table = VarTable(names)
    x1 = Poly.var(table, "x1")
    d = Poly.const(table, 1)
    for v in sorted({point[0] for point in _small_points(len(names))}):
        d = d * (x1 - v)
    d = d + 1
    start = time.perf_counter()
    v = check_conj_2x2(PolyMatrix(table, (
        (Poly.zero(table), Poly.const(table, Fraction(1, 4))),
        (d, Poly.zero(table)))))
    assert time.perf_counter() - start < 1.0
    assert v.status == NOT_DECOMPOSABLE and v.verify()
    assert v.failing == d
    assert v.facts == []


def test_conj_agrees_with_quiver_path():
    """Fast path vs the general Kronecker-form path, on exact instances."""
    cases = [
        M([["x2", "x1"], ["x1", "x2"]], X12),
        M([["x2", "x1^2"], ["x1^2", "x2"]], X12),
        M([["x2", "x1"], ["x1^3", "x2"]], X12),
        M([["x1", "0"], ["0", "x2"]], X12),
    ]
    for A in cases:
        conj = check_conj_2x2(A)
        Q = QuiverRep(X12, [Vertex("1", 2)], [Arrow("1", "1", A)])
        form = build_kronecker(Q)
        t = form.table
        # det(x*A + y*1) = y^2 + b*y + c with b = x*tr(A), c = x^2*det(A)
        # splits as (y + (b - r)/2) * (y + (b + r)/2) with r^2 = b^2 - 4c
        x, y = Poly.var(t, "x_1_1"), Poly.var(t, "y_1")
        b = x * A.trace().lift(t)
        c = x * x * det(A).lift(t)
        r = sqrt_exact(b * b - c * 4)
        assert r is not None
        f1 = y + (b - r) * Fraction(1, 2)
        f2 = y + (b + r) * Fraction(1, 2)
        assert f1 * f2 == det(form.matrix)
        quiver_v = check_quiver(form, f1, f2)
        if conj.status != INCONCLUSIVE and quiver_v.status != INCONCLUSIVE:
            assert conj.status == quiver_v.status, str(A.entries)


def test_check_quiver_equivalence_invariance():
    rng = random.Random(101)
    A = [["0", "1"], ["1", "0"]]
    B = [["1", "0"], ["0", "1"]]
    Q = string_quiver(A, B)
    form = build_kronecker(Q)
    t = form.table
    f1 = parse_poly("y_1*y_2 - x_1_2*x_2_1", t)
    f2 = parse_poly("y_1*y_2 + x_1_2*x_2_1", t)
    base = check_quiver(form, f1, f2).status
    for _ in range(3):
        U1 = random_unimodular(rng, EMPTY, 2)
        U2 = random_unimodular(rng, EMPTY, 2)
        A2 = U2 * M(A, EMPTY) * inverse_unimodular_2x2(U1)
        B2 = U1 * M(B, EMPTY) * inverse_unimodular_2x2(U2)
        Q2 = QuiverRep(
            EMPTY, [Vertex("1", 2), Vertex("2", 2)],
            [Arrow("1", "2", A2), Arrow("2", "1", B2)])
        v = check_quiver(build_kronecker(Q2), f1, f2)
        assert v.status == base
        assert v.verify()


def test_quiver_validation():
    with pytest.raises(RingError):
        QuiverRep(EMPTY, [Vertex("1", 1), Vertex("1", 1)], [])
    with pytest.raises(RingError):
        QuiverRep(EMPTY, [Vertex("1", 1)],
                  [Arrow("1", "9", M([["1"]], EMPTY))])
    with pytest.raises(RingError):
        QuiverRep(EMPTY, [Vertex("1", 2)],
                  [Arrow("1", "1", M([["1"]], EMPTY))])
    with pytest.raises(RingError):
        Vertex("1", 0)
