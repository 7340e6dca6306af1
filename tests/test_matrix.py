"""Determinants, Fitting ideals, and kernels of polynomial matrices."""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from blocksplit.groebner import Ideal, member_global
from blocksplit.matrix import PolyMatrix, det, fitting_ideal, kernel
from blocksplit.ring import Poly, RingError, VarTable, parse_poly

from support import random_unimodular, subset_local

XY = VarTable(("x", "y"))
X12 = VarTable(("x1", "x2"))


def P(text, table=XY):
    return parse_poly(text, table)


def M(rows, table=XY):
    return PolyMatrix(table, tuple(
        tuple(parse_poly(e, table) for e in row) for row in rows))


def random_poly(rng, table, degree=2, terms=3):
    nvars = len(table)
    out = Poly.zero(table)
    for _ in range(rng.randrange(terms + 1)):
        mono = [0] * nvars
        for _ in range(rng.randrange(degree + 1)):
            mono[rng.randrange(nvars)] += 1
        out = out + Poly(table, {tuple(mono): Fraction(rng.randrange(-3, 4))})
    return out


def random_matrix(rng, table, m, n):
    return PolyMatrix(table, tuple(
        tuple(random_poly(rng, table) for _ in range(n)) for _ in range(m)))


def det_laplace(A):
    """Independent cofactor-expansion determinant (first row)."""
    n = A.rows
    if n == 1:
        return A[0, 0]
    total = Poly.zero(A.table)
    cols = list(range(n))
    for j in range(n):
        minor = PolyMatrix(A.table, [[A[i, c] for c in cols if c != j]
                                     for i in range(1, n)])
        term = A[0, j] * det_laplace(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def same_ideal(I, J):
    return (all(member_global(g, J)[0] for g in I.generators)
            and all(member_global(g, I)[0] for g in J.generators))


def test_det_examples():
    assert det(PolyMatrix.identity(XY, 3)) == P("1")
    with pytest.raises(RingError):
        det(M([["x", "y", "0"], ["0", "x", "y"]]))


def test_det_pencil_identity_symbolic():
    """det(x*A + y*1) = y^2 + x*y*tr(A) + x^2*det(A) over generic entries."""
    t = VarTable(("a11", "a12", "a21", "a22", "x", "y"))
    def p(s):
        return parse_poly(s, t)
    A = PolyMatrix(t, ((p("a11"), p("a12")), (p("a21"), p("a22"))))
    pencil = A.scale(p("x")) + PolyMatrix.identity(t, 2).scale(p("y"))
    tr = p("a11 + a22")
    dA = p("a11*a22 - a12*a21")
    assert det(pencil) == p("y^2") + p("x*y") * tr + p("x^2") * dA


def test_det_ex2_matrix():
    for n in (1, 2, 3):
        for k, l in ((n, n), (1, n), (n, 1)):
            corner = 3 * n - k - l
            if corner < 1:
                continue
            A = M([["x2", f"x1^{k}", "0"],
                   ["0", "x2", f"x1^{l}"],
                   [f"-x1^{corner}", "0", "x2"]], X12)
            assert det(A) == P(f"x2^3 - x1^{3 * n}", X12)


def test_det_multiplicative_random():
    rng = random.Random(53)
    for _ in range(20):
        A = random_matrix(rng, XY, 3, 3)
        B = random_matrix(rng, XY, 3, 3)
        assert det(A * B) == det(A) * det(B)


def test_det_matches_laplace():
    rng = random.Random(59)
    for n in (1, 2, 3, 4):
        for _ in range(6):
            A = random_matrix(rng, XY, n, n)
            assert det(A) == det_laplace(A)


def test_fitting_examples():
    I1 = fitting_ideal(M([["x", "y"], ["y", "x"]]), 1)
    assert same_ideal(I1, Ideal(XY, (P("x"), P("y"))))

    for n in (1, 2):
        t = VarTable(("x1", "x2", "y"))
        def p(s):
            return parse_poly(s, t)
        calA = PolyMatrix(t, (
            (p(f"y + x2"), p(f"x1^{n}"), p("0")),
            (p("0"), p(f"y + x2"), p(f"x1^{n}")),
            (p(f"-x1^{n}"), p("0"), p(f"y + x2"))))
        I2 = fitting_ideal(calA, 2)
        target = Ideal(t, (p(f"(y + x2)^2"), p(f"(y + x2)*x1^{n}"),
                           p(f"x1^{2 * n}")))
        ok_fwd, _ = subset_local(I2, target)
        ok_bwd, _ = subset_local(target, I2)
        assert ok_fwd and ok_bwd

    I3 = fitting_ideal(M([["x", "y"], ["y", "x"]]), 3)
    assert len(I3.generators) == 1 and I3.generators[0].is_zero()
    I0 = fitting_ideal(M([["x", "y"], ["y", "x"]]), 0)
    assert I0.generators == (P("1"),)
    Ineg = fitting_ideal(M([["x"]]), -2)
    assert Ineg.generators == (P("1"),)


def test_fitting_chain():
    """I_{j+1} is contained in I_j globally."""
    rng = random.Random(61)
    for _ in range(6):
        A = random_matrix(rng, XY, 3, 3)
        for j in (1, 2):
            upper = fitting_ideal(A, j + 1)
            lower = fitting_ideal(A, j)
            for g in upper.generators:
                assert member_global(g, lower)[0]


def test_fitting_unimodular_invariance():
    rng = random.Random(67)
    for _ in range(5):
        A = random_matrix(rng, XY, 2, 3)
        U = random_unimodular(rng, XY, 2)
        V = random_unimodular(rng, XY, 3)
        B = U * A * V
        for j in (1, 2):
            I = fitting_ideal(A, j)
            J = fitting_ideal(B, j)
            assert subset_local(I, J)[0] and subset_local(J, I)[0]


def test_kernel_examples():
    assert len(kernel(PolyMatrix.identity(XY, 3))) == 0

    K = kernel(M([["x", "y"]]))
    assert len(K) == 1
    v = K[0]
    koszul = (P("y"), P("-x"))
    assert v == koszul or v == tuple(-c for c in koszul)

    K2 = kernel(M([["x", "y", "0"], ["0", "x", "y"]]))
    assert len(K2) == 1
    v = K2[0]
    expect = (P("y^2"), P("-x*y"), P("x^2"))
    assert v == expect or v == tuple(-c for c in expect)


# a 2x4 matrix whose kernel took about a minute on a module Buchberger
# loop without pair criteria or interreduction
SLOW_2X4 = [
    ["-x1^2*x2^2 - 2", "2*x1^2*x2^2", "-x1^2 - 3*x1*x2",
     "-3*x1^2*x2 - 3*x2^2"],
    ["-3*x1", "-3*x1^2*x2^2 + 3*x2", "1", "x1*x2^2"],
]


def test_kernel_annihilates_random():
    rng = random.Random(71)
    inputs = []
    for _ in range(12):
        m = rng.randrange(1, 3)
        n = rng.randrange(m, 4)
        inputs.append(random_matrix(rng, XY, m, n))
    inputs.append(M(SLOW_2X4, X12))
    for A in inputs:
        start = time.perf_counter()
        K = kernel(A)
        assert time.perf_counter() - start < 10.0
        for v in K:
            image = A.apply(v)
            assert all(c.is_zero() for c in image)
    # the 2x4 matrix has rank 2, so its kernel needs two generators or more
    assert len(K) >= 2


def test_kernel_when_the_ring_declares_position_names():
    """Positions become fresh variables; a ring that already uses the
    names the kernel would pick (and their digit extensions) must not
    change the answer."""
    square = [["x", "y", "0"], ["0", "x", "y"]]
    # ten positions: picking e1 -> e10 for a taken e1 would collide later
    wide = [["x", "y"] + ["0"] * 7]
    for rows, names in ((square, ("x", "y", "e1", "e10", "e_1")),
                        (square, ("e1", "x", "e_3", "y", "e__5")),
                        (wide, ("x", "y", "e1"))):
        table = VarTable(names)
        lifted = tuple(tuple(parse_poly(str(p), table) for p in col)
                       for col in kernel(M(rows)))
        assert kernel(M(rows, table)) == lifted


def test_matrix_validation():
    with pytest.raises(RingError):
        PolyMatrix(XY, ((P("x"),), (P("x"), P("y"))))
    with pytest.raises(RingError):
        M([["x"]]) + M([["x", "y"]])
    A = M([["x", "y"], ["0", "x"]])
    assert tuple(row[0] for row in A.entries) == (P("x"), P("0"))
    assert A.trace() == P("2*x")
