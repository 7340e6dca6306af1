"""Determinants and Fitting ideals refereed by sympy.

sympy shares no code with blocksplit, so agreement here is evidence from
outside the minor expansion.  The test is skipped when sympy is absent.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from blocksplit.matrix import PolyMatrix, det, fitting_ideal
from blocksplit.quiver import Arrow, QuiverRep, Vertex, build_kronecker
from blocksplit.ring import Poly, VarTable

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

XYZ = VarTable(("x", "y", "z"))


def random_poly(rng, table, degree=2, terms=3):
    out = {}
    for _ in range(rng.randrange(terms + 1)):
        mono = [0] * len(table)
        for _ in range(rng.randrange(degree + 1)):
            mono[rng.randrange(len(table))] += 1
        mono = tuple(mono)
        out[mono] = out.get(mono, Fraction(0)) + rng.randrange(-3, 4)
    return Poly(table, out)


def random_matrix(rng, m, n):
    return PolyMatrix(XYZ, [[random_poly(rng, XYZ) for _ in range(n)]
                            for _ in range(m)])


def kronecker_form():
    """Kronecker form of a 3-vertex quiver (ranks 1, 2, 1, all nine arrows
    with small integer matrices): a 4x4 matrix over twelve variables."""
    rng = random.Random(97)
    table = VarTable(())
    vertices = [Vertex("1", 1), Vertex("2", 2), Vertex("3", 1)]
    arrows = []
    for src, tgt in itertools.product(vertices, repeat=2):
        entries = [[Poly.const(table, rng.randint(-3, 3))
                    for _ in range(src.rank)] for _ in range(tgt.rank)]
        arrows.append(Arrow(src.id, tgt.id, PolyMatrix(table, entries)))
    return build_kronecker(QuiverRep(table, vertices, arrows)).matrix


def to_sympy(M):
    symbols = sympy.symbols(M.table.names)

    def expr(p):
        return sympy.Add(*(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(s ** e for s, e in zip(symbols, mono)))
            for mono, c in p.terms.items()))

    return sympy.Matrix([[expr(M[i, j]) for j in range(M.cols)]
                         for i in range(M.rows)]), symbols


def terms_of(expr, symbols):
    """A sympy expression as {exponent tuple: Fraction}, zeros dropped."""
    poly = sympy.Poly(sympy.expand(expr), *symbols)
    return {mono: Fraction(int(c.p), int(c.q))
            for mono, c in poly.as_dict().items() if c != 0}


def cases():
    rng = random.Random(101)
    shapes = [(n, n) for n in (1, 2, 3, 4, 5) for _ in range(2)]
    shapes += [(2, 4), (4, 3)]
    out = [pytest.param(random_matrix(rng, m, n), id=f"random-{m}x{n}")
           for m, n in shapes]
    return out + [pytest.param(kronecker_form(), id="kronecker-3-vertex")]


@pytest.mark.parametrize("M", cases())
def test_det_and_fitting_agree_with_sympy(M):
    S, symbols = to_sympy(M)
    if M.rows == M.cols:
        assert det(M).terms == terms_of(S.det(method="berkowitz"), symbols)
    # the minors go through sympy's sparse polynomial ring, which is far
    # faster than expanding a symbolic determinant for each of them
    D = DomainMatrix.from_Matrix(S).convert_to(sympy.QQ[symbols])
    for j in range(1, min(M.rows, M.cols) + 1):
        expected = set()
        for rows in itertools.combinations(range(M.rows), j):
            for cols in itertools.combinations(range(M.cols), j):
                minor = D.extract(list(rows), list(cols)).det()
                if minor:
                    expected.add(frozenset(
                        (mono, Fraction(int(c.numerator), int(c.denominator)))
                        for mono, c in minor.items()))
        got = [frozenset(g.terms.items())
               for g in fitting_ideal(M, j).generators]
        if not expected:
            assert got == [frozenset()], j      # the zero ideal, as (0)
        else:
            assert len(set(got)) == len(got), j
            assert set(got) == expected, j
