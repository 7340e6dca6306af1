"""The adjugate entry's re-check refereed by sympy where f1 and f2 share a
factor, so that f2 need not divide the entries of A*C1 and the check's
quotient leaves a remainder.

The entry is `test_certificate.shared_factor_entry`: h = 1 + x + y,
A = [[x*h, 0], [x, y*h]], f1 = x*h, f2 = y*h and unit h.  For any 2x2 K,
C1 + y*K and C2 - x*K is another valid pair of cofactors, since f1*y ==
f2*x.  One added term then makes the pair invalid.  The re-check must
accept exactly the entries for which sympy expands
A*(f1*C1 + f2*C2) - unit*f1*f2*I to zero.

The determinant claim is refereed too.  A 2x2 or 3x3 A = U*D*V, with U
and V products of transvections and D = diag(f1, f2, 1, ...), has
det(A) = f1*f2 and unit*adj(A) = f1*C1 + f2*C2 for known C1, C2;
rescaling f2, the unit or either cofactor grid by a constant keeps the
product or the determinant in some cases and not in others.  The re-check
must report the product when sympy finds A*(f1*C1 + f2*C2) !=
unit*f1*f2*I, the determinant when the product holds and det(A) !=
f1*f2, and nothing exactly when both hold, which are then the entries
with unit*adj(A) == f1*C1 + f2*C2 and det(A) == f1*f2.  The tests are
skipped when sympy or hypothesis is absent.
"""

from __future__ import annotations

import pytest

from blocksplit.certificate import AdjugateInclusion
from blocksplit.matrix import PolyMatrix
from blocksplit.ring import Poly, parse_poly

from test_certificate import DET, PRODUCT, XY, shared_factor_entry

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

monomials = st.tuples(st.integers(0, 2), st.integers(0, 2))
polys = st.dictionaries(monomials, st.integers(-3, 3).filter(bool),
                        max_size=3).map(lambda terms: Poly(XY, terms))
grids = st.lists(st.lists(polys, min_size=2, max_size=2), min_size=2,
                 max_size=2)
# (0 for C1 or 1 for C2, row, column, monomial, coefficient)
perturbations = st.none() | st.tuples(
    st.integers(0, 1), st.integers(0, 1), st.integers(0, 1), monomials,
    st.integers(-3, 3).filter(bool))


def to_sympy(p: Poly, symbols):
    return sympy.Add(*(c * sympy.Mul(*(s ** e for s, e in zip(symbols, m)))
                       for m, c in p.terms.items()))


def sympy_matrix(rows, symbols):
    return sympy.Matrix([[to_sympy(e, symbols) for e in row] for row in rows])


def sympy_holds(entry: AdjugateInclusion) -> bool:
    symbols = sympy.symbols(XY.names)
    A, C1, C2 = (sympy_matrix(rows, symbols)
                 for rows in (entry.matrix, entry.c1, entry.c2))
    f1, f2, unit = (to_sympy(p, symbols)
                    for p in (entry.f1, entry.f2, entry.unit))
    diff = A * (f1 * C1 + f2 * C2) - unit * f1 * f2 * sympy.eye(A.rows)
    return diff.applyfunc(sympy.expand) == sympy.zeros(*A.shape)


@settings(max_examples=100, deadline=None)
@given(grids, perturbations)
def test_shared_factor_adjugates_agree_with_sympy(K, perturbation):
    base = shared_factor_entry()
    y, x = (Poly.var(XY, name) for name in ("y", "x"))
    c1 = [[c + y * k for c, k in zip(row, ks)] for row, ks in zip(base.c1, K)]
    c2 = [[c - x * k for c, k in zip(row, ks)] for row, ks in zip(base.c2, K)]
    if perturbation is not None:
        which, i, j, mono, coeff = perturbation
        target = (c1, c2)[which]
        target[i][j] = target[i][j] + Poly(XY, {mono: coeff})
    entry = AdjugateInclusion(base.matrix, base.f1, base.f2, base.unit, c1,
                              c2)
    holds = sympy_holds(entry)
    assert holds == (perturbation is None)
    assert entry.failures() == ([] if holds else [PRODUCT])


@st.composite
def unimodular(draw, n: int):
    """A product U of at most two transvections I + p*E_ij, i != j, and
    its inverse, which is adj(U) as det(U) = 1."""
    steps = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1), polys)
                          .filter(lambda t: t[0] != t[1]), max_size=2))
    U = inverse = PolyMatrix.identity(XY, n)
    for i, j, p in steps:
        E, F = ([list(row) for row in U.identity(XY, n).entries]
                for _ in "EF")
        E[i][j], F[i][j] = p, -p
        U, inverse = U * PolyMatrix(XY, E), PolyMatrix(XY, F) * inverse
    return U, inverse


@st.composite
def rescaled_entries(draw) -> AdjugateInclusion:
    """A = U*D*V with D = diag(f1, f2, 1, ...), whose adj(A) is adj(V)*
    adj(D)*adj(U), as an adjugate entry with f2, the unit and both
    cofactor grids rescaled by constants."""
    n = draw(st.sampled_from([2, 3]))
    (U, adjU), (V, adjV) = draw(unimodular(n)), draw(unimodular(n))
    f1, f2 = (draw(polys.filter(lambda p: not p.is_zero())) for _ in "12")
    unit = parse_poly(draw(st.sampled_from(["1", "1 + x", "2 - y"])), XY)
    zero, one = Poly.zero(XY), Poly.const(XY, 1)
    D, E1, E2 = ([[zero] * n for _ in range(n)] for _ in range(3))
    # adj(diag(f1, f2)) = f1*diag(0, 1) + f2*diag(1, 0), and
    # adj(diag(f1, f2, 1)) = f1*diag(0, 1, 0) + f2*diag(1, 0, f1)
    D[0][0], D[1][1], E1[1][1], E2[0][0] = f1, f2, unit, unit
    if n == 3:
        D[2][2], E2[2][2] = one, f1 * unit
    A = U * PolyMatrix(XY, D) * V
    C1, C2 = (adjV * PolyMatrix(XY, E) * adjU for E in (E1, E2))
    # generically the product holds when c == a*b and d == b, and the
    # determinant when a == 1
    constants = st.sampled_from([1, 2, -1])
    a, b = draw(constants), draw(constants)
    c = a * b if draw(st.booleans()) else draw(constants)
    d = b if draw(st.booleans()) else draw(constants)
    return AdjugateInclusion(A.entries, f1, f2 * a, unit * b,
                             [[e * c for e in row] for row in C1.entries],
                             [[e * d for e in row] for row in C2.entries])


@settings(max_examples=150, deadline=None)
@given(rescaled_entries())
def test_the_determinant_pin_agrees_with_sympy(entry):
    """A failed product is reported as one, whatever det(A) is; a product
    that holds is refused only when det(A) != f1*f2.  failures() is then
    empty exactly when sympy also finds unit*adj(A) == f1*C1 + f2*C2 and
    det(A) == f1*f2."""
    symbols = sympy.symbols(XY.names)
    A, C1, C2 = (sympy_matrix(rows, symbols)
                 for rows in (entry.matrix, entry.c1, entry.c2))
    f1, f2, unit = (to_sympy(p, symbols)
                    for p in (entry.f1, entry.f2, entry.unit))
    adjugate = (unit * A.adjugate() - f1 * C1 - f2 * C2).applyfunc(
        sympy.expand) == sympy.zeros(*A.shape)
    determinant = sympy.expand(A.det() - f1 * f2) == 0
    product = sympy_holds(entry)
    failures = entry.failures()
    assert failures == ([PRODUCT] if not product else
                        [DET] if not determinant else [])
    assert (failures == []) == (adjugate and determinant)
