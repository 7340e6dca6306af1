"""The adjugate entry's re-check refereed by sympy where f1 and f2 share a
factor, so that f2 need not divide the entries of A*C1 and the check's
quotient leaves a remainder.

The entry is `test_certificate.shared_factor_entry`: h = 1 + x + y,
A = [[x*h, 0], [x, y*h]], f1 = x*h, f2 = y*h and unit h.  For any 2x2 K,
C1 + y*K and C2 - x*K is another valid pair of cofactors, since f1*y ==
f2*x.  One added term then makes the pair invalid.  The re-check must
accept exactly the entries for which sympy expands
A*(f1*C1 + f2*C2) - unit*f1*f2*I to zero.  The tests are skipped when
sympy or hypothesis is absent.
"""

from __future__ import annotations

import pytest

from blocksplit.certificate import AdjugateInclusion
from blocksplit.ring import Poly

from test_certificate import PRODUCT, XY, shared_factor_entry

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


def sympy_holds(entry: AdjugateInclusion) -> bool:
    symbols = sympy.symbols(XY.names)

    def matrix(rows):
        return sympy.Matrix([[to_sympy(e, symbols) for e in row]
                             for row in rows])

    f1, f2, unit = (to_sympy(p, symbols)
                    for p in (entry.f1, entry.f2, entry.unit))
    diff = matrix(entry.matrix) * (f1 * matrix(entry.c1)
                                   + f2 * matrix(entry.c2)) \
        - unit * f1 * f2 * sympy.eye(2)
    return diff.applyfunc(sympy.expand) == sympy.zeros(2, 2)


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
