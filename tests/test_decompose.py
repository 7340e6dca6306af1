"""Theorem-level checkers for square and rectangular matrices."""

from __future__ import annotations

import random

import pytest

import blocksplit.groebner
from blocksplit.decompose import (
    DECOMPOSABLE,
    INCONCLUSIVE,
    NOT_DECOMPOSABLE,
    _coprimality,
    _local_inclusion,
    check_rect_lr,
    check_square_lr,
)
from blocksplit.groebner import Ideal, member_local
from blocksplit.matrix import PolyMatrix, fitting_ideal
from blocksplit.ring import RingError, VarTable, grevlex, parse_poly

from support import random_unimodular

XY = VarTable(("x", "y"))
X12 = VarTable(("x1", "x2"))


def P(text, table=XY):
    return parse_poly(text, table)


def M(rows, table=XY):
    return PolyMatrix(table, tuple(
        tuple(parse_poly(e, table) for e in row) for row in rows))


def ex2_matrix(n, k, l):
    return M([["x2", f"x1^{k}", "0"],
              ["0", "x2", f"x1^{l}"],
              [f"-x1^{3 * n - k - l}", "0", "x2"]], X12)


def ex2_factors(n):
    return (P(f"x2 - x1^{n}", X12),
            P(f"x2^2 + x2*x1^{n} + x1^{2 * n}", X12))


def test_square_ex2_positive():
    for n in (1, 2, 3):
        f1, f2 = ex2_factors(n)
        v = check_square_lr(ex2_matrix(n, n, n), f1, f2)
        assert v.status == DECOMPOSABLE
        assert v.verify()
        assert "f1" in v.scope and "f2" in v.scope


def test_square_ex2_negative():
    f1, f2 = ex2_factors(2)
    for k, l in ((1, 2), (2, 1), (1, 1), (3, 2)):
        v = check_square_lr(ex2_matrix(2, k, l), f1, f2)
        assert v.status == NOT_DECOMPOSABLE
        assert v.failing is not None
        assert v.verify()


def test_square_constructed_from_diag():
    # U*diag(x,y)*V with unimodular U, V must stay Decomposable
    U = M([["1", "1"], ["0", "1"]])
    V = M([["1", "0"], ["1", "1"]])
    A = U * M([["x", "0"], ["0", "y"]]) * V
    assert A == M([["x + y", "y"], ["y", "y"]])
    v = check_square_lr(A, P("x"), P("y"))
    assert v.status == DECOMPOSABLE and v.verify()


def test_square_diag_trivial():
    v = check_square_lr(M([["x", "0"], ["0", "y"]]), P("x"), P("y"))
    assert v.status == DECOMPOSABLE and v.verify()


def test_adjugate_scales_cofactors_by_the_other_units():
    # y*(1 + x) enters (x*(1 + x), y*(1 + y)) only with the unit 1 + y,
    # and x*(1 + y) only with 1 + x: the adjugate's unit is their product
    A = M([["x*(1 + y)", "0"], ["0", "y*(1 + x)"]])
    f1, f2 = P("x*(1 + x)"), P("y*(1 + y)")
    units = {str(member_local(g, Ideal(XY, (f1, f2)))[1].unit)
             for g in fitting_ideal(A, 1).generators}
    assert units == {"x + 1", "y + 1"}
    verdict = check_square_lr(A, f1, f2)
    assert verdict.status == DECOMPOSABLE and verdict.failures() == []
    assert verdict.inclusions and all(
        inc.element not in (P("x*(1 + y)"), P("y*(1 + x)"))
        for inc in verdict.inclusions)
    assert verdict.adjugate.unit == P("(1 + x)*(1 + y)")


def test_square_hypothesis_failures():
    A = M([["x", "0"], ["0", "y"]])
    v = check_square_lr(A, P("x"), P("x"))
    assert v.status == INCONCLUSIVE
    assert v.failed_hypothesis == "determinant-factorization"
    assert v.verify()

    v = check_square_lr(M([["x", "0"], ["0", "1 + x"]]), P("x"), P("1 + x"))
    assert v.status == INCONCLUSIVE
    assert v.failed_hypothesis == "factor-nontriviality"

    B = M([["x", "0"], ["0", "x*(1 + x)"]])
    v = check_square_lr(B, P("x"), P("x*(1 + x)"))
    assert v.status == INCONCLUSIVE
    assert v.failed_hypothesis == "factor-coprimality"
    assert v.verify()


def test_square_input_errors():
    with pytest.raises(RingError):
        check_square_lr(M([["x", "y", "0"], ["0", "x", "y"]]), P("x"), P("y"))
    with pytest.raises(RingError):
        check_square_lr(M([["x"]]), P("x"), P("1"))


def test_square_exchange_symmetry():
    cases = [
        (ex2_matrix(1, 1, 1), ex2_factors(1)),
        (ex2_matrix(2, 1, 2), ex2_factors(2)),
        (M([["x", "0"], ["0", "y"]]), (P("x"), P("y"))),
    ]
    for A, (f1, f2) in cases:
        assert check_square_lr(A, f1, f2).status == \
            check_square_lr(A, f2, f1).status


def test_square_unimodular_monotonicity():
    rng = random.Random(83)
    A = ex2_matrix(1, 1, 1)
    f1, f2 = ex2_factors(1)
    base = check_square_lr(A, f1, f2).status
    for _ in range(3):
        U = random_unimodular(rng, X12, 3)
        V = random_unimodular(rng, X12, 3)
        v = check_square_lr(U * A * V, f1, f2)
        assert v.status == base
        assert v.verify()


def test_square_jet_mode():
    A = ex2_matrix(1, 1, 1)
    f1, f2 = ex2_factors(1)
    v = check_square_lr(A, f1, f2, jet_order=6)
    assert v.status == DECOMPOSABLE
    assert not v.exact and v.order == 6
    assert v.verify()
    for inc in v.inclusions:
        assert inc.modulo_order == 6


def test_rect_diag():
    v = check_rect_lr(M([["x", "0"], ["0", "y"]]),
                      Ideal(XY, (P("x"),)), Ideal(XY, (P("y"),)))
    assert v.status == DECOMPOSABLE and v.verify()


def test_rect_kernel_condition():
    t = VarTable(("x", "y", "z"))
    A = PolyMatrix(t, ((parse_poly("x", t), parse_poly("0", t), parse_poly("0", t)),
                       (parse_poly("0", t), parse_poly("y", t), parse_poly("z", t))))
    v = check_rect_lr(A, Ideal(t, (parse_poly("x", t),)),
                      Ideal(t, (parse_poly("y", t), parse_poly("z", t))))
    assert v.status == INCONCLUSIVE
    assert v.failed_hypothesis == "kernel-condition"
    assert v.verify()

    B = M([["x", "0", "0"], ["0", "y", "0"]])
    v = check_rect_lr(B, Ideal(XY, (P("x"),)), Ideal(XY, (P("y"),)))
    assert v.status == INCONCLUSIVE
    assert v.failed_hypothesis == "kernel-condition"


def test_rect_nontriviality_and_product():
    A = M([["x", "0"], ["0", "y"]])
    v = check_rect_lr(A, Ideal(XY, (P("1 + x"),)), Ideal(XY, (P("x*y"),)))
    assert v.status == INCONCLUSIVE
    assert v.failed_hypothesis == "ideal-nontriviality"

    v = check_rect_lr(A, Ideal(XY, (P("x"),)), Ideal(XY, (P("x"),)))
    assert v.status == INCONCLUSIVE
    assert v.failed_hypothesis == "product-identity"


def test_rect_exchange_symmetry():
    A = M([["x", "0"], ["0", "y"]])
    J1 = Ideal(XY, (P("x"),))
    J2 = Ideal(XY, (P("y"),))
    assert check_rect_lr(A, J1, J2).status == check_rect_lr(A, J2, J1).status


def test_rect_shape_error():
    with pytest.raises(RingError):
        check_rect_lr(M([["x"], ["y"]]), Ideal(XY, (P("x"),)),
                      Ideal(XY, (P("y"),)))


def test_coprime_witnessed_examples():
    def coprime(I, J):
        check, _, entries = _coprimality("coprime", "", I, J, None)
        assert all(inc.verify() for inc in entries)
        return check.passed

    assert coprime(Ideal(XY, (P("x"),)), Ideal(XY, (P("y"),)))
    assert not coprime(Ideal(XY, (P("x"),)), Ideal(XY, (P("x*(1 + x)"),)))
    for n in (1, 2):
        I, J = (Ideal(X12, (f,)) for f in ex2_factors(n))
        assert coprime(I, J)


def test_verdict_reports_only_true_facts():
    f1, f2 = ex2_factors(2)
    v = check_square_lr(ex2_matrix(2, 1, 1), f1, f2)
    assert v.status == NOT_DECOMPOSABLE
    for ident in v.identities:
        assert ident.verify()
    for inc in v.inclusions:
        assert inc.verify()
    assert all(h.passed for h in v.hypotheses)


def test_local_inclusion_builds_the_tracked_basis_once(monkeypatch):
    """Every element tested against one Ideal reduces by its one cached
    grevlex basis, the colon route included; each colon eliminates
    under its own order."""
    orders = []
    buchberger = blocksplit.groebner._buchberger

    def counting(inputs, order, positions=0):
        orders.append(order)
        return buchberger(inputs, order, positions)

    monkeypatch.setattr(blocksplit.groebner, "_buchberger", counting)
    J = Ideal(XY, (P("x^2 + x^3"), P("y^2 - x*y^2")))
    # x^2 and x^2*y + y^3 lie in J only after localizing: each takes a
    # colon
    elements = [P(e) for e in ("x^2", "y^2", "x^2 + x^3", "x^2*y + y^3",
                               "x^3 + x^4 - y^2 + x*y^2", "x*y^2")]
    failing, entries = _local_inclusion(elements, J, None)
    assert failing is None and len(entries) == len(elements)
    assert all(entry.verify() for entry in entries)
    assert orders.count(grevlex) == 1
    assert len(orders) > 1
