"""Theorem-level checkers for square and rectangular matrices."""

from __future__ import annotations

import random

import pytest

import blocksplit.decompose
import blocksplit.groebner
from blocksplit.certificate import (AdjugateInclusion, Identity, Inclusion,
                                    LineCoprime, Verdict)
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
from blocksplit.matrix import PolyMatrix, det, fitting_ideal
from blocksplit.quiver import check_conj_2x2, check_quiver, conj_pencil
from blocksplit.ring import (InvariantError, Poly, RingError, VarTable,
                            grevlex, local_unit_test, parse_poly)

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
    # the adjugate entry stands for the minors' inclusions, and a line
    # certificate for the coprimality
    assert verdict.of(Inclusion) == [] and verdict.of(LineCoprime)
    adjugate, = verdict.of(AdjugateInclusion)
    assert adjugate.unit == P("(1 + x)*(1 + y)")


def test_square_hypothesis_failures():
    A = M([["x", "0"], ["0", "y"]])
    v = check_square_lr(A, P("x"), P("x"))
    assert v.status == INCONCLUSIVE
    assert v.failed_hypothesis == "determinant-factorization"
    assert v.verify()

    v = check_square_lr(M([["x", "0"], ["0", "1 + x"]]), P("x"), P("1 + x"))
    assert v.status == INCONCLUSIVE
    assert v.failed_hypothesis == "factor-nontriviality"

    v = check_square_lr(M([["x", "0"], ["0", "0"]]), P("0"), P("x"))
    assert v.status == INCONCLUSIVE
    assert v.hypotheses[-1].detail == "f1 is zero"
    assert v.verify()

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
    assert v.of(Inclusion)
    for inc in v.of(Inclusion):
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


def test_rect_kernel_condition_detail_agrees_in_number():
    """The passed kernel condition reads in the singular for one kernel
    generator, the plural for several, and names a zero kernel."""
    xyz = VarTable(("x", "y", "z"))

    def detail(rows, table=XY):
        v = check_rect_lr(M(rows, table), Ideal(table, (P("x", table),)),
                          Ideal(table, (P("y", table),)))
        check, = [h for h in v.hypotheses if h.name == "kernel-condition"]
        assert check.passed
        return check.detail

    assert detail([["x", "0"], ["0", "y"]]) == "the kernel is zero"
    assert detail([["x", "y"]]) == (
        "the 1 kernel generator has components in I_m(A) locally")
    assert detail([["x", "y", "z"]], xyz) == (
        "all 3 kernel generators have components in I_m(A) locally")


def test_rect_nontriviality_and_product():
    A = M([["x", "0"], ["0", "y"]])
    v = check_rect_lr(A, Ideal(XY, (P("1 + x"),)), Ideal(XY, (P("x*y"),)))
    assert v.status == INCONCLUSIVE
    assert v.failed_hypothesis == "ideal-nontriviality"

    v = check_rect_lr(A, Ideal(XY, (P("0"),)), Ideal(XY, (P("y"),)))
    assert v.status == INCONCLUSIVE
    assert v.hypotheses[-1].detail == "J1 is the zero ideal"
    assert v.verify()

    v = check_rect_lr(A, Ideal(XY, (P("x"),)), Ideal(XY, (P("x"),)))
    assert v.status == INCONCLUSIVE
    assert v.failed_hypothesis == "product-identity"


def test_rect_exchange_symmetry():
    A = M([["x", "0"], ["0", "y"]])
    J1 = Ideal(XY, (P("x"),))
    J2 = Ideal(XY, (P("y"),))
    assert check_rect_lr(A, J1, J2).status == check_rect_lr(A, J2, J1).status


def _term(rng, monomials):
    return Poly(XY, {rng.choice(monomials): rng.choice([-2, -1, 1, 2])})


def _local_base_change(rng, n):
    """An n x n matrix of constants, with a linear term in about a third
    of its entries, invertible at the origin."""
    def entry():
        if rng.random() < 0.3:
            return _term(rng, [(1, 0), (0, 1)]) + rng.randint(-1, 1)
        return Poly.const(XY, rng.randint(-1, 1))

    while True:
        U = PolyMatrix(XY, [[entry() for _ in range(n)] for _ in range(n)])
        if local_unit_test(det(U)):
            return U


def _block(rng, rows, cols):
    """A rows x cols block of terms of degree 1 or 2, so inside m, with
    I_rows(block) != 0."""
    while True:
        B = [[_term(rng, [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)])
              for _ in range(cols)] for _ in range(rows)]
        J = fitting_ideal(PolyMatrix(XY, B), rows)
        if not J.is_zero():
            return B, J


@pytest.mark.parametrize("shape", [((1, 2), (1, 1)), ((1, 2), (1, 2)),
                                   ((1, 3), (1, 1)), ((2, 3), (1, 1))],
                         ids=lambda shape: "+".join(f"{m}x{n}"
                                                    for m, n in shape))
def test_rect_block_sums_with_fewer_rows_fail_the_kernel_condition(shape):
    """check-rect decides no block sum with m < n: U*(A1 + A2)*V, with
    A1 + A2 the block diagonal sum, A1 of shape m1 x n1, m1 < n1, U and V
    invertible at the origin and J_i = I_{m_i}(A_i) nonzero and in m,
    always fails the kernel condition ker A <= I_m(A)*R^n.

    The condition does not change under U and V, and I_m(A1 + A2) =
    J1*J2.  A1 has rank m1, as J1 != 0.  For any m1 + 1 of its columns,
    the signed m1-minors of those columns form a vector of ker A1
    (Cramer's rule), whose components, over all choices, generate J1.
    Padded with zeros they lie in ker A, so the condition would give
    J1 <= J1*J2 <= m*J1, and Nakayama's lemma J1 = 0."""
    (m1, n1), (m2, n2) = shape
    rng = random.Random(f"rect-{shape}")
    zero = Poly.zero(XY)
    for _ in range(2):
        (A1, J1), (A2, J2) = _block(rng, m1, n1), _block(rng, m2, n2)
        S = [row + [zero] * n2 for row in A1]
        S += [[zero] * n1 + row for row in A2]
        A = (_local_base_change(rng, m1 + m2) * PolyMatrix(XY, S)
             * _local_base_change(rng, n1 + n2))
        v = check_rect_lr(A, J1, J2)
        assert (v.status, v.failed_hypothesis) == (
            INCONCLUSIVE, "kernel-condition")
        assert v.verify()


def test_rect_shape_error():
    with pytest.raises(RingError):
        check_rect_lr(M([["x"], ["y"]]), Ideal(XY, (P("x"),)),
                      Ideal(XY, (P("y"),)))


def coprime(I, J):
    """The coprimality step's outcome; every fact it certifies re-checks."""
    check, facts = _coprimality("coprime", "", I, J, None)
    assert all(fact.failures() == [] for fact in facts)
    return check.passed, facts


def test_coprime_witnessed_examples():
    passed, facts = coprime(Ideal(XY, (P("x"),)), Ideal(XY, (P("y"),)))
    assert passed and [type(f) for f in facts] == [LineCoprime]
    assert coprime(Ideal(XY, (P("x"),)),
                   Ideal(XY, (P("x*(1 + x)"),))) == (False, [])
    for n in (1, 2):
        I, J = (Ideal(X12, (f,)) for f in ex2_factors(n))
        passed, facts = coprime(I, J)
        assert passed and [type(f) for f in facts] == [LineCoprime]
    # two generators keep the intersection route
    passed, facts = coprime(Ideal(XY, (P("x"), P("x^2"))),
                            Ideal(XY, (P("y"),)))
    assert passed and facts and all(isinstance(f, Inclusion) for f in facts)


def counting_intersect(monkeypatch):
    """Count the calls of the intersection the coprimality step makes."""
    calls = []
    intersect = blocksplit.decompose.intersect

    def counting(I, J):
        calls.append((I, J))
        return intersect(I, J)

    monkeypatch.setattr(blocksplit.decompose, "intersect", counting)
    return calls


def test_a_common_factor_that_is_a_unit_at_0_falls_back(monkeypatch):
    """x1*(1 + x2) and x2*(1 + x2) share 1 + x2, so no line certificate
    exists; 1 + x2 is a unit at the origin, where the intersection route
    finds them coprime."""
    calls = counting_intersect(monkeypatch)
    I = Ideal(X12, (P("x1*(1 + x2)", X12),))
    J = Ideal(X12, (P("x2*(1 + x2)", X12),))
    passed, facts = coprime(I, J)
    assert passed and len(calls) == 1
    assert facts and all(isinstance(f, Inclusion) for f in facts)
    # x1 and x1*(1 + x1) are not coprime at the origin either
    assert coprime(Ideal(X12, (P("x1", X12),)),
                   Ideal(X12, (P("x1*(1 + x1)", X12),))) == (False, [])
    assert len(calls) == 2


def test_a_line_certificate_is_rechecked_before_use(monkeypatch):
    f1, f2 = ex2_factors(2)
    assert check_square_lr(ex2_matrix(2, 1, 1), f1, f2).of(LineCoprime)
    monkeypatch.setattr(LineCoprime, "failures",
                        lambda self, name: [f"{name}: forced"])
    with pytest.raises(InvariantError):
        check_square_lr(ex2_matrix(2, 1, 1), f1, f2)


def _pencil_check():
    form = conj_pencil([M([["1", "0"], ["0", "2"]], VarTable(()))])
    return check_quiver(form, parse_poly("y + x_1", form.table),
                        parse_poly("y + 2*x_1", form.table))


# one call of each public check, each returning a valid verdict
CHECKS = {
    "square": lambda: check_square_lr(ex2_matrix(2, 1, 1), *ex2_factors(2)),
    "rect": lambda: check_rect_lr(M([["x", "0"], ["0", "y"]]),
                                  Ideal(XY, (P("x"),)), Ideal(XY, (P("y"),))),
    "conj": lambda: check_conj_2x2(M([["x", "y"], ["0", "x"]])),
    "quiver": _pencil_check,
}


@pytest.mark.parametrize("check", sorted(CHECKS))
def test_every_check_returns_only_a_rechecked_verdict(monkeypatch, check):
    assert CHECKS[check]().verify()
    monkeypatch.setattr(Verdict, "failures", lambda self: ["forced"])
    with pytest.raises(InvariantError, match="pre-emission"):
        CHECKS[check]()


def test_a_jet_run_keeps_the_intersection_route(monkeypatch):
    calls = counting_intersect(monkeypatch)
    check, facts = _coprimality("coprime", "", Ideal(XY, (P("x"),)),
                                Ideal(XY, (P("y"),)), 4)
    assert check.passed and len(calls) == 1
    assert all(isinstance(f, Inclusion) and f.modulo_order == 4
               for f in facts)


def test_verdict_reports_only_true_facts():
    f1, f2 = ex2_factors(2)
    v = check_square_lr(ex2_matrix(2, 1, 1), f1, f2)
    assert v.status == NOT_DECOMPOSABLE
    assert [type(fact) for fact in v.facts] == [Identity, LineCoprime]
    for fact in v.facts:
        assert fact.failures() == []
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
