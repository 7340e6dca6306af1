"""Decision procedures for block-diagonal splittings over the local ring
at the origin.

A verdict is always relative to the supplied factorization target: f1, f2
for a square matrix (det(A) = f1*f2), or a pair of ideals J1, J2 for a
rectangular one (I_m(A) = J1*J2).  Verdicts are three-valued and a failed
hypothesis is always reported as Inconclusive, never as NotDecomposable:
the criteria are biconditionals only under their hypotheses.

Positive facts established along the way (identities, ideal inclusions)
are collected into a certificate of plain ring arithmetic: an identity is
re-checked by multiplication, an inclusion by expanding
unit*element == sum(cofactor_i * generator_i) with unit invertible at 0.
Certificates for inexact (jet) runs state congruences modulo m^N instead
of equalities and are never presented as exact.
"""

from __future__ import annotations

from .ring import GREVLEX, Poly, RingError, TermOrder, truncate
from .certificate import (
    DECOMPOSABLE,
    INCONCLUSIVE,
    NOT_DECOMPOSABLE,
    HypothesisCheck,
    Identity,
    Inclusion,
    Verdict,
)
from .groebner import (
    Ideal,
    contains_local_unit,
    ideal_product,
    ideal_sum,
    intersect,
    member_local,
    subset_local,
)
from .matrix import PolyMatrix, det, fitting_ideal, kernel
from .oracle import jet_member_witness


def _subset_witnessed(I: Ideal, J: Ideal, jet_order: int | None,
                      order: TermOrder = GREVLEX):
    """Generator-by-generator local inclusion I <= J with certificate
    entries; jet_order switches to congruences modulo m^N."""
    if jet_order is None:
        ok, payload = subset_local(I, J, order)
        if not ok:
            return False, payload, []
        return True, None, payload
    one = Poly.const(I.table, 1)
    entries = []
    for g in I.generators:
        ok, cofactors = jet_member_witness(g, J.generators, jet_order)
        if not ok:
            return False, g, []
        entries.append(Inclusion(g, J.generators, one, cofactors, jet_order))
    return True, None, entries


def _coprime_witnessed(I: Ideal, J: Ideal, jet_order: int | None,
                       order: TermOrder = GREVLEX):
    """Local coprimality I cap J <= I*J with certificate entries."""
    meet = intersect(I, J)
    prod = ideal_product(I, J)
    return _subset_witnessed(meet, prod, jet_order, order)


_SQUARE_SCOPE = (
    "relative to the factor pair (f1, f2): NotDecomposable rules out "
    "exactly the block decompositions with det(A_i) = f_i up to units"
)


def _split_by_factors(A: PolyMatrix, f1: Poly, f2: Poly, subject: str,
                      hypothesis: HypothesisCheck, scope: str,
                      jet_order: int | None, order: TermOrder) -> Verdict:
    """The decision pipeline shared by the square and quiver checks on a
    square matrix A: det(A) = f1*f2, then `hypothesis` (the one that
    differs between them), local coprimality of (f1) and (f2), and last
    the inclusion of I_{n-1}(A) in (f1) + (f2) that decides the verdict.
    `subject` names det(A) in the first hypothesis's detail."""
    exact = jet_order is None
    hyps: list[HypothesisCheck] = []
    identities: list[Identity] = []
    inclusions: list[Inclusion] = []

    def inconclusive(name: str) -> Verdict:
        return Verdict(INCONCLUSIVE, hyps, identities, inclusions, scope,
                       failed_hypothesis=name, exact=exact, order=jet_order)

    d = det(A)
    diff = d - f1 * f2
    ok = diff.is_zero() if exact else truncate(diff, jet_order).is_zero()
    relation = "=" if exact else f"= (mod m^{jet_order})"
    hyps.append(HypothesisCheck(
        "determinant-factorization", ok, f"{subject} {relation} (f1)*(f2)"))
    if not ok:
        return inconclusive("determinant-factorization")
    identities.append(Identity(
        "determinant-factorization", d, (f1, f2),
        None if exact else jet_order))

    hyps.append(hypothesis)
    if not hypothesis.passed:
        return inconclusive(hypothesis.name)

    I1 = Ideal(A.table, (f1,))
    I2 = Ideal(A.table, (f2,))
    ok, _, entries = _coprime_witnessed(I1, I2, jet_order, order)
    hyps.append(HypothesisCheck(
        "factor-coprimality", ok, "(f1) cap (f2) <= (f1*f2) at the origin"))
    if not ok:
        return inconclusive("factor-coprimality")
    inclusions.extend(entries)

    minors = fitting_ideal(A, A.rows - 1)
    target = Ideal(A.table, (f1, f2))
    ok, failing, entries = _subset_witnessed(minors, target, jet_order, order)
    if ok:
        inclusions.extend(entries)
        return Verdict(DECOMPOSABLE, hyps, identities, inclusions, scope,
                       exact=exact, order=jet_order)
    return Verdict(NOT_DECOMPOSABLE, hyps, identities, inclusions, scope,
                   failing=failing, exact=exact, order=jet_order)


def check_square_lr(A: PolyMatrix, f1: Poly, f2: Poly,
                    jet_order: int | None = None,
                    order: TermOrder = GREVLEX) -> Verdict:
    """Square criterion: under det(A) = f1*f2 with both factors nonzero
    non-units and locally coprime, A splits into blocks with determinants
    f1 and f2 iff I_{m-1}(A) lies in (f1) + (f2) locally."""
    if A.rows != A.cols:
        raise RingError("square check needs a square matrix")
    if A.rows <= 1:
        raise RingError("square check needs size at least 2")
    if f1.table != A.table or f2.table != A.table:
        raise RingError("factors declared over a different VarTable")
    ok = True
    detail = "both factors nonzero with zero constant term"
    for label, f in (("f1", f1), ("f2", f2)):
        if f.is_zero():
            ok, detail = False, f"{label} is zero"
            break
        if f.constant_term() != 0:
            ok, detail = False, f"{label} is invertible at the origin"
            break
    nontrivial = HypothesisCheck("factor-nontriviality", ok, detail)
    return _split_by_factors(A, f1, f2, "det(A)", nontrivial,
                            _SQUARE_SCOPE, jet_order, order)


_RECT_SCOPE = (
    "relative to the ideal pair (J1, J2): NotDecomposable rules out "
    "exactly the block decompositions with I_m(A_i) = J_i up to units"
)


def check_rect_lr(A: PolyMatrix, J1: Ideal, J2: Ideal,
                  order: TermOrder = GREVLEX) -> Verdict:
    """Rectangular criterion (m <= n): under nonzero I_m(A), kernel inside
    I_m(A)R^n, and I_m(A) = J1*J2 with nontrivial locally coprime factors,
    A splits with I_m(A_i) = J_i iff I_{m-1}(A) lies in J1 + J2 locally."""
    m, n = A.rows, A.cols
    if m > n:
        raise RingError("rectangular check needs rows <= cols")
    if J1.table != A.table or J2.table != A.table:
        raise RingError("ideals declared over a different VarTable")
    scope = _RECT_SCOPE
    hyps: list[HypothesisCheck] = []
    identities: list[Identity] = []
    inclusions: list[Inclusion] = []

    def inconclusive(name: str) -> Verdict:
        return Verdict(INCONCLUSIVE, hyps, identities, inclusions, scope,
                       failed_hypothesis=name)

    Im = fitting_ideal(A, m)
    ok = not Im.is_zero()
    hyps.append(HypothesisCheck(
        "maximal-minors-nonzero", ok,
        "I_m(A) is nonzero (the ring is a domain, so its annihilator is 0)"))
    if not ok:
        return inconclusive("maximal-minors-nonzero")

    ker = kernel(A)
    ok = True
    detail = f"all {len(ker)} kernel generators have components in I_m(A) locally"
    entries = []
    for column in ker:
        for component in column:
            member, w = member_local(component, Im, order)
            if not member:
                ok = False
                detail = f"kernel component {component} escapes I_m(A) locally"
                break
            entries.append(w)
        if not ok:
            break
    hyps.append(HypothesisCheck("kernel-condition", ok, detail))
    if not ok:
        return inconclusive("kernel-condition")
    inclusions.extend(entries)

    ok = True
    detail = "J1 and J2 are each neither zero nor the unit ideal locally"
    for label, J in (("J1", J1), ("J2", J2)):
        if J.is_zero():
            ok, detail = False, f"{label} is the zero ideal"
            break
        if contains_local_unit(J):
            ok, detail = False, f"{label} is the unit ideal locally"
            break
    hyps.append(HypothesisCheck("ideal-nontriviality", ok, detail))
    if not ok:
        return inconclusive("ideal-nontriviality")

    prod = ideal_product(J1, J2)
    fwd, _, fwd_entries = _subset_witnessed(Im, prod, None, order)
    bwd, _, bwd_entries = _subset_witnessed(prod, Im, None, order)
    ok = fwd and bwd
    hyps.append(HypothesisCheck(
        "product-identity", ok, "I_m(A) = J1*J2 as ideals at the origin"))
    if not ok:
        return inconclusive("product-identity")
    inclusions.extend(fwd_entries)
    inclusions.extend(bwd_entries)

    ok, _, entries = _coprime_witnessed(J1, J2, None, order)
    hyps.append(HypothesisCheck(
        "ideal-coprimality", ok, "J1 cap J2 <= J1*J2 at the origin"))
    if not ok:
        return inconclusive("ideal-coprimality")
    inclusions.extend(entries)

    minors = fitting_ideal(A, m - 1)
    target = ideal_sum(J1, J2)
    ok, failing, entries = _subset_witnessed(minors, target, None, order)
    if ok:
        inclusions.extend(entries)
        return Verdict(DECOMPOSABLE, hyps, identities, inclusions, scope)
    return Verdict(NOT_DECOMPOSABLE, hyps, identities, inclusions, scope,
                   failing=failing)
