"""Decision procedures for block-diagonal splittings over the local ring
at the origin.

A verdict is always relative to the supplied factorization target: f1, f2
for a square matrix (det(A) = f1*f2), or a pair of ideals J1, J2 for a
rectangular one (I_m(A) = J1*J2).  Verdicts are three-valued and a failed
hypothesis is always reported as Inconclusive, never as NotDecomposable:
the criteria are biconditionals only under their hypotheses.

Every check decides through one checklist runner, ``_decide``: its
hypothesis steps run in order, the first failed one ends the run as
Inconclusive, and a decisive step, a local inclusion but for check-conj's
discriminant without a square root, decides the rest.  The facts
established along the way go, as one list, into a certificate of plain
ring arithmetic (see `certificate`), which the runner re-checks before
it returns any verdict.
An exact Decomposable verdict on a square matrix certifies its decisive
inclusion, of every (n-1)-minor in (f1, f2), with one adjugate identity
instead of one inclusion per minor, and that identity's check stands for
the determinant identity too.  The coprimality of two principal ideals
(f1) and (f2) in an exact run is certified by restriction to a line:
integer p and c with f1(p + c*t) of degree deg f1, and a, b in Q[t] with
a*F1 + b*F2 == 1 for Fi = fi(p + c*t), from the reduced Groebner basis
of (F1, F2) in Q[t], which proves gcd(f1, f2) = 1 (the evaluation step
of sparse gcd, Zippel, EUROSAM 1979).  Only when a few seeded draws of
the line find none, or in a jet run, or for ideals with more generators,
is I cap J computed by elimination and each of its generators certified
to lie in I*J.  Certificates for inexact (jet) runs state congruences
modulo m^N instead of equalities and are never presented as exact.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable

from .ring import (
    LINE,
    InvariantError,
    Poly,
    RingError,
    _div,
    divide_exact,
    local_unit_test,
    minor,
    restrict_to_line,
)
from .certificate import (
    DECOMPOSABLE,
    INCONCLUSIVE,
    MAX_LINE_DEGREE,
    NOT_DECOMPOSABLE,
    AdjugateInclusion,
    Fact,
    HypothesisCheck,
    Identity,
    Inclusion,
    LineCoprime,
    Verdict,
)
from .groebner import (
    Ideal,
    contains_local_unit,
    ideal_product,
    ideal_sum,
    intersect,
    member_local,
)
from .matrix import PolyMatrix, det, fitting_ideal, kernel
from .oracle import JetEchelon

# One hypothesis of a checklist with the facts it certifies when it
# passes.
Step = tuple[HypothesisCheck, list[Fact]]

# How many lines `_line_coprime` draws before the coprimality step falls
# back to the intersection.
LINE_DRAWS = 4


def _local_inclusion(elements: Iterable[Poly], J: Ideal, jet_order: int | None):
    """Element-by-element local inclusion in J: (first element outside J,
    []) or (None, one Inclusion per element); jet_order switches to
    congruences modulo m^N, every element tested against one echelon."""
    one = Poly.const(J.table, 1)
    echelon = (None if jet_order is None
               else JetEchelon(J.generators, J.table, jet_order))
    entries = []
    for g in elements:
        if echelon is None:
            ok, entry = member_local(g, J)
        else:
            ok, cofactors = echelon.witness(g)
            entry = Inclusion(g, J.generators, one, cofactors,
                              jet_order) if ok else None
        if not ok:
            return g, []
        entries.append(entry)
    return None, entries


def _line_coprime(f1: Poly, f2: Poly) -> LineCoprime | None:
    """A LineCoprime for f1 and f2 from the first of `LINE_DRAWS`
    lines p + c*t, with p and c drawn in [-3, 3] by a constant-seeded
    generator, on which f1 keeps its degree and the restrictions have a
    constant gcd; None when no draw gives one, or when a factor's degree
    lies outside 1..MAX_LINE_DEGREE."""
    if not all(1 <= f.degree() <= MAX_LINE_DEGREE for f in (f1, f2)):
        return None
    rng = random.Random(0)
    width = len(f1.table)
    for _ in range(LINE_DRAWS):
        point = [rng.randint(-3, 3) for _ in range(width)]
        direction = [rng.randint(-3, 3) for _ in range(width)]
        # the factors of a local problem vanish at the origin, so a line
        # through it (point and direction dependent) meets a common zero,
        # where the restrictions share a root
        p0, c0 = next(((p, c) for p, c in zip(point, direction) if p or c),
                      (0, 0))
        if all(p * c0 == c * p0 for p, c in zip(point, direction)):
            continue
        F1 = restrict_to_line(f1, point, direction)
        if F1.degree() != f1.degree():
            continue
        # the reduced basis in Q[t] is a gcd, with its cofactors; a
        # constant gcd c gives a*F1 + b*F2 == c, scaled here to 1
        F2 = restrict_to_line(f2, point, direction)
        gcd, = Ideal(LINE, (F1, F2)).basis()
        if gcd.poly.degree() != 0:
            continue
        a, b = (cof * _div(1, gcd.lc) for cof in gcd.vec)
        return LineCoprime(f1, f2, point, direction, a, b)
    return None


def _coprimality(name: str, detail: str, I: Ideal, J: Ideal,
                 jet_order: int | None) -> Step:
    """Local coprimality I cap J <= I*J as a checklist step.  For two
    principal ideals in an exact run, a line certificate that the
    generators are coprime settles it; otherwise, and when the draws find
    none, each generator of I cap J is certified to lie in I*J."""
    if jet_order is None and len(I.generators) == len(J.generators) == 1:
        certificate = _line_coprime(I.generators[0], J.generators[0])
        if certificate is not None:
            return HypothesisCheck(name, True, detail), [certificate]
    failing, entries = _local_inclusion(
        intersect(I, J).generators, ideal_product(I, J), jet_order)
    return HypothesisCheck(name, failing is None, detail), entries


def _decide(steps: Iterable[Step],
            decisive: Callable[[], tuple[Poly | None, list[Fact]]],
            scope: str, jet_order: int | None) -> Verdict:
    """The checklist runner every check decides through.  `steps` yields
    one hypothesis at a time; the first that fails ends the run as
    Inconclusive, so nothing after it is computed and its facts stay out
    of the verdict.  Then `decisive()` gives the element that makes the
    verdict NotDecomposable, or None for Decomposable, and the facts that
    certify the decision.  Every fact goes to the certificate, bar the
    determinant identity that an adjugate entry's check contains, and a
    verdict that fails its re-check raises InvariantError."""
    hyps: list[HypothesisCheck] = []
    facts: list[Fact] = []
    failed = failing = None
    for check, found in steps:
        hyps.append(check)
        if not check.passed:
            failed = check.name
            break
        facts += found
    else:
        failing, found = decisive()
        facts += found
    status = (INCONCLUSIVE if failed else
              DECOMPOSABLE if failing is None else NOT_DECOMPOSABLE)
    pairs = [(f.f1, f.f2) for f in facts if isinstance(f, AdjugateInclusion)]
    facts = [f for f in facts
             if not (isinstance(f, Identity) and f.factors in pairs)]
    verdict = Verdict(status, hyps, facts, scope, failing=failing,
                      failed_hypothesis=failed, order=jet_order)
    if not verdict.verify():
        raise InvariantError(
            "the verdict failed its pre-emission certificate re-check")
    return verdict


def _adjugate_inclusion(A: PolyMatrix, memo: dict, f1: Poly, f2: Poly,
                        entries: list[Inclusion]) -> AdjugateInclusion:
    """One AdjugateInclusion u*adj(A) = f1*C1 + f2*C2 from `entries`, the
    inclusions u_e*g = c1*f1 + c2*f2 of every Fitting generator g of
    I_{n-1}(A); u is the product of the distinct units u_e, and u/u_e is
    divided out once per unit.  Entry (i, j) of adj(A) is (-1)^(i+j) times
    the minor g of A without row j and column i, read from `memo`, so it
    takes the cofactors of g's inclusion times (-1)^(i+j)*u/u_e: only
    their signs, with no product, where u/u_e is 1."""
    by_key = {inc.element.key(): inc for inc in entries}
    units = {inc.unit.key(): inc.unit for inc in entries}
    one = unit = Poly.const(A.table, 1)
    for u in units.values():
        unit = unit * u
    scales = {key: divide_exact(unit, u) for key, u in units.items()}
    others = [tuple(k for k in range(A.rows) if k != i) for i in range(A.rows)]

    def cofactors(i: int, j: int) -> tuple[Poly, Poly]:
        g = minor(A.entries, memo, others[j], others[i])
        if g.is_zero():
            return g, g
        inc = by_key[g.key()]
        scale = scales[inc.unit.key()]
        c1, c2 = inc.cofactors
        if scale == one:
            return (c1, c2) if (i + j) % 2 == 0 else (-c1, -c2)
        scale = scale * (-1) ** (i + j)
        return scale * c1, scale * c2

    pairs = [[cofactors(i, j) for j in range(A.rows)] for i in range(A.rows)]
    return AdjugateInclusion(A.entries, f1, f2, unit,
                             [[c1 for c1, _ in row] for row in pairs],
                             [[c2 for _, c2 in row] for row in pairs])


_SQUARE_SCOPE = (
    "relative to the factor pair (f1, f2): NotDecomposable rules out "
    "exactly the block decompositions with det(A_i) = f_i up to units"
)


def _split_by_factors(A: PolyMatrix, f1: Poly, f2: Poly, subject: str,
                      hypothesis: HypothesisCheck, scope: str,
                      jet_order: int | None) -> Verdict:
    """The checklist shared by the square and quiver checks on a square
    matrix A: det(A) = f1*f2, then `hypothesis` (the one that differs
    between them), local coprimality of (f1) and (f2), and last the
    inclusion of I_{n-1}(A) in (f1) + (f2) that decides the verdict.
    `subject` names det(A) in the first hypothesis's detail.  An exact
    Decomposable verdict certifies that inclusion with one adjugate
    identity, whose check proves det(A) = f1*f2 with one (n-1)-minor,
    so the runner drops the determinant identity; det(A), the Fitting
    ideal and adj(A) share one minor memo."""
    memo: dict = {}
    identity = Identity("determinant-factorization", det(A, memo), (f1, f2),
                        jet_order)

    def steps():
        relation = "=" if jet_order is None else f"= (mod m^{jet_order})"
        yield (HypothesisCheck("determinant-factorization", identity.verify(),
                               f"{subject} {relation} (f1)*(f2)"),
               [identity])
        yield hypothesis, []
        yield _coprimality("factor-coprimality",
                           "(f1) cap (f2) <= (f1*f2) at the origin",
                           Ideal(A.table, (f1,)), Ideal(A.table, (f2,)), jet_order)

    def decisive():
        failing, entries = _local_inclusion(
            fitting_ideal(A, A.rows - 1, memo).generators,
            Ideal(A.table, (f1, f2)), jet_order)
        # a congruence of products modulo m^N says nothing of adj(A) modulo
        # m^N, so a jet verdict keeps one inclusion per minor
        if failing is None and jet_order is None:
            return None, [_adjugate_inclusion(A, memo, f1, f2, entries)]
        return failing, entries

    return _decide(steps(), decisive, scope, jet_order)


def check_square_lr(A: PolyMatrix, f1: Poly, f2: Poly,
                    jet_order: int | None = None) -> Verdict:
    """Square criterion: under det(A) = f1*f2 with both factors nonzero
    non-units and locally coprime, A splits into blocks with determinants
    f1 and f2 iff I_{m-1}(A) lies in (f1) + (f2) locally."""
    if A.rows != A.cols:
        raise RingError("square check needs a square matrix")
    if A.rows <= 1:
        raise RingError("square check needs size at least 2")
    if f1.table != A.table or f2.table != A.table:
        raise RingError("factors declared over a different VarTable")
    nontrivial = HypothesisCheck.per_factor(
        "factor-nontriviality", "both factors nonzero with zero constant term",
        (("f1", f1), ("f2", f2)),
        ((Poly.is_zero, "is zero"),
         (local_unit_test, "is invertible at the origin")))
    return _split_by_factors(A, f1, f2, "det(A)", nontrivial,
                             _SQUARE_SCOPE, jet_order)


_RECT_SCOPE = (
    "relative to the ideal pair (J1, J2): NotDecomposable rules out "
    "exactly the block decompositions with I_m(A_i) = J_i up to units"
)


def check_rect_lr(A: PolyMatrix, J1: Ideal, J2: Ideal) -> Verdict:
    """Rectangular criterion (m <= n): under nonzero I_m(A), kernel inside
    I_m(A)R^n, and I_m(A) = J1*J2 with nontrivial locally coprime factors,
    A splits with I_m(A_i) = J_i iff I_{m-1}(A) lies in J1 + J2 locally."""
    m, n = A.rows, A.cols
    if m > n:
        raise RingError("rectangular check needs rows <= cols")
    if J1.table != A.table or J2.table != A.table:
        raise RingError("ideals declared over a different VarTable")
    memo: dict = {}  # I_m(A) and I_{m-1}(A) share one minor memo
    Im = fitting_ideal(A, m, memo)

    def steps():
        yield (HypothesisCheck(
            "maximal-minors-nonzero", not Im.is_zero(),
            "I_m(A) is nonzero (the ring is a domain, so its annihilator "
            "is 0)"), [])

        ker = kernel(A)
        failing, entries = _local_inclusion(
            (c for column in ker for c in column), Im, None)
        subject = ("the 1 kernel generator has" if len(ker) == 1 else
                   f"all {len(ker)} kernel generators have")
        detail = (f"kernel component {failing} escapes I_m(A) locally"
                  if failing is not None else "the kernel is zero" if not ker
                  else f"{subject} components in I_m(A) locally")
        yield HypothesisCheck("kernel-condition", failing is None,
                              detail), entries

        yield HypothesisCheck.per_factor(
            "ideal-nontriviality",
            "J1 and J2 are each neither zero nor the unit ideal locally",
            (("J1", J1), ("J2", J2)),
            ((Ideal.is_zero, "is the zero ideal"),
             (contains_local_unit, "is the unit ideal locally"))), []

        prod = ideal_product(J1, J2)
        fwd, fwd_entries = _local_inclusion(Im.generators, prod, None)
        bwd, bwd_entries = _local_inclusion(prod.generators, Im, None)
        yield (HypothesisCheck(
            "product-identity", fwd is None and bwd is None,
            "I_m(A) = J1*J2 as ideals at the origin"),
            fwd_entries + bwd_entries)
        yield _coprimality("ideal-coprimality",
                           "J1 cap J2 <= J1*J2 at the origin", J1, J2, None)

    return _decide(steps(), lambda: _local_inclusion(
        fitting_ideal(A, m - 1, memo).generators, ideal_sum(J1, J2), None),
                   _RECT_SCOPE, None)
