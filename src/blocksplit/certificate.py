"""Certificates: the facts a verdict rests on, their JSON form, and the
re-check that both the emitting path and ``verify-cert`` run.

A certificate is plain ring arithmetic.  An identity lhs == f_1 * ... * f_k
is re-checked by multiplying out; an inclusion unit*element ==
sum(cofactor_i * generator_i), with unit invertible at the origin, by
re-expanding; an adjugate inclusion unit*adj(A) == f1*C1 + f2*C2, which
puts every (n-1)-minor of A in (f1, f2) at once, by one matrix product
and a determinant; a non-inclusion, a linear functional on R/m^N that
vanishes on I + m^N but not on the element, by pairing it with the
monomial multiples of each generator and with the element.  Entries of
a jet verdict state congruences modulo m^N instead of equalities, and
their strength must match the verdict's provenance: an exact verdict
holds no congruence, and a jet verdict of order N only congruences
modulo m^N.

Decoding validates every field and raises InputError naming the first
malformed one; ``failures()`` then lists what does not re-check, as the
messages ``verify-cert`` prints.  Nothing here uses Groebner bases or
matrix code (the determinant is `ring.minor`, the expansion that `det`
runs too, and each sum of products is one `ring.sum_of_products`), so
the check stays independent of how a verdict arose.  Inclusions and the
adjugate entry clear their cofactors' denominators by one rule,
`_cleared`, before any product.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Sequence

from .ring import (
    ParseError,
    Poly,
    VarTable,
    _mono_div,
    _mono_divides,
    format_poly,
    local_unit_test,
    minor,
    parse_poly,
    sum_of_products,
    truncate,
)

DECOMPOSABLE = "Decomposable"
NOT_DECOMPOSABLE = "NotDecomposable"
INCONCLUSIVE = "Inconclusive"
STATUSES = (DECOMPOSABLE, NOT_DECOMPOSABLE, INCONCLUSIVE)


# The most rows or columns of a matrix read from a document, and of a
# Kronecker form or pencil built from one: the minor expansion of an
# n x n determinant can touch 2^n sub-minors, and a dense 10 x 10 form
# already takes minutes to decide.
MAX_MATRIX_SIZE = 10


class InputError(Exception):
    """Malformed document; the message names the offending field."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise InputError(message)


def parse_field(text: Any, table: VarTable, field: str,
                memo: dict[str, Poly] | None = None) -> Poly:
    """Parse one polynomial field; `memo` maps text already parsed over
    `table` to its Poly, so a document parses each distinct string once."""
    expect(isinstance(text, str),
           f"field '{field}' must be a polynomial string")
    if memo is not None and text in memo:
        return memo[text]
    try:
        poly = parse_poly(text, table)
    except ParseError as exc:
        raise InputError(f"field '{field}': {exc.message}") from exc
    if memo is not None:
        memo[text] = poly
    return poly


def _parse_list(items: Any, table: VarTable, field: str,
                memo: dict[str, Poly], nonempty: bool) -> list[Poly]:
    ok = isinstance(items, list) and (bool(items) or not nonempty)
    expect(ok, f"field '{field}' must be a "
               f"{'non-empty ' if nonempty else ''}list of polynomial strings")
    return [parse_field(p, table, f"{field}[{k}]", memo)
            for k, p in enumerate(items)]


def _parse_square(rows: Any, table: VarTable, field: str,
                  memo: dict[str, Poly], size: int | None) -> list[list[Poly]]:
    """A square matrix of polynomial strings, `size` x `size` when given."""
    ok = (isinstance(rows, list) and bool(rows)
          and (size is None or len(rows) == size)
          and all(isinstance(row, list) and len(row) == len(rows)
                  for row in rows))
    shape = f"{size} x {size}" if size is not None else "non-empty square"
    expect(ok, f"field '{field}' must be a {shape} list of rows of "
               "polynomial strings")
    expect(len(rows) <= MAX_MATRIX_SIZE,
           f"field '{field}' has {len(rows)} rows, more than "
           f"{MAX_MATRIX_SIZE}")
    return [[parse_field(e, table, f"{field}[{i}][{j}]", memo)
             for j, e in enumerate(row)] for i, row in enumerate(rows)]


def _parse_modulo(d: dict, field: str) -> int | None:
    N = d.get("modulo_order")
    if N is not None:
        expect(isinstance(N, int) and not isinstance(N, bool) and N >= 1,
               f"field '{field}.modulo_order' must be an integer >= 1")
    return N


def _cleared(unit: Poly, cofactors: Sequence[Poly]):
    """unit and cofactors times D, the lcm of the cofactors' coefficient
    denominators.  An inclusion or adjugate identity holds with them
    exactly when it holds with the originals, and when its other operands
    are integral, every term product of its re-check is then a product
    of ints."""
    D = math.lcm(*(c.denominator for p in cofactors for c in p.terms.values()))
    if D == 1:
        return unit, cofactors
    return unit * D, [p * D for p in cofactors]


def _holds(diff: Poly, modulo_order: int | None) -> bool:
    if modulo_order is not None:
        diff = truncate(diff, modulo_order)
    return diff.is_zero()


def _where(modulo_order: int | None) -> str:
    return f" modulo m^{modulo_order}" if modulo_order is not None else ""


class HypothesisCheck:
    """Named hypothesis with its outcome and a human-readable detail."""

    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str):
        self.name = name
        self.passed = passed
        self.detail = detail

    def __repr__(self) -> str:
        flag = "pass" if self.passed else "FAIL"
        return f"[{flag}] {self.name}: {self.detail}"

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "detail": self.detail}

    @staticmethod
    def from_json(d: Any, i: int) -> "HypothesisCheck":
        expect(isinstance(d, dict) and isinstance(d.get("name"), str)
               and isinstance(d.get("passed"), bool),
               f"field 'hypotheses[{i}]' must be an object with 'name' "
               "and boolean 'passed'")
        return HypothesisCheck(d["name"], d["passed"], d.get("detail"))


class Identity:
    """Certified product identity: lhs == factor_1 * ... * factor_k,
    exactly or modulo m^order."""

    __slots__ = ("label", "lhs", "factors", "modulo_order")

    def __init__(self, label: str, lhs: Poly, factors: Iterable[Poly],
                 modulo_order: int | None = None):
        self.label = label
        self.lhs = lhs
        self.factors = tuple(factors)
        self.modulo_order = modulo_order

    def failures(self) -> list[str]:
        prod = one = Poly.const(self.lhs.table, 1)
        *head, last = self.factors
        for f in head:
            prod = prod * f
        prod._check(last)
        diff = sum_of_products(one.table, ((self.lhs, one, 1),
                                           (prod, last, -1)))
        if _holds(diff, self.modulo_order):
            return []
        return [f"identity '{self.label}': the left side does not equal "
                f"the product of the factors{_where(self.modulo_order)}"]

    def verify(self) -> bool:
        return not self.failures()

    def to_json(self) -> dict:
        out = {"label": self.label, "lhs": format_poly(self.lhs),
               "factors": [format_poly(f) for f in self.factors]}
        if self.modulo_order is not None:
            out["modulo_order"] = self.modulo_order
        return out

    @staticmethod
    def from_json(d: Any, table: VarTable, i: int,
                  memo: dict[str, Poly]) -> "Identity":
        field = f"certificate.identities[{i}]"
        expect(isinstance(d, dict), f"field '{field}' must be an object")
        label = d.get("label", f"#{i}")
        expect(isinstance(label, str),
               f"field '{field}.label' must be a string")
        lhs = parse_field(d.get("lhs"), table, f"{field}.lhs", memo)
        factors = _parse_list(d.get("factors"), table, f"{field}.factors",
                              memo, nonempty=True)
        return Identity(label, lhs, factors, _parse_modulo(d, field))


class Inclusion:
    """Certified membership: unit*element == sum(cofactor_i * gen_i),
    exactly or modulo m^order; unit has nonzero constant term."""

    __slots__ = ("element", "ideal_gens", "unit", "cofactors", "modulo_order")

    def __init__(self, element: Poly, ideal_gens: Iterable[Poly], unit: Poly,
                 cofactors: Iterable[Poly], modulo_order: int | None = None):
        self.element = element
        self.ideal_gens = tuple(ideal_gens)
        self.unit = unit
        self.cofactors = tuple(cofactors)
        self.modulo_order = modulo_order

    def failures(self, name: str = "inclusion") -> list[str]:
        if len(self.cofactors) != len(self.ideal_gens):
            return [f"{name}: {len(self.cofactors)} cofactors for "
                    f"{len(self.ideal_gens)} generators"]
        if not local_unit_test(self.unit):
            return [f"{name}: the unit has zero constant term"]
        for p in (self.element, *self.ideal_gens, *self.cofactors):
            self.unit._check(p)
        unit, cofactors = _cleared(self.unit, self.cofactors)
        products = [(unit, self.element, 1)]
        products += [(c, g, -1) for c, g in zip(cofactors, self.ideal_gens)]
        diff = sum_of_products(self.unit.table, products)
        if _holds(diff, self.modulo_order):
            return []
        return [f"{name}: unit * element does not re-expand to the "
                f"cofactor combination{_where(self.modulo_order)}"]

    def verify(self) -> bool:
        return not self.failures()

    def to_json(self) -> dict:
        out = {"element": format_poly(self.element),
               "ideal": [format_poly(g) for g in self.ideal_gens],
               "unit": format_poly(self.unit),
               "cofactors": [format_poly(c) for c in self.cofactors]}
        if self.modulo_order is not None:
            out["modulo_order"] = self.modulo_order
        return out

    @staticmethod
    def from_json(d: Any, table: VarTable, i: int,
                  memo: dict[str, Poly]) -> "Inclusion":
        field = f"certificate.inclusions[{i}]"
        expect(isinstance(d, dict), f"field '{field}' must be an object")
        element = parse_field(d.get("element"), table, f"{field}.element",
                              memo)
        gens = _parse_list(d.get("ideal"), table, f"{field}.ideal", memo,
                           nonempty=True)
        unit = parse_field(d.get("unit"), table, f"{field}.unit", memo)
        cofactors = _parse_list(d.get("cofactors"), table,
                                f"{field}.cofactors", memo, nonempty=False)
        return Inclusion(element, gens, unit, cofactors,
                         _parse_modulo(d, field))


class NonInclusion:
    """Certified non-membership at the origin: element is not in I*R_m.

    The certificate is a linear functional lam on R/m^N, held as the Poly
    sum(lam(x^a) * x^a) over monomials of degree < N, that vanishes on
    every x^b * generator modulo m^N and has lam(element) != 0.  It is
    sound by Krull: u*element == sum(c_i * g_i) with u(0) != 0 would put
    element in I + m^N, since u is invertible modulo m^N, and lam
    vanishes on I + m^N."""

    __slots__ = ("element", "ideal_gens", "order", "functional")

    def __init__(self, element: Poly, ideal_gens: Iterable[Poly], order: int,
                 functional: Poly):
        self.element = element
        self.ideal_gens = tuple(ideal_gens)
        self.order = order
        self.functional = functional

    def failures(self, name: str = "non-inclusion") -> list[str]:
        lam, N = self.functional.terms, self.order
        for p in (self.element, *self.ideal_gens):
            self.functional._check(p)
        if any(sum(a) >= N for a in lam):
            return [f"{name}: the functional is not one on R/m^{N}: it "
                    f"weighs a monomial of degree >= {N}"]
        # lam(x^b * g) == sum over the terms c*x^t of g of c * lam(x^(b+t));
        # only the b with b + t in lam's support can make it nonzero
        for k, g in enumerate(self.ideal_gens):
            pairing: dict = {}
            for a, weight in lam.items():
                for t, c in g.terms.items():
                    if _mono_divides(t, a):
                        b = _mono_div(a, t)
                        pairing[b] = pairing.get(b, 0) + weight * c
            if any(pairing.values()):
                return [f"{name}: the functional does not vanish on a "
                        f"monomial multiple of generator {k} modulo m^{N}"]
        terms = self.element.terms
        if not sum(weight * terms.get(a, 0) for a, weight in lam.items()):
            return [f"{name}: the functional vanishes on the element"]
        return []


class AdjugateInclusion:
    """Certified inclusion of I_{n-1}(A) in (f1, f2) at the origin, as one
    identity: unit*adj(A) == f1*C1 + f2*C2, with unit invertible at 0.
    Exact only.

    adj(A) is never formed.  det(A) is recomputed from A and must equal
    f1*f2 != 0; then A*(f1*C1 + f2*C2) == unit*f1*f2*I must hold.  Since
    A*adj(A) = det(A)*I and det(A) != 0 makes A injective over the fraction
    field, that forces f1*C1 + f2*C2 = unit*adj(A), and the entries of
    adj(A) are the signed (n-1)-minors that generate I_{n-1}(A)."""

    __slots__ = ("matrix", "f1", "f2", "unit", "c1", "c2")

    def __init__(self, matrix, f1: Poly, f2: Poly, unit: Poly, c1, c2):
        self.matrix = tuple(tuple(row) for row in matrix)
        self.f1 = f1
        self.f2 = f2
        self.unit = unit
        self.c1 = tuple(tuple(row) for row in c1)
        self.c2 = tuple(tuple(row) for row in c2)

    def failures(self) -> list[str]:
        A, n = self.matrix, len(self.matrix)
        grids = (A, self.c1, self.c2)
        sizes = {len(g) for g in grids} | {len(r) for g in grids for r in g}
        if sizes != {n} or not n:
            return ["adjugate: A, C1 and C2 must be square of one size"]
        for p in (self.f2, self.unit,
                  *(e for g in grids for row in g for e in row)):
            self.f1._check(p)
        if not local_unit_test(self.unit):
            return ["adjugate: the unit has zero constant term"]
        det = self.f1 * self.f2
        if det.is_zero():
            return ["adjugate: f1*f2 is zero"]
        full = tuple(range(n))
        if minor(A, {}, full, full) != det:
            return ["adjugate: det(A) does not equal f1*f2"]
        # A*C1 and A*C2 are formed first, while their entries are small,
        # and multiplied by f1 and f2 only then
        unit, flat = _cleared(self.unit, [e for C in (self.c1, self.c2)
                                          for row in C for e in row])
        c1, c2, diagonal = flat[:n * n], flat[n * n:], unit * det
        table, zero = det.table, Poly.zero(det.table)
        for i, row in enumerate(A):
            for j in range(n):
                lhs = sum_of_products(table, [
                    (f, sum_of_products(table, [(a, c, 1) for a, c in
                                                zip(row, C[j::n])]), 1)
                    for f, C in ((self.f1, c1), (self.f2, c2))])
                if lhs != (diagonal if i == j else zero):
                    return ["adjugate: A*(f1*C1 + f2*C2) does not equal "
                            "unit*f1*f2*I"]
        return []

    def verify(self) -> bool:
        return not self.failures()

    def to_json(self) -> dict:
        def grid(rows):
            return [[format_poly(e) for e in row] for row in rows]
        return {"matrix": grid(self.matrix),
                "factors": [format_poly(self.f1), format_poly(self.f2)],
                "unit": format_poly(self.unit),
                "cofactors": [grid(self.c1), grid(self.c2)]}

    @staticmethod
    def from_json(d: Any, table: VarTable,
                  memo: dict[str, Poly]) -> "AdjugateInclusion":
        field = "certificate.adjugate"
        expect(isinstance(d, dict), f"field '{field}' must be an object")
        A = _parse_square(d.get("matrix"), table, f"{field}.matrix", memo,
                          None)
        factors = d.get("factors")
        expect(isinstance(factors, list) and len(factors) == 2,
               f"field '{field}.factors' must be a list of exactly two "
               "polynomial strings")
        f1, f2 = _parse_list(factors, table, f"{field}.factors", memo,
                             nonempty=True)
        unit = parse_field(d.get("unit"), table, f"{field}.unit", memo)
        cofactors = d.get("cofactors")
        expect(isinstance(cofactors, list) and len(cofactors) == 2,
               f"field '{field}.cofactors' must be a list of exactly two "
               "matrices")
        c1, c2 = (_parse_square(c, table, f"{field}.cofactors[{k}]", memo,
                                len(A)) for k, c in enumerate(cofactors))
        return AdjugateInclusion(A, f1, f2, unit, c1, c2)


class Verdict:
    """Outcome of a decision procedure plus its full certificate."""

    __slots__ = ("status", "hypotheses", "identities", "inclusions",
                 "adjugate", "failing", "failed_hypothesis", "scope", "order")

    def __init__(self, status: str, hypotheses, identities, inclusions,
                 scope: str, failing: Poly | None = None,
                 failed_hypothesis: str | None = None,
                 order: int | None = None,
                 adjugate: AdjugateInclusion | None = None):
        self.status = status
        self.hypotheses = list(hypotheses)
        self.identities = list(identities)
        self.inclusions = list(inclusions)
        self.adjugate = adjugate
        self.scope = scope
        self.failing = failing
        self.failed_hypothesis = failed_hypothesis
        self.order = order

    @property
    def exact(self) -> bool:
        """An exact verdict has no jet order."""
        return self.order is None

    def failures(self) -> list[str]:
        """Every certified fact that does not re-check by plain ring
        arithmetic, every entry whose strength disagrees with the
        provenance, and every status-shape violation; empty when valid."""
        out: list[str] = []
        for ident in self.identities:
            out.extend(ident.failures())
            out.extend(self._strength(f"identity '{ident.label}'",
                                      ident.modulo_order))
        for i, inc in enumerate(self.inclusions):
            out.extend(inc.failures(f"inclusion {i}"))
            out.extend(self._strength(f"inclusion {i}", inc.modulo_order))
        if self.adjugate is not None:
            out.extend(self.adjugate.failures())
            out.extend(self._strength("adjugate", None))
        out.extend(self._shape())
        return out

    def verify(self) -> bool:
        return not self.failures()

    def __repr__(self) -> str:
        return f"Verdict({self.status})"

    def _strength(self, name: str, modulo_order: int | None) -> list[str]:
        if self.exact and modulo_order is not None:
            return [f"{name}: a congruence modulo m^{modulo_order} in an "
                    "exact certificate"]
        if not self.exact and modulo_order != self.order:
            stated = ("an exact claim" if modulo_order is None
                      else f"modulo m^{modulo_order}")
            return [f"{name}: {stated} in a certificate of jet order "
                    f"{self.order}"]
        return []

    def _shape(self) -> list[str]:
        if self.status not in STATUSES:
            return [f"verdict shape: unknown verdict {self.status!r}"]
        # a hypothesis name listed twice counts by its last entry
        named = {h.name: h.passed for h in self.hypotheses}
        if self.status == INCONCLUSIVE:
            failed = self.failed_hypothesis
            if not (isinstance(failed, str) and named.get(failed) is False):
                return ["verdict shape: Inconclusive must name a failed "
                        "hypothesis from the checklist"]
            return []
        out = []
        if not all(h.passed for h in self.hypotheses):
            out.append(f"verdict shape: {self.status} with a failed "
                       "hypothesis")
        if self.status == NOT_DECOMPOSABLE and self.failing is None:
            out.append("verdict shape: NotDecomposable without a failing "
                       "element")
        if (self.status == DECOMPOSABLE and self.adjugate is None
                and not (self.identities or self.inclusions)):
            out.append("verdict shape: Decomposable with an empty "
                       "certificate")
        return out

    def to_json(self) -> dict:
        """The verdict's keys of a report: status, scope, checklist,
        certificate, and the failing element or hypothesis if any."""
        out = {
            "verdict": self.status,
            "scope": self.scope,
            "hypotheses": [h.to_json() for h in self.hypotheses],
            "certificate": {
                "identities": [d.to_json() for d in self.identities],
                "inclusions": [d.to_json() for d in self.inclusions],
            },
        }
        if self.adjugate is not None:
            out["certificate"]["adjugate"] = self.adjugate.to_json()
        if self.failing is not None:
            out["failing"] = format_poly(self.failing)
        if self.failed_hypothesis is not None:
            out["failed_hypothesis"] = self.failed_hypothesis
        return out

    @staticmethod
    def from_json(doc: dict, table: VarTable) -> "Verdict":
        """Decode a report; raises InputError naming a malformed field."""
        cert = doc.get("certificate")
        expect(isinstance(cert, dict), "field 'certificate' must be an object")
        identities = cert.get("identities", [])
        inclusions = cert.get("inclusions", [])
        expect(isinstance(identities, list),
               "field 'certificate.identities' must be a list")
        expect(isinstance(inclusions, list),
               "field 'certificate.inclusions' must be a list")
        # each distinct string is parsed once; Polys are never mutated,
        # so entries may share them
        memo: dict[str, Poly] = {}
        identities = [Identity.from_json(d, table, i, memo)
                      for i, d in enumerate(identities)]
        inclusions = [Inclusion.from_json(d, table, i, memo)
                      for i, d in enumerate(inclusions)]
        adjugate = cert.get("adjugate")
        if adjugate is not None:
            adjugate = AdjugateInclusion.from_json(adjugate, table, memo)

        status = doc.get("verdict")
        expect(isinstance(status, str), "field 'verdict' must be a string")
        expect(status in STATUSES,
               "field 'verdict' must be one of "
               + ", ".join(f"'{s}'" for s in STATUSES))
        hyps = doc.get("hypotheses", [])
        expect(isinstance(hyps, list), "field 'hypotheses' must be a list")
        hyps = [HypothesisCheck.from_json(h, i) for i, h in enumerate(hyps)]
        failing = None
        if "failing" in doc:
            failing = parse_field(doc["failing"], table, "failing", memo)

        prov = doc.get("provenance")
        expect(isinstance(prov, dict) and isinstance(prov.get("exact"), bool),
               "field 'provenance' must be an object with boolean 'exact'")
        jet = prov.get("jet_order")
        if prov["exact"]:
            expect(jet is None, "field 'provenance.jet_order' must be "
                                "absent when 'provenance.exact' is true")
        else:
            expect(isinstance(jet, int) and not isinstance(jet, bool)
                   and jet >= 1,
                   "field 'provenance.jet_order' must be an integer >= 1 "
                   "when 'provenance.exact' is false")
        return Verdict(status, hyps, identities, inclusions, doc.get("scope"),
                       failing=failing,
                       failed_hypothesis=doc.get("failed_hypothesis"),
                       order=jet, adjugate=adjugate)
