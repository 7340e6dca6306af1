"""Certificates: the facts a verdict rests on, their JSON form, and the
re-check that both the emitting path and ``verify-cert`` run.

A certificate is plain ring arithmetic, a list of entries of the kinds in
``ENTRIES``.  An identity lhs == f_1 * ... * f_k is re-checked by
multiplying out, once the degrees agree; an inclusion unit*element ==
sum(cofactor_i * generator_i), with unit invertible at the origin, by
re-expanding; an adjugate inclusion unit*adj(A) == f1*C1 + f2*C2, which
puts every (n-1)-minor of A in (f1, f2) at once and implies det(A) ==
f1*f2, by the entries of one matrix product, each split by a quotient by
f2 that the check need not trust, and one (n-1)-minor that pins det(A)
(det(A) itself is expanded only to word a failure); a line certificate
that f1 and f2 are coprime, a*f1 + b*f2 == 1 on a line p + c*t along
which f1 keeps its degree, by restricting both factors to the line and
two univariate products; a point certificate that a polynomial f is not
the square of a polynomial, an integer point q at which f is negative or
not the square of a rational, by restricting f to the point q + 0*t.
Entries of a jet verdict state congruences modulo m^N instead of
equalities, and their strength must match the verdict's provenance: an
exact verdict holds no congruence, and a jet verdict of order N only
congruences modulo m^N.  A non-inclusion, which only
`groebner.member_local` returns so far, is a linear functional on R/m^N
that vanishes on I + m^N but not on the element, checked by pairing it
with the monomial multiples of each generator and with the element.

Decoding checks only the JSON shape and the caps on oversized input, raising
InputError naming the first field it refuses; every validity rule of an
entry is stated once, in its ``failures()``, whose messages ``verify-cert``
prints.  Nothing here uses Groebner bases or matrix code (each minor is
`ring.minor`, the expansion that `det` runs too, the restriction to a line
or a point is `ring.restrict_to_line`, and each sum of products is one
`ring.sum_of_products`; the adjugate check's quotients come from
`ring.divide`, and it holds whatever quotient it is given), so the check
stays independent of how a verdict arose.  Inclusions, the adjugate entry
and the line certificate clear their cofactors' denominators by one rule,
`_cleared`, before any product.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable, Sequence

from .ring import (
    LINE,
    ParseError,
    Poly,
    VarTable,
    _mono_div,
    _mono_divides,
    _sqrt_fraction,
    divide,
    format_poly,
    local_unit_test,
    minor,
    parse_poly,
    restrict_to_line,
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

# The highest total degree of a factor that a line certificate may have.
# Restricting a term of degree d to a line forms about d^2/2 products of
# univariate polynomials, whose coefficients grow with d.
MAX_LINE_DEGREE = 100


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
                memo: dict[str, Poly] | None, nonempty: bool) -> list[Poly]:
    ok = isinstance(items, list) and (bool(items) or not nonempty)
    expect(ok, f"field '{field}' must be a "
               f"{'non-empty ' if nonempty else ''}list of polynomial strings")
    return [parse_field(p, table, f"{field}[{k}]", memo)
            for k, p in enumerate(items)]


def _parse_pair(items: Any, table: VarTable, field: str,
                memo: dict[str, Poly] | None) -> tuple[Poly, Poly]:
    expect(isinstance(items, list) and len(items) == 2,
           f"field '{field}' must be a list of exactly two polynomial "
           "strings")
    return tuple(_parse_list(items, table, field, memo, nonempty=True))


def parse_matrix(rows: Any, table: VarTable, field: str,
                 memo: dict[str, Poly] | None = None) -> list[tuple[Poly, ...]]:
    """A non-empty rectangular matrix of polynomial strings, with at most
    `MAX_MATRIX_SIZE` rows and columns."""
    expect(isinstance(rows, list) and rows,
           f"field '{field}' must be a non-empty list of rows")
    expect(len(rows) <= MAX_MATRIX_SIZE,
           f"field '{field}' has {len(rows)} rows, more than "
           f"{MAX_MATRIX_SIZE}")
    width = None
    parsed = []
    for i, row in enumerate(rows):
        expect(isinstance(row, list) and row,
               f"field '{field}[{i}]' must be a non-empty list of "
               "polynomial strings")
        if width is None:
            width = len(row)
            expect(width <= MAX_MATRIX_SIZE,
                   f"field '{field}' has {width} columns, more than "
                   f"{MAX_MATRIX_SIZE}")
        expect(len(row) == width,
               f"field '{field}[{i}]' has {len(row)} entries, expected {width}")
        parsed.append(tuple(
            parse_field(entry, table, f"{field}[{i}][{j}]", memo)
            for j, entry in enumerate(row)))
    return parsed


def is_count(value: Any) -> bool:
    """An int, not a bool, of at least 1: a jet order, a rank or a
    modulus exponent."""
    return (isinstance(value, int) and not isinstance(value, bool)
            and value >= 1)


def format_grid(rows: Iterable[Iterable[Poly]]) -> list[list[str]]:
    """A matrix as a report prints it: rows of canonical strings."""
    return [[format_poly(e) for e in row] for row in rows]


def _parse_modulo(d: dict, field: str) -> int | None:
    N = d.get("modulo_order")
    if N is not None:
        expect(is_count(N),
               f"field '{field}.modulo_order' must be an integer >= 1")
    return N


def _cleared(unit: Poly, cofactors: Sequence[Poly]):
    """unit and cofactors times D, the lcm of the cofactors' coefficient
    denominators.  An inclusion, adjugate or line identity holds with
    them exactly when it holds with the originals, and when its other
    operands are integral, every term product of its re-check is then a
    product of ints."""
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


def _tail(d: dict) -> str:
    return f"   (mod m^{d['modulo_order']})" if "modulo_order" in d else ""


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

    @staticmethod
    def per_factor(name: str, detail: str,
                   labelled: Iterable[tuple[str, Any]],
                   tests: Sequence[tuple[Callable[[Any], bool], str]]
                   ) -> "HypothesisCheck":
        """The hypothesis `name` on each (label, factor) in turn: it fails
        at the first factor that a test (flags, what) flags, tests in
        order, with detail "<label> <what>", and passes with `detail`."""
        for label, factor in labelled:
            for flags, what in tests:
                if flags(factor):
                    return HypothesisCheck(name, False, f"{label} {what}")
        return HypothesisCheck(name, True, detail)


class Identity:
    """Certified product identity: lhs == factor_1 * ... * factor_k,
    exactly or modulo m^order, with k >= 1: a report cannot carry an
    empty factor list, so the re-check refuses one too."""

    KEY = COUNT = "identities"
    MANY = True
    NAME = "identity '{entry.label}'"
    __slots__ = ("label", "lhs", "factors", "modulo_order")

    def __init__(self, label: str, lhs: Poly, factors: Iterable[Poly],
                 modulo_order: int | None = None):
        self.label = label
        self.lhs = lhs
        self.factors = tuple(factors)
        self.modulo_order = modulo_order

    def failures(self, name: str = "") -> list[str]:
        name = name or self.NAME.format(entry=self)
        if not self.factors:
            return [f"{name}: the identity has no factors"]
        prod = one = Poly.const(self.lhs.table, 1)
        *head, last = self.factors
        for f in self.factors:
            one._check(f)
        # Q[x] is a domain: an exact product's degree is the sum of its
        # factors' degrees, which rules out a mismatch before any product
        degrees = [f.degree() for f in self.factors]
        if self.modulo_order is not None or self.lhs.degree() == (
                -1 if -1 in degrees else sum(degrees)):
            for f in head:
                prod = prod * f
            diff = sum_of_products(one.table, ((self.lhs, one, 1),
                                               (prod, last, -1)))
            if _holds(diff, self.modulo_order):
                return []
        return [f"{name}: the left side does not equal the product of the "
                f"factors{_where(self.modulo_order)}"]

    def verify(self) -> bool:
        return not self.failures()

    def to_json(self) -> dict:
        out = {"label": self.label, "lhs": format_poly(self.lhs),
               "factors": [format_poly(f) for f in self.factors]}
        if self.modulo_order is not None:
            out["modulo_order"] = self.modulo_order
        return out

    @staticmethod
    def text(d: dict) -> list[str]:
        rhs = " * ".join(f"({f})" for f in d["factors"])
        return [f"  {d['label']}: {d['lhs']} = {rhs}{_tail(d)}"]

    @staticmethod
    def from_json(d: dict, table: VarTable, field: str,
                  memo: dict[str, Poly]) -> "Identity":
        label = d.get("label", "#" + field.rpartition("[")[2].rstrip("]"))
        expect(isinstance(label, str),
               f"field '{field}.label' must be a string")
        lhs = parse_field(d.get("lhs"), table, f"{field}.lhs", memo)
        factors = _parse_list(d.get("factors"), table, f"{field}.factors",
                              memo, nonempty=True)
        return Identity(label, lhs, factors, _parse_modulo(d, field))


class Inclusion:
    """Certified membership: unit*element == sum(cofactor_i * gen_i),
    exactly or modulo m^order; unit has nonzero constant term."""

    KEY = COUNT = "inclusions"
    MANY = True
    NAME = "inclusion {i}"
    __slots__ = ("element", "ideal_gens", "unit", "cofactors", "modulo_order")

    def __init__(self, element: Poly, ideal_gens: Iterable[Poly], unit: Poly,
                 cofactors: Iterable[Poly], modulo_order: int | None = None):
        self.element = element
        self.ideal_gens = tuple(ideal_gens)
        self.unit = unit
        self.cofactors = tuple(cofactors)
        self.modulo_order = modulo_order

    def failures(self, name: str = "inclusion") -> list[str]:
        n, k = len(self.cofactors), len(self.ideal_gens)
        if n != k:
            return [f"{name}: {n} cofactor{'s' * (n != 1)} for {k} "
                    f"generator{'s' * (k != 1)}"]
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
    def text(d: dict) -> list[str]:
        return [f"  {d['element']} in ({', '.join(d['ideal'])})  [unit: "
                f"{d['unit']}; cofactors: {', '.join(d['cofactors'])}]"
                f"{_tail(d)}"]

    @staticmethod
    def from_json(d: dict, table: VarTable, field: str,
                  memo: dict[str, Poly]) -> "Inclusion":
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


def _parse_vector(items: Any, width: int, field: str) -> tuple[int, ...]:
    # the tool's own entries lie in [-32, 32], and restricting a factor to
    # a line costs more the wider its entries are
    ok = isinstance(items, list) and len(items) == width and all(
        type(e) is int and e.bit_length() < 8 for e in items)
    expect(ok, f"field '{field}' must be a list of {width} integers, each "
               "of fewer than 8 bits")
    return tuple(items)


class LineCoprime:
    """Certified coprimality: gcd(f1, f2) = 1, so (f1) cap (f2) = (f1*f2)
    both in the polynomial ring and at the origin.  Exact only.

    The certificate is a line p + c*t, with p and c integer vectors, and
    a, b in Q[t] with a*F1 + b*F2 == 1, where Fi = fi(p + c*t), and F1 of
    degree deg f1: the top-degree form of f1 does not vanish at c.  It is
    sound: a common factor h of degree e has a top form dividing f1's, so
    h(p + c*t) has degree e in t, and it divides a*F1 + b*F2 == 1, so
    e = 0.  The reduced Groebner basis of (F1, F2) in Q[t] gives
    deg a < deg f2 and deg b < deg f1, as `failures()` requires."""

    KEY = COUNT = NAME = "coprimality"
    MANY = False
    modulo_order = None
    __slots__ = ("f1", "f2", "point", "direction", "a", "b")

    def __init__(self, f1: Poly, f2: Poly, point: Sequence[int],
                 direction: Sequence[int], a: Poly, b: Poly):
        self.f1 = f1
        self.f2 = f2
        self.point = tuple(point)
        self.direction = tuple(direction)
        self.a = a
        self.b = b

    def failures(self, name: str = NAME) -> list[str]:
        one = Poly.const(LINE, 1)
        self.f1._check(self.f2)
        one._check(self.a)
        one._check(self.b)
        for cof, p, other, f in (("a", self.a, "f2", self.f2),
                                 ("b", self.b, "f1", self.f1)):
            if p.degree() >= f.degree():
                return [f"{name}: {cof} must have degree below that of "
                        f"{other}"]
        F1 = restrict_to_line(self.f1, self.point, self.direction)
        if F1.degree() != self.f1.degree():
            return [f"{name}: the top-degree form of f1 vanishes at the "
                    "direction"]
        F2 = restrict_to_line(self.f2, self.point, self.direction)
        one, (a, b) = _cleared(one, (self.a, self.b))
        if sum_of_products(LINE, ((a, F1, 1), (b, F2, 1))) != one:
            return [f"{name}: a*f1 + b*f2 does not restrict to 1 on the "
                    "line"]
        return []

    def to_json(self) -> dict:
        return {"factors": [format_poly(self.f1), format_poly(self.f2)],
                "point": list(self.point),
                "direction": list(self.direction),
                "a": format_poly(self.a), "b": format_poly(self.b)}

    @staticmethod
    def text(d: dict) -> list[str]:
        f1, f2 = d["factors"]
        return [f"coprimality: ({d['a']}) * f1(p + c*t) + ({d['b']}) * "
                "f2(p + c*t) = 1", f"  f1: {f1}", f"  f2: {f2}",
                f"  p: {d['point']}; c: {d['direction']}"]

    @staticmethod
    def from_json(d: dict, table: VarTable, field: str,
                  memo: dict[str, Poly]) -> "LineCoprime":
        f1, f2 = _parse_pair(d.get("factors"), table, f"{field}.factors",
                             memo)
        for k, f in enumerate((f1, f2)):
            expect(f.degree() <= MAX_LINE_DEGREE,
                   f"field '{field}.factors[{k}]' has degree "
                   f"{f.degree()}, more than {MAX_LINE_DEGREE}")
        point = _parse_vector(d.get("point"), len(table), f"{field}.point")
        direction = _parse_vector(d.get("direction"), len(table),
                                  f"{field}.direction")
        a = parse_field(d.get("a"), LINE, f"{field}.a")
        b = parse_field(d.get("b"), LINE, f"{field}.b")
        return LineCoprime(f1, f2, point, direction, a, b)


class AdjugateInclusion:
    """Certified inclusion of I_{n-1}(A) in (f1, f2) at the origin, as one
    identity: unit*adj(A) == f1*C1 + f2*C2, with unit invertible at 0.
    Exact only.

    adj(A) is never formed, and det(A) only to word a failure.  With
    f1*f2 != 0 and M = f1*C1 + f2*C2, first A*M == unit*f1*f2*I = c*I
    must hold.  As c != 0, A is invertible over the fraction field, and
    Cramer's rule adj(A) = det(A)*A^-1 gives M = (c/det(A))*adj(A).  So
    for the first nonzero entry M_ij, which exists as M != 0, M_ij ==
    unit*adj(A)_ij, one signed (n-1)-minor (1 for n = 1), holds exactly
    when det(A) == f1*f2; then M = unit*adj(A), and the entries of adj(A)
    are the signed (n-1)-minors that generate I_{n-1}(A).  A failed
    product is reported as det(A) != f1*f2 when it is one, which takes
    the full expansion.

    Entry (i, j) of that product is checked without multiplying A*C1 and
    A*C2 by the factors.  With P and Q the entries of A*C1 and A*C2, and
    q any polynomial, r = P - f2*q and s = Q + f1*(q - unit*delta_ij)
    give f1*r + f2*s == f1*P + f2*Q - unit*f1*f2*delta_ij, so the entry
    holds exactly when f1*r + f2*s == 0.  q is the quotient of P by f2
    that `ring.divide` proposes; a wrong one costs time, never soundness.
    When f1 and f2 are coprime (the line certificate proves it), f2
    divides P, and r and s are both zero, with only small products
    formed.  As f1 and f2 are nonzero and Q[x] is a domain, r zero and s
    not, or the reverse, fails at once; only when both are nonzero, as
    when the factors share a factor, is the full sum formed."""

    KEY = NAME = "adjugate"
    COUNT = "adjugates"
    MANY = False
    modulo_order = None
    __slots__ = ("matrix", "f1", "f2", "unit", "c1", "c2")

    def __init__(self, matrix, f1: Poly, f2: Poly, unit: Poly, c1, c2):
        self.matrix = tuple(tuple(row) for row in matrix)
        self.f1 = f1
        self.f2 = f2
        self.unit = unit
        self.c1 = tuple(tuple(row) for row in c1)
        self.c2 = tuple(tuple(row) for row in c2)

    def failures(self, name: str = NAME) -> list[str]:
        A, n = self.matrix, len(self.matrix)
        grids = (A, self.c1, self.c2)
        sizes = {len(g) for g in grids} | {len(r) for g in grids for r in g}
        if sizes != {n} or not n:
            return [f"{name}: A, C1 and C2 must be square of one size"]
        for p in (self.f2, self.unit,
                  *(e for g in grids for row in g for e in row)):
            self.f1._check(p)
        if not local_unit_test(self.unit):
            return [f"{name}: the unit has zero constant term"]
        det = self.f1 * self.f2
        if det.is_zero():
            return [f"{name}: f1*f2 is zero"]
        full = tuple(range(n))
        # the entries P of A*C1, divided by f2 at once; s is formed as
        # one sum, with Q's row products in it
        unit, flat = _cleared(self.unit, [e for C in (self.c1, self.c2)
                                          for row in C for e in row])
        c1, c2 = flat[:n * n], flat[n * n:]
        table, f1, f2 = det.table, self.f1, self.f2
        zero = Poly.zero(table)
        AC1 = [sum_of_products(table, [(a, c, 1) for a, c in
                                       zip(row, c1[j::n]) if c.terms])
               for row in A for j in range(n)]
        for k, (p, (q, _)) in enumerate(zip(AC1, divide(AC1, f2))):
            i, j = divmod(k, n)
            products = [(a, c, 1) for a, c in zip(A[i], c2[j::n]) if c.terms]
            r = p
            if q.terms:
                f2q = f2 * q
                r = zero if f2q.terms == p.terms else p - f2q
                products.append((f1, q, 1))
            if i == j:
                products.append((f1, unit, -1))
            s = sum_of_products(table, products)
            if not r.terms and not s.terms:
                continue
            if not r.terms or not s.terms or sum_of_products(
                    table, [(f1, r, 1), (f2, s, 1)]).terms:
                if minor(A, {}, full, full) != det:
                    return [f"{name}: det(A) does not equal f1*f2"]
                return [f"{name}: A*(f1*C1 + f2*C2) does not equal "
                        "unit*f1*f2*I"]
        # the product holds: the first nonzero entry of M pins det(A)
        for k in range(n * n):
            m = sum_of_products(table, [(f1, c1[k], 1), (f2, c2[k], 1)])
            if m.terms:
                break
        i, j = divmod(k, n)
        adj = Poly.const(table, 1) if n == 1 else minor(
            A, {}, full[:j] + full[j + 1:], full[:i] + full[i + 1:])
        if unit * adj != (-1) ** (i + j) * m:
            return [f"{name}: det(A) does not equal f1*f2"]
        return []

    def to_json(self) -> dict:
        return {"matrix": format_grid(self.matrix),
                "factors": [format_poly(self.f1), format_poly(self.f2)],
                "unit": format_poly(self.unit),
                "cofactors": [format_grid(self.c1), format_grid(self.c2)]}

    @staticmethod
    def text(d: dict) -> list[str]:
        (f1, f2), (c1, c2) = d["factors"], d["cofactors"]
        lines = [f"adjugate: ({d['unit']}) * adj(A) = ({f1}) * C1 + "
                 f"({f2}) * C2"]
        for name, rows in (("A", d["matrix"]), ("C1", c1), ("C2", c2)):
            lines.append(f"  {name}:")
            lines.extend(f"    [{', '.join(row)}]" for row in rows)
        return lines

    @staticmethod
    def from_json(d: dict, table: VarTable, field: str,
                  memo: dict[str, Poly]) -> "AdjugateInclusion":
        A = parse_matrix(d.get("matrix"), table, f"{field}.matrix", memo)
        f1, f2 = _parse_pair(d.get("factors"), table, f"{field}.factors",
                             memo)
        unit = parse_field(d.get("unit"), table, f"{field}.unit", memo)
        cofactors = d.get("cofactors")
        expect(isinstance(cofactors, list) and len(cofactors) == 2,
               f"field '{field}.cofactors' must be a list of exactly two "
               "matrices")
        c1, c2 = (parse_matrix(c, table, f"{field}.cofactors[{k}]", memo)
                  for k, c in enumerate(cofactors))
        return AdjugateInclusion(A, f1, f2, unit, c1, c2)


class NonSquare:
    """Certified non-square: f is not the square of a polynomial over Q.
    Exact only.

    The certificate is an integer point q and the value f(q), which is
    negative or not the square of a rational.  It is sound: f = g^2 would
    give f(q) = g(q)^2, the square of a rational.  `failures()`
    recomputes f(q) by restricting f to the point q + 0*t."""

    KEY = NAME = "nonsquare"
    COUNT = "nonsquares"
    MANY = False
    modulo_order = None
    __slots__ = ("poly", "point", "value")

    def __init__(self, poly: Poly, point: Sequence[int], value):
        self.poly = poly
        self.point = tuple(point)
        self.value = value

    def failures(self, name: str = NAME) -> list[str]:
        at = restrict_to_line(self.poly, self.point, (0,) * len(self.point))
        if at.constant_term() != self.value:
            return [f"{name}: the value is not that of f at the point"]
        if _sqrt_fraction(self.value) is not None:
            return [f"{name}: the value is the square of a rational"]
        return []

    def to_json(self) -> dict:
        return {"polynomial": format_poly(self.poly),
                "point": list(self.point), "value": str(self.value)}

    @staticmethod
    def text(d: dict) -> list[str]:
        return [f"nonsquare: f(q) = {d['value']} is not the square of a "
                "rational", f"  f: {d['polynomial']}", f"  q: {d['point']}"]

    @staticmethod
    def from_json(d: dict, table: VarTable, field: str,
                  memo: dict[str, Poly]) -> "NonSquare":
        f = parse_field(d.get("polynomial"), table, f"{field}.polynomial",
                        memo)
        expect(f.degree() <= MAX_LINE_DEGREE,
               f"field '{field}.polynomial' has degree {f.degree()}, more "
               f"than {MAX_LINE_DEGREE}")
        point = _parse_vector(d.get("point"), len(table), f"{field}.point")
        # a rational number is a polynomial in no variables
        value = parse_field(d.get("value"), VarTable(()), f"{field}.value")
        return NonSquare(f, point, value.constant_term())


# Every kind of certificate entry, in report order, with its report KEY,
# MANY (a list of them, or one), verify-cert COUNT key, failure NAME, and
# from_json(d, table, field, memo), failures(name), to_json(), text(d).
ENTRIES = (Identity, Inclusion, AdjugateInclusion, LineCoprime, NonSquare)
Fact = Identity | Inclusion | AdjugateInclusion | LineCoprime | NonSquare


def _located(cert: dict) -> list[tuple[type, Any, str]]:
    """A report certificate's entries as (kind, JSON form, field)."""
    located = []
    for kind in ENTRIES:
        field = f"certificate.{kind.KEY}"
        if kind.MANY:
            found = cert.get(kind.KEY, [])
            expect(isinstance(found, list), f"field '{field}' must be a list")
            located += [(kind, d, f"{field}[{i}]") for i, d in enumerate(found)]
        elif cert.get(kind.KEY) is not None:
            located.append((kind, cert[kind.KEY], field))
    return located


def certificate_text(cert: dict) -> list[str]:
    """A report certificate's text lines, a list kind's under its key."""
    lines, last = [], None
    for kind, d, _ in _located(cert):
        if kind.MANY and kind is not last:
            lines.append(f"{kind.KEY}:")
        last = kind
        lines += kind.text(d)
    return lines


def strength(order: int | None) -> dict:
    """The provenance keys of a report's strength: exact, or jet `order`."""
    jet = {} if order is None else {"jet_order": order}
    return {"exact": order is None, **jet}


def provenance_text(prov: dict) -> str:
    """A job report's provenance line: its order and the `strength`."""
    mode = "exact" if prov["exact"] else f"jet, order {prov['jet_order']}"
    return f"order: {prov['order']}; mode: {mode}"


class Verdict:
    """Outcome of a decision procedure plus its certificate, `facts`."""

    __slots__ = ("status", "hypotheses", "facts", "failing",
                 "failed_hypothesis", "scope", "order")

    def __init__(self, status: str, hypotheses, facts: Iterable[Fact],
                 scope: str, failing: Poly | None = None,
                 failed_hypothesis: str | None = None,
                 order: int | None = None):
        self.status = status
        self.hypotheses = list(hypotheses)
        self.facts = list(facts)
        self.scope = scope
        self.failing = failing
        self.failed_hypothesis = failed_hypothesis
        self.order = order

    @property
    def exact(self) -> bool:
        """An exact verdict has no jet order."""
        return self.order is None

    def of(self, kind: type) -> list:
        """The facts of one kind, in order."""
        return [fact for fact in self.facts if type(fact) is kind]

    def counts(self) -> dict[str, int]:
        """verify-cert's count of the certificate's entries of each kind."""
        return {kind.COUNT: len(self.of(kind)) for kind in ENTRIES}

    def failures(self) -> list[str]:
        """Every certified fact that does not re-check by plain ring
        arithmetic, every entry whose strength disagrees with the
        provenance, and every status-shape violation; empty when valid."""
        out: list[str] = []
        for kind in ENTRIES:
            for i, fact in enumerate(self.of(kind)):
                name = kind.NAME.format(i=i, entry=fact)
                out.extend(fact.failures(name))
                out.extend(self._strength(name, fact.modulo_order))
        for line in self.of(LineCoprime):
            if any({line.f1, line.f2} != {adj.f1, adj.f2}
                   for adj in self.of(AdjugateInclusion)):
                out.append("coprimality: the factors are not the adjugate "
                           "entry's f1 and f2")
        if any(entry.poly != self.failing for entry in self.of(NonSquare)):
            out.append("nonsquare: the polynomial is not the verdict's "
                       "failing element")
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
        out = []
        if self.failing is not None and self.status != NOT_DECOMPOSABLE:
            out.append(f"verdict shape: {self.status} with a failing element")
        # a hypothesis name listed twice counts by its last entry
        named = {h.name: h.passed for h in self.hypotheses}
        if self.status == INCONCLUSIVE:
            failed = self.failed_hypothesis
            if not (isinstance(failed, str) and named.get(failed) is False):
                out.append("verdict shape: Inconclusive must name a failed "
                           "hypothesis from the checklist")
            return out
        if self.failed_hypothesis is not None or not all(
                h.passed for h in self.hypotheses):
            out.append(f"verdict shape: {self.status} with a failed "
                       "hypothesis")
        if self.status == NOT_DECOMPOSABLE and self.failing is None:
            out.append("verdict shape: NotDecomposable without a failing "
                       "element")
        # a line certificate proves a hypothesis, never the decision
        if self.status == DECOMPOSABLE and all(
                type(fact) is LineCoprime for fact in self.facts):
            out.append("verdict shape: Decomposable with an empty "
                       "certificate")
        return out

    def to_json(self) -> dict:
        """The verdict's keys of a report: status, scope, checklist,
        certificate (a list kind even when empty), the provenance's
        strength, and the failing element or hypothesis if any."""
        cert = {kind.KEY: [fact.to_json() for fact in self.of(kind)]
                for kind in ENTRIES if kind.MANY}
        cert.update((f.KEY, f.to_json()) for f in self.facts if not f.MANY)
        out = {"verdict": self.status, "scope": self.scope,
               "hypotheses": [h.to_json() for h in self.hypotheses],
               "certificate": cert, "provenance": strength(self.order)}
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
        # each distinct string is parsed once; Polys are never mutated,
        # so entries may share them
        memo: dict[str, Poly] = {}
        facts = []
        for kind, d, field in _located(cert):
            expect(isinstance(d, dict), f"field '{field}' must be an object")
            facts.append(kind.from_json(d, table, field, memo))

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
            expect(is_count(jet), "field 'provenance.jet_order' must be an "
                   "integer >= 1 when 'provenance.exact' is false")
        return Verdict(status, hyps, facts, doc.get("scope"), failing=failing,
                       failed_hypothesis=doc.get("failed_hypothesis"),
                       order=jet)
