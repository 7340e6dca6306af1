"""Ideal arithmetic over Q[x1..xp]: Groebner bases with cofactor tracking,
normal forms, intersection, colon, and membership tests both in the
polynomial ring and in its localization at the origin.

Membership is decided under grevlex; any order gives the same answers,
and the order only shapes the cofactors.  Every positive membership
answer carries an Inclusion certificate whose re-expansion reproduces
the tested element exactly; callers are expected to re-check witnesses
before trusting them.  A local question, f in I R_m for the maximal
ideal m at the origin, takes the first of these answers that applies,
cheapest first (`member_local`):

1. f = 0 lies in every ideal;
2. a unit f is outside an I inside m, since then I R_m lies in m R_m;
3. f in I globally lies in I R_m, with unit 1;
4. a generator g_k with g_k(0) != 0 makes I R_m the whole ring, and
   g_k * f == f * g_k is the inclusion;
5. by Krull's intersection theorem, f is outside I R_m exactly when it
   is outside I + m^N for some N; the jet oracle's echelon tests
   N = 2, ..., JET_SEPARATION_CAP, and a separating order yields a
   NonInclusion certificate;
6. otherwise the colon decides exactly:

       f in I R_m  <=>  (I : f) contains a polynomial with nonzero
                        constant term, i.e. 1 in (I : f) + m.

Every step is sound and the colon is exact, so the order changes which
certificate an answer carries, never the answer.

Pair handling in Buchberger follows the Gebauer-Moeller installation
(both classical criteria), with deterministic tie-breaking so repeated
runs produce identical bases.

Reduction is fraction-free.  Each basis element keeps, beside its Poly,
the primitive integer polynomial p and the rational scale s with
element == p / s, computed once when the element is made.  The division
loop (`ring._reduce_terms`) divides by p alone, and the S-polynomial of
two elements is built from their p's as an integer polynomial with one
integer scale.  Rationals come back in two places: the quotients of a
reduction, each term one exact quotient (so cofactors are the rationals
a division over Q would give), and the reduced basis, made monic as it
leaves `_interreduce`.  Every intermediate polynomial is a scalar
multiple of the one a division over Q would hold, so pivots, pairs,
bases and cofactors are exactly those of that division.

The same engine computes Groebner bases of submodules of R^r: a vector
is encoded as a polynomial linear in r extra position variables, and
under an elimination order on those variables the order is position
over term.  Reduction never divides across positions, since a divisor's
leading position variable must appear in the dividend's monomial; the
only module-specific step is that no S-pair is formed between leading
terms at different positions (see `matrix.kernel`).
"""

from __future__ import annotations

import math
from operator import add
from typing import Iterable

from .ring import (
    MAX_JET_MONOMIALS,
    Coeff,
    InvariantError,
    Monomial,
    Order,
    Poly,
    RingError,
    VarTable,
    _accumulate,
    _div,
    _divisor,
    _jet_span,
    _mono_div,
    _mono_divides,
    _mono_lcm,
    _reduce_terms,
    divide_exact,
    elimination,
    grevlex,
    local_unit_test,
    sum_of_products,
)
from .certificate import Inclusion, NonInclusion
from .oracle import JetEchelon

# The highest jet order `member_local` tries before the colon.  Most
# non-members of small ideals separate by order 4, and an element that
# separates at no order (a local-only member) pays one echelon per order.
JET_SEPARATION_CAP = 6


class _Gen:
    """One basis element: poly, its leading monomial and coefficient
    (lm, lc), and div, the shape `_reduce_terms` divides by, built once
    here: poly as p / scale with p primitive with integer coefficients.
    vec is the cofactor vector, poly == sum(vec[j] * original_gen[j]),
    or None when untracked."""

    __slots__ = ("poly", "lm", "lc", "div", "vec", "seq")

    def __init__(self, poly: Poly, order: Order, vec, seq: int):
        self.poly = poly
        self.div = _divisor(poly, order)
        self.lm = self.div[0]
        self.lc = poly.terms[self.lm]
        self.vec = vec
        self.seq = seq


def _reduce(f: Poly, basis: list[_Gen], order: Order, vec, scale: int = 1,
            sign: int = -1):
    """Full normal form of f / scale modulo basis: (remainder, cofactors)
    with f / scale == sum(q_i * basis[i].poly) + remainder for the
    quotients q_i of the division loop, no remainder term divisible by a
    basis leading monomial, and cofactors[j] == vec[j] + sign *
    sum(q_i * basis[i].vec[j]), each one `sum_of_products`.  With sign -1
    and vec that of f / scale, they are the remainder's cofactors.  An
    untracked reduction passes vec None and gets None."""
    table = f.table
    remainder, quotients = _reduce_terms(
        dict(f.terms), [g.div for g in basis], order, scale=scale)
    if vec is not None:
        one = Poly.const(table, 1)
        qs = [(basis[i].vec, Poly._trusted(table, q))
              for i, q in quotients.items()]
        vec = tuple(sum_of_products(table, [(v, one, 1)] + [
            (q, bvec[j], sign) for bvec, q in qs]) for j, v in enumerate(vec))
    return Poly._trusted(table, remainder), vec


def _coprime(a: Monomial, b: Monomial) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def _update(G: list[_Gen], B: list[tuple[_Gen, _Gen]], h: _Gen,
            positions: int):
    """Gebauer-Moeller pair update: fold h into (G, B) applying both
    Buchberger criteria.  Deterministic: all queues are ordered lists.

    With `positions` > 0 the last that many variables mark the positions
    of a submodule of R^positions, and h is paired only with elements
    whose leading term sits at its own position."""
    C = [(h, g) for g in G
         if not positions or g.lm[-positions:] == h.lm[-positions:]]
    D: list[tuple[_Gen, _Gen]] = []
    while C:
        _, g = C.pop(0)
        lcm_hg = _mono_lcm(h.lm, g.lm)
        survives = _coprime(h.lm, g.lm) or not any(
            _mono_divides(_mono_lcm(h.lm, other.lm), lcm_hg)
            for _, other in C + D
        )
        if survives:
            D.append((h, g))
    E = [(a, b) for a, b in D if not _coprime(a.lm, b.lm)]
    B_new: list[tuple[_Gen, _Gen]] = []
    for g1, g2 in B:
        lcm12 = _mono_lcm(g1.lm, g2.lm)
        if (
            not _mono_divides(h.lm, lcm12)
            or _mono_lcm(g1.lm, h.lm) == lcm12
            or _mono_lcm(h.lm, g2.lm) == lcm12
        ):
            B_new.append((g1, g2))
    B_new.extend(E)
    G_new = [g for g in G if not _mono_divides(h.lm, g.lm)]
    G_new.append(h)
    return G_new, B_new


def _spoly(a: _Gen, b: _Gen):
    """S-polynomial of a and b as (S, scale, vec): the S-polynomial is
    S / scale, S with integer coefficients built from the primitive
    forms alone, and vec is its cofactor vector (None when untracked)."""
    table = a.poly.table
    lcm = _mono_lcm(a.lm, b.lm)
    ua, ub = _mono_div(lcm, a.lm), _mono_div(lcm, b.lm)
    _, lc_a, tail_a, _ = a.div
    _, lc_b, tail_b, _ = b.div
    # x^ua * a/lc(a) - x^ub * b/lc(b), times lc_a*lc_b/g; the leading
    # terms cancel
    g = math.gcd(lc_a, lc_b)
    ka, kb = lc_b // g, lc_a // g
    terms: dict[Monomial, Coeff] = {}
    _accumulate(terms, ((tuple(map(add, ua, m)), ka * c) for m, c in tail_a))
    _accumulate(terms, ((tuple(map(add, ub, m)), -kb * c) for m, c in tail_b))
    vec = None
    if a.vec is not None:
        ta = Poly._trusted(table, {ua: _div(1, a.lc)})
        tb = Poly._trusted(table, {ub: _div(1, b.lc)})
        vec = tuple(sum_of_products(table, ((ta, x, 1), (tb, y, -1)))
                    for x, y in zip(a.vec, b.vec))
    return Poly._trusted(table, terms), ka * lc_a, vec


def _buchberger(inputs: list[_Gen], order: Order, positions: int = 0):
    """Reduced Groebner basis of the inputs; tracked (every element with
    its cofactor vector) exactly when the inputs carry one."""
    seq = len(inputs)
    G: list[_Gen] = []
    B: list[tuple[_Gen, _Gen]] = []
    for gen in inputs:
        remainder, vec = _reduce(gen.poly, G, order, gen.vec)
        if remainder.is_zero():
            continue
        h = _Gen(remainder, order, vec, gen.seq)
        G, B = _update(G, B, h, positions)
    while B:
        # smallest lcm first, then the lowest (a.seq, b.seq); `order` sorts
        # the largest monomial first, so the pair wanted has the largest
        pair = max(
            B,
            key=lambda ab: (
                order(_mono_lcm(ab[0].lm, ab[1].lm)),
                -ab[0].seq,
                -ab[1].seq,
            ),
        )
        B.remove(pair)
        s, scale, svec = _spoly(pair[0], pair[1])
        remainder, vec = _reduce(s, G, order, svec, scale)
        if remainder.is_zero():
            continue
        h = _Gen(remainder, order, vec, seq)
        G, B = _update(G, B, h, positions)
        seq += 1
    return _interreduce(G, order)


def _interreduce(G: list[_Gen], order: Order) -> list[_Gen]:
    """Minimal generators, tail-reduced against each other, leading
    coefficient 1; sorted by descending leading monomial."""
    minimal: list[_Gen] = []
    # scan by ascending leading monomial
    for g in sorted(G, key=lambda g: order(g.lm), reverse=True):
        if not any(_mono_divides(h.lm, g.lm) for h in minimal):
            minimal.append(g)
    reduced: list[_Gen] = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        remainder, vec = _reduce(g.poly, others, order, g.vec)
        scale = _div(1, remainder.leading(order)[1])
        if vec is not None:
            vec = tuple(scale * c for c in vec)
        reduced.append(_Gen(remainder * scale, order, vec, g.seq))
    reduced.sort(key=lambda g: order(g.lm))
    return reduced


class Ideal:
    """Finitely generated ideal, with its tracked grevlex Groebner basis
    computed once.

    The zero ideal is represented by the single generator 0; otherwise
    zero generators are dropped.
    """

    __slots__ = ("table", "generators", "_basis")

    def __init__(self, table: VarTable, generators: Iterable[Poly]):
        gens = tuple(generators)
        if not gens:
            raise RingError("an ideal needs at least one generator")
        for g in gens:
            if g.table != table:
                raise RingError("generator declared over a different VarTable")
        nonzero = tuple(g for g in gens if not g.is_zero())
        self.table = table
        self.generators = nonzero if nonzero else (Poly.zero(table),)
        self._basis: list[_Gen] | None = None

    def is_zero(self) -> bool:
        return len(self.generators) == 1 and self.generators[0].is_zero()

    def basis(self) -> list[_Gen]:
        """The reduced grevlex Groebner basis, each element with its
        cofactor vector over the generators; computed on the first call."""
        if self._basis is None:
            n, table = len(self.generators), self.table
            self._basis = [] if self.is_zero() else _buchberger(
                [_Gen(g, grevlex, tuple(Poly.const(table, int(i == j))
                                        for i in range(n)), j)
                 for j, g in enumerate(self.generators)], grevlex)
        return self._basis

    def __repr__(self) -> str:
        return "Ideal(" + ", ".join(str(g) for g in self.generators) + ")"


def groebner_basis(I: Ideal, order: Order = grevlex) -> list[Poly]:
    """Reduced Groebner basis of I under `order`, a monomial sort key."""
    if I.is_zero():
        return []
    return [g.poly for g in _buchberger(
        [_Gen(g, order, None, j) for j, g in enumerate(I.generators)], order)]


def normal_form(f: Poly, I: Ideal):
    """Remainder of f modulo I under grevlex plus cofactors c aligned with
    I's generators: f = sum(c_i g_i) + remainder."""
    if I.is_zero():
        return f, (Poly.zero(f.table),)
    zeros = (Poly.zero(f.table),) * len(I.generators)
    return _reduce(f, I.basis(), grevlex, zeros, sign=1)


def member_global(f: Poly, I: Ideal):
    """Does f lie in I inside the polynomial ring?  (answer, Inclusion with
    unit 1, or None)."""
    remainder, cofactors = normal_form(f, I)
    if remainder.is_zero():
        return True, Inclusion(f, I.generators, Poly.const(f.table, 1),
                               cofactors)
    return False, None


def _drop_last(f: Poly, target: VarTable) -> Poly:
    return Poly(target, {mono[:-1]: coeff for mono, coeff in f.terms.items()})


def intersect(I: Ideal, J: Ideal) -> Ideal:
    """I cap J, by eliminating a fresh trailing t from t*I + (1-t)*J."""
    table = I.table
    if J.table != table:
        raise RingError("ideal intersection needs a common VarTable")
    if I.is_zero() or J.is_zero():
        return Ideal(table, (Poly.zero(table),))
    tname, = table.fresh_names(["t"])
    ext = table.extend([tname])
    t = Poly.var(ext, tname)
    one_minus_t = Poly.const(ext, 1) - t
    gens = [t * g.lift(ext) for g in I.generators]
    gens += [one_minus_t * h.lift(ext) for h in J.generators]
    kept = [g for g in groebner_basis(Ideal(ext, gens), elimination(1))
            if g.degree_in(tname) == 0]
    if not kept:
        return Ideal(table, (Poly.zero(table),))
    return Ideal(table, [_drop_last(p, table) for p in kept])


def colon(I: Ideal, f: Poly) -> Ideal:
    """I : f = {g : g*f in I}, via (I cap (f)) with each generator divided by f."""
    if f.is_zero():
        raise RingError("colon by zero")
    meet = intersect(I, Ideal(I.table, (f,)))
    if meet.is_zero():
        return meet
    return Ideal(I.table, [divide_exact(g, f) for g in meet.generators])


def member_local(f: Poly, I: Ideal):
    """Does f lie in I after localizing at the origin?

    Returns (True, Inclusion) or (False, NonInclusion or None) by the
    route of the module docstring.  The local-unit no and the colon's no
    carry no certificate; a colon unit and a jet functional are
    re-checked before they are returned.
    """
    if f.is_zero():
        zeros = tuple(Poly.zero(f.table) for _ in I.generators)
        return True, Inclusion(f, I.generators, Poly.const(f.table, 1), zeros)
    if I.is_zero():
        return False, None
    if local_unit_test(f) and not contains_local_unit(I):
        # I lies in m and f does not, so neither does f lie in I R_m
        return False, None
    ok, witness = member_global(f, I)
    if ok:
        return True, witness
    for k, g in enumerate(I.generators):
        if local_unit_test(g):
            cofactors = [Poly.zero(f.table)] * len(I.generators)
            cofactors[k] = f
            return True, Inclusion(f, I.generators, g, cofactors)
    separated = _jet_separation(f, I)
    if separated is not None:
        return False, separated
    quot = colon(I, f)
    for candidate in quot.generators:
        if local_unit_test(candidate):
            unit = candidate
            inside, inner = member_global(unit * f, I)
            if not inside:
                raise InvariantError("colon certificate failed to re-verify")
            return True, Inclusion(f, I.generators, unit, inner.cofactors)
    return False, None


def _jet_separation(f: Poly, I: Ideal) -> NonInclusion | None:
    """A checked NonInclusion of f in I R_m at the least order N in 2..
    JET_SEPARATION_CAP at which f is outside I + m^N, or None.  The search
    stops early where the jet space would pass MAX_JET_MONOMIALS.  Order 1
    never separates here: I lies in m and f(0) == 0 by then."""
    nvars = len(f.table)
    for N in range(2, JET_SEPARATION_CAP + 1):
        if _jet_span(N, nvars) > MAX_JET_MONOMIALS:
            break
        functional = JetEchelon(I.generators, f.table, N).separator(f)
        if functional is not None:
            certificate = NonInclusion(f, I.generators, N, functional)
            if certificate.failures():
                raise InvariantError("jet separation failed to re-verify")
            return certificate
    return None


def ideal_sum(I: Ideal, J: Ideal) -> Ideal:
    if I.table != J.table:
        raise RingError("ideal sum needs a common VarTable")
    if I.is_zero():
        return J
    if J.is_zero():
        return I
    return Ideal(I.table, I.generators + J.generators)


def ideal_product(I: Ideal, J: Ideal) -> Ideal:
    if I.table != J.table:
        raise RingError("ideal product needs a common VarTable")
    gens = []
    seen = set()
    for g in I.generators:
        for h in J.generators:
            p = g * h
            if p.key() not in seen:
                seen.add(p.key())
                gens.append(p)
    return Ideal(I.table, gens)


def contains_local_unit(I: Ideal) -> bool:
    """Is I the whole local ring?  True iff some generator is a unit at 0."""
    return any(local_unit_test(g) for g in I.generators)
