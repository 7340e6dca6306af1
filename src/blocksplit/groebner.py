"""Ideal arithmetic over Q[x1..xp]: Groebner bases with cofactor tracking,
normal forms, intersection, colon, and membership tests both in the
polynomial ring and in its localization at the origin; in Q[t], also
the Bezout cofactors of a line certificate of coprimality (`decompose`).

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
runs produce identical bases.  Each pair is built once, as a record
with its lcm and selection key (`_update`).  An element enters G reduced
against G, and those whose leading monomial it divides leave, so G stays
minimal and `_interreduce` has only tails to reduce.

Cofactor vectors are formed on demand.  A tracked basis element keeps
a recipe for its vector, the S-pair scalings and reduction quotients
that made it, and the vector is formed when something first reads it
(`_Gen`).  A recipe names the vector nodes of earlier elements
(`_Vec`), not the elements, so it keeps no poly or divisor shape alive.
Only a membership answer reads vectors, so an S-pair that reduces to
zero, an element that no answer uses and a non-member form none
(`member_global`); the vectors formed are those an eager division over
Q would give.

Reduction is fraction-free.  Each basis element keeps, beside its Poly,
the primitive integer polynomial p and the rational scale s with
element == p / s, computed once when the element is made (`_Gen.div`).
Under grevlex over a table wide enough (`ring.PACK_DIVISION_WIDTH`),
the same shape also holds p keyed by packed grevlex ints, built then
too and dropped with the element.  The division loop
(`ring._reduce_terms`) divides by p alone, on those ints when every
divisor and the dividend allow it, and the S-polynomial of
two elements is built from their p's as an integer polynomial with one
integer scale.  Rationals come back in the quotients of a reduction,
each term one exact quotient, so cofactors are the rationals a division
over Q would give.  Every intermediate polynomial is a scalar multiple
of the one a division over Q would hold, so pivots, pairs, bases and
cofactors are exactly those of that division.

The engine's reduced basis is not monic: each element keeps the scale
it was made with.  A reduced basis is unique up to one constant per
element, and a cofactor q_i * vec_i does not change when element g_i is
scaled, so nothing the engine reads depends on the scale;
`groebner_basis`, `matrix.kernel` and the line certificate scale to
monic where they print or need leading coefficient 1.  Each element's
shape is built once: an input, or an element in `_interreduce`, is
reduced only when a leading monomial of the others divides one of its
terms (`_reducible`), and is otherwise kept as it is (`_reduce_or_keep`).

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
from itertools import chain
from operator import add, le
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


class _Vec:
    """A cofactor vector, or the recipe that forms it: the signed
    combination sum(sign * m * parent.vec) of earlier vectors, as
    (m, parent, sign) triples whose parents are `_Vec`s too.  Reading
    vec forms the vector from the recipe (`_form`), keeps it and drops
    the recipe.  A node holds nothing else, so an unread recipe keeps
    alive only the nodes that forming it reads, never the basis elements
    they belong to."""

    __slots__ = ("_vec", "_recipe")

    def __init__(self, vec, recipe=None):
        self._vec = vec
        self._recipe = recipe

    @property
    def vec(self):
        if self._recipe is not None:
            _form(self)
        return self._vec


class _Gen:
    """One basis element: poly, its leading monomial and coefficient
    (lm, lc), and div, the shape `_reduce_terms` divides by: poly as
    p / scale with p primitive with integer coefficients, with its packed
    grevlex form where the table allows one, built here once.

    vec is the cofactor vector, poly == sum(vec[j] * original_gen[j]),
    or None when untracked; it is read through node, the element's
    `_Vec`.  An input carries its vector; an element that Buchberger or
    the interreduction makes carries a recipe for it instead, over the
    nodes of earlier elements (an S-pair's two parents with their
    scalings, then each quotient of the reduction with its basis
    element), so an element whose vector no answer reads costs no
    product, and a formed vector holds no parent alive."""

    __slots__ = ("poly", "lm", "lc", "div", "seq", "node")

    def __init__(self, poly: Poly, order: Order, vec, seq: int,
                 recipe=None):
        self.poly = poly
        self.div = _divisor(poly, order)
        self.lm = self.div[0]
        self.lc = poly.terms[self.lm]
        self.seq = seq
        self.node = _Vec(vec, recipe)

    @property
    def vec(self):
        return self.node.vec


def _combine(table: VarTable, n: int, products) -> tuple[Poly, ...]:
    """The vector sum(sign * m * v.vec) of length n over the (m, v, sign)
    triples of `products`, v a `_Vec` or a `_Gen`, one `sum_of_products`
    per component."""
    vecs = [(m, v.vec, sign) for m, v, sign in products]
    return tuple(sum_of_products(table, [(m, v[j], sign)
                                         for m, v, sign in vecs])
                 for j in range(n))


def _form(node: _Vec) -> None:
    """Form node's vector from its recipe, after the vectors of the
    unformed nodes the recipe reads.  The walk keeps its own stack: a
    chain of recipes can be longer than the interpreter's recursion
    limit."""
    stack = [node]
    while stack:
        top = stack[-1]
        recipe = top._recipe
        if recipe is None:
            stack.pop()
            continue
        waiting = [v for _, v, _ in recipe if v._recipe is not None]
        if waiting:
            stack.extend(waiting)
            continue
        stack.pop()
        # each multiplier m is a Poly over the table the vectors live on
        top._vec = _combine(recipe[0][0].table, len(recipe[0][1]._vec),
                            recipe)
        top._recipe = None


def _reduce(f: Poly, basis: list[_Gen], order: Order, scale: int = 1):
    """Full normal form of f / scale modulo basis: (remainder, quotients)
    with f / scale == sum(q_i * basis[i].poly) + remainder, quotients
    {i: q_i} the nonzero quotients of the division loop by basis
    position, and no remainder term divisible by a basis leading
    monomial."""
    table = f.table
    remainder, quotients = _reduce_terms(
        dict(f.terms), [g.div for g in basis], order, scale=scale)
    return Poly._trusted(table, remainder), {
        i: Poly._trusted(table, q) for i, q in quotients.items()}


def _reducible(f: Poly, basis: list[_Gen]) -> bool:
    """Does some leading monomial of basis divide a term of f?  Exactly
    then does `_reduce` take a step; otherwise its remainder is f."""
    lms = [g.lm for g in basis]
    return any(all(map(le, lm, m)) for m in f.terms for lm in lms)


def _reduce_or_keep(gen: _Gen, basis: list[_Gen], order: Order,
                    tracked: bool) -> _Gen | None:
    """gen itself when nothing in basis divides into it; else its
    remainder modulo basis as a new element with gen's seq and the
    recipe gen's vector minus each quotient times its element's, or None
    when the remainder is zero."""
    if not _reducible(gen.poly, basis):
        return gen
    remainder, quotients = _reduce(gen.poly, basis, order)
    if remainder.is_zero():
        return None
    recipe = None
    if tracked:
        recipe = [(_constant(remainder.table, 1), gen.node, 1)] + [
            (q, basis[i].node, -1) for i, q in quotients.items()]
    return _Gen(remainder, order, None, gen.seq, recipe)


def _coprime(a: Monomial, b: Monomial) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def _update(G: list[_Gen], B: list[tuple], h: _Gen, order: Order,
            positions: int):
    """Gebauer-Moeller pair update: fold h into (G, B) applying both
    Buchberger criteria.  Deterministic: all queues are ordered lists.

    A pair is built once, as the record (key, lcm, a, b) with a the
    newer element, lcm = lcm(a.lm, b.lm) and key = (order(lcm), -a.seq,
    -b.seq).  h enters G reduced against it and the elements whose
    leading monomial h's divides leave, so G stays minimal.

    With `positions` > 0 the last that many variables mark the positions
    of a submodule of R^positions, and h is paired only with elements
    whose leading term sits at its own position."""
    C = [g for g in G
         if not positions or g.lm[-positions:] == h.lm[-positions:]]
    lcms = [_mono_lcm(h.lm, g.lm) for g in C]
    # a candidate survives when h and it are coprime, or when no lcm of a
    # later candidate or of an earlier survivor divides its own; a
    # coprime survivor makes no pair
    D: list[int] = []
    E: list[tuple] = []
    for i, g in enumerate(C):
        if _coprime(h.lm, g.lm):
            D.append(i)
        elif not any(_mono_divides(lcms[j], lcms[i])
                     for j in chain(range(i + 1, len(C)), D)):
            D.append(i)
            E.append(((order(lcms[i]), -h.seq, -g.seq), lcms[i], h, g))
    B = [pair for pair in B if not _mono_divides(h.lm, pair[1])
         or _mono_lcm(pair[2].lm, h.lm) == pair[1]
         or _mono_lcm(h.lm, pair[3].lm) == pair[1]]
    return [g for g in G if not _mono_divides(h.lm, g.lm)] + [h], B + E


def _spoly(a: _Gen, b: _Gen, lcm: Monomial):
    """S-polynomial of a and b, lcm = lcm(a.lm, b.lm), as (S, scale):
    the S-polynomial is S / scale, S with integer coefficients built
    from the primitive forms alone."""
    ua, ub = _mono_div(lcm, a.lm), _mono_div(lcm, b.lm)
    _, lc_a, tail_a, _, _ = a.div
    _, lc_b, tail_b, _, _ = b.div
    # x^ua * a/lc(a) - x^ub * b/lc(b), times lc_a*lc_b/g; the leading
    # terms cancel
    g = math.gcd(lc_a, lc_b)
    ka, kb = lc_b // g, lc_a // g
    terms: dict[Monomial, Coeff] = {}
    _accumulate(terms, ((tuple(map(add, ua, m)), ka * c) for m, c in tail_a))
    _accumulate(terms, ((tuple(map(add, ub, m)), -kb * c) for m, c in tail_b))
    return Poly._trusted(a.poly.table, terms), ka * lc_a


def _spoly_recipe(a: _Gen, b: _Gen, lcm: Monomial):
    """The S-polynomial's vector as a recipe: x^ua / lc(a) times a's
    vector minus x^ub / lc(b) times b's, lcm = x^ua * a.lm = x^ub * b.lm."""
    table = a.poly.table
    return [(Poly._trusted(table, {_mono_div(lcm, g.lm): _div(1, g.lc)}),
             g.node, sign) for g, sign in ((a, 1), (b, -1))]


def _constant(table: VarTable, c: Coeff) -> Poly:
    """The constant polynomial c, for a canonical nonzero c."""
    return Poly._trusted(table, {(0,) * len(table): c})


def _buchberger(inputs: list[_Gen], order: Order, positions: int = 0):
    """Reduced Groebner basis of the inputs; tracked (every element with
    its cofactor vector, formed on first read) exactly when the inputs
    carry one."""
    tracked = bool(inputs) and inputs[0].vec is not None
    seq = len(inputs)
    G: list[_Gen] = []
    B: list[tuple] = []
    for gen in inputs:
        gen = _reduce_or_keep(gen, G, order, tracked)
        if gen is not None:
            G, B = _update(G, B, gen, order, positions)
    while B:
        # smallest lcm first, then the lowest (a.seq, b.seq); `order` sorts
        # the largest monomial first, so the pair wanted has the largest
        # key.  No two keys are equal: every element has its own seq.
        pair = max(B)
        B.remove(pair)
        _, lcm, a, b = pair
        s, scale = _spoly(a, b, lcm)
        remainder, quotients = _reduce(s, G, order, scale)
        if remainder.is_zero():
            continue
        recipe = None
        if tracked:
            recipe = _spoly_recipe(a, b, lcm) + [
                (q, G[i].node, -1) for i, q in quotients.items()]
        h = _Gen(remainder, order, None, seq, recipe)
        G, B = _update(G, B, h, order, positions)
        seq += 1
    return _interreduce(G, order, tracked)


def _interreduce(G: list[_Gen], order: Order, tracked: bool) -> list[_Gen]:
    """G, each element tail-reduced against the others and not made
    monic, by descending leading monomial.  G is minimal (`_update`), so
    an element's remainder keeps its leading term and is never zero."""
    # reduce by ascending leading monomial, against the others so sorted
    G = sorted(G, key=lambda g: order(g.lm), reverse=True)
    return [_reduce_or_keep(g, G[:i] + G[i + 1:], order, tracked)
            for i, g in enumerate(G)][::-1]


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
        """The reduced grevlex Groebner basis, not monic (see the module
        docstring), each element with its cofactor vector over the
        generators; computed on the first call.
        Each input's unit vector is built from one shared zero and one
        shared one; the other elements' vectors are formed when first
        read (see `_Gen`)."""
        if self._basis is None:
            n, table = len(self.generators), self.table
            zero, one = Poly.zero(table), Poly.const(table, 1)
            self._basis = [] if self.is_zero() else _buchberger(
                [_Gen(g, grevlex, tuple(one if i == j else zero
                                        for i in range(n)), j)
                 for j, g in enumerate(self.generators)], grevlex)
        return self._basis

    def __repr__(self) -> str:
        return "Ideal(" + ", ".join(str(g) for g in self.generators) + ")"


def groebner_basis(I: Ideal, order: Order = grevlex) -> list[Poly]:
    """Reduced Groebner basis of I under `order`, a monomial sort key,
    each element monic."""
    if I.is_zero():
        return []
    return [g.poly * _div(1, g.lc) for g in _buchberger(
        [_Gen(g, order, None, j) for j, g in enumerate(I.generators)], order)]


def normal_form(f: Poly, I: Ideal):
    """Remainder of f modulo I under grevlex plus cofactors c aligned with
    I's generators: f = sum(c_i g_i) + remainder."""
    basis = I.basis()
    remainder, quotients = _reduce(f, basis, grevlex)
    return remainder, _combine(f.table, len(I.generators), [
        (q, basis[i], 1) for i, q in quotients.items()])


def member_global(f: Poly, I: Ideal):
    """Does f lie in I inside the polynomial ring?  (answer, Inclusion with
    unit 1, or None).  Only a member's cofactors are formed."""
    basis = I.basis()
    remainder, quotients = _reduce(f, basis, grevlex)
    if not remainder.is_zero():
        return False, None
    return True, Inclusion(f, I.generators, Poly.const(f.table, 1),
                           _combine(f.table, len(I.generators), [
                               (q, basis[i], 1)
                               for i, q in quotients.items()]))


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
    # never empty: over a domain the nonzero I*J lies in I cap J
    kept = [g for g in groebner_basis(Ideal(ext, gens), elimination(1))
            if g.degree_in(tname) == 0]
    return Ideal(table, [_drop_last(p, table) for p in kept])


def colon(I: Ideal, f: Poly) -> Ideal:
    """I : f = {g : g*f in I}, via (I cap (f)) with each generator divided by f."""
    if f.is_zero():
        raise RingError("colon by zero")
    meet = intersect(I, Ideal(I.table, (f,)))
    return Ideal(I.table, [divide_exact(g, f) for g in meet.generators])


def member_local(f: Poly, I: Ideal):
    """Does f lie in I after localizing at the origin?

    Returns (True, Inclusion) or (False, NonInclusion or None) by the
    route of the module docstring.  Three noes carry no certificate: the
    zero ideal's, the local-unit no and the colon's; a colon unit and a
    jet functional are re-checked before they are returned.
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
