"""Exact multivariate polynomial arithmetic over the rationals.

A polynomial is a dictionary mapping exponent tuples to nonzero rational
coefficients, attached to a fixed, ordered variable table.  Every Poly
keeps that invariant: each coefficient is nonzero and canonical (an int
when integral, a Fraction with denominator > 1 otherwise, never a float)
and each exponent tuple has the table's width.  An int and the equal
Fraction hash, compare and print alike, so keys and text forms do not
depend on which one is stored; ints keep the common integral arithmetic
off Fraction.  Coefficients are normalized only where they are created
(the constructor, the accumulation of sums and products, scalar
multiplication, the parser and the division loop), and a quotient of two
coefficients is formed by `_div`, which stays exact.  The public
constructor checks the invariant on every dict it is given; arithmetic
results (sums, products, negation, lifts, truncations, homogeneous parts,
exact quotients) are built from operands that already hold it and skip
the re-check.  The ambient ring is read as the localization of
Q[x1,...,xp] at the origin: units are exactly the elements with nonzero
constant term, and series-style operations (truncation, square roots)
treat a polynomial together with an explicit order bound as a jet.
`minor` is the one memoized determinant expansion, which `matrix` and
the certificate re-check both run.

Products go through one multiply-accumulate kernel, `sum_of_products`,
which adds a signed sum of products term by term into one dict; `*`,
`minor` and every other sum of products in the package run it.  When a
call forms enough term products, it keys monomials by packed ints, the
exponents as little-endian bytes, so that a monomial product is one int
addition.  Two invariants make that exact.  A monomial is packed only
when every exponent of the call's operands is below `PACK_LIMIT` (128),
so that an exponent sum stays below 256 and never carries into the next
byte; any larger exponent sends the call to the tuple loop.  Polys are never
mutated after they are built, so the packed form a Poly builds on first
use, in its `_packed` slot, stays valid for its lifetime.  `Poly.terms`
is keyed by exponent tuples throughout; packed keys never leave the
kernel.

Variable tables are immutable; "extending the ring by new variables"
creates a fresh table with the old names as a prefix, and polynomials are
lifted into it by zero-padding their exponents.  So the variables to
eliminate are always the trailing ones.  A monomial order is its sort
key, which puts the largest monomial first: `min(monos, key=order)` is
the leading monomial, and a min-heap on it pops monomials in descending
order.  Membership is decided under `grevlex`, and `intersect` and
`kernel` eliminate a trailing block under `elimination(k)`.
"""

from __future__ import annotations

import heapq
import math
import operator
import re
import sys
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Sequence

Monomial = tuple[int, ...]
Order = Callable[[Monomial], tuple]
Coeff = int | Fraction


class RingError(Exception):
    pass


class TableMismatchError(RingError):
    """Operands live over different variable tables."""


class ParseError(RingError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


class NonDivisibleError(RingError):
    pass


class SeriesSqrtError(RingError):
    """No square root exists with the requested shape."""


class InvariantError(RingError):
    """An internally produced certificate failed its own re-check; this
    always indicates a bug, never bad input."""


class VarTable:
    """Ordered list of variable names.

    The order is fixed at creation; extensions always append.  Two tables
    compare equal iff their names agree, so lifted polynomials from
    independently built but identical extensions interoperate.
    """

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise RingError("variable names must be unique")
        for name in names:
            if not _VAR_NAME.fullmatch(name):
                raise RingError(f"invalid variable name {name!r}")
        self.names = names
        self._index = {name: i for i, name in enumerate(names)}

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __eq__(self, other) -> bool:
        return isinstance(other, VarTable) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"VarTable({list(self.names)})"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise RingError(f"undeclared variable {name!r}") from None

    def extend(self, names: Iterable[str]) -> "VarTable":
        """New table with `names` appended; existing names keep their slots."""
        names = tuple(names)
        for name in names:
            if name in self._index:
                raise RingError(f"variable {name!r} already declared")
        return VarTable(self.names + names)

    def fresh_names(self, stems: Iterable[str]) -> list[str]:
        """One name per stem, absent from the table and from each other:
        the stem itself if free, else the first free of stem0, stem1, ..."""
        taken = set(self._index)
        names = []
        for stem in stems:
            name, k = stem, 0
            while name in taken:
                name, k = f"{stem}{k}", k + 1
            taken.add(name)
            names.append(name)
        return names


_VAR_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
# The parser's tokens: an ASCII number, an ASCII name or any other single
# character outside `\s`, which is exactly the set for which str.isspace()
# holds; the scan skips those between tokens.
_TOKEN = re.compile(r"[0-9]+|[A-Za-z][A-Za-z0-9_]*|\S")


def grevlex(mono: Monomial) -> tuple:
    """The grevlex order as its sort key, largest monomial first: higher
    total degree first, then the smaller exponent in the last variable
    where two monomials differ."""
    return (-sum(mono), mono[::-1])


def elimination(block: int) -> Order:
    """Sort key of the elimination order on the trailing `block`
    variables: their exponents compare first (by grevlex) and the others
    next (by grevlex), so any monomial containing an eliminated variable
    beats every monomial free of them."""
    cut = -block
    return lambda mono: (grevlex(mono[cut:]), grevlex(mono[:cut]))


def _mono_divides(a: Monomial, b: Monomial) -> bool:
    return all(map(operator.le, a, b))


def _mono_div(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(operator.sub, a, b))


def _mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def _coeff(value) -> Coeff:
    """`value` as a canonical coefficient: an int when integral, else a
    Fraction.  A float is refused rather than read as its binary-rounded
    rational."""
    if type(value) is int:
        return value
    if isinstance(value, float):
        raise RingError(f"float coefficient {value!r}; use int or Fraction")
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _div(a: Coeff, b: Coeff) -> Coeff:
    """The exact quotient a / b of two canonical coefficients, itself
    canonical (`/` on two ints would give a float)."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    q = a / b
    return q.numerator if q.denominator == 1 else q


class Poly:
    """An exact polynomial over a table: {exponent tuple -> nonzero
    coefficient}, each coefficient an int when integral and a Fraction
    otherwise."""

    __slots__ = ("table", "terms", "_packed")

    def __init__(self, table: VarTable, terms: Mapping[Monomial, Coeff] | None = None):
        self.table = table
        clean: dict[Monomial, Coeff] = {}
        if terms:
            width = len(table)
            for mono, coeff in terms.items():
                coeff = _coeff(coeff)
                if coeff == 0:
                    continue
                if len(mono) != width:
                    raise RingError("exponent tuple does not match variable table")
                clean[tuple(mono)] = coeff
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(table: VarTable) -> "Poly":
        return Poly(table)

    @staticmethod
    def const(table: VarTable, value) -> "Poly":
        return Poly(table, {(0,) * len(table): value})

    @staticmethod
    def var(table: VarTable, name: str, power: int = 1) -> "Poly":
        mono = [0] * len(table)
        mono[table.index(name)] = power
        return Poly(table, {tuple(mono): 1})

    def lift(self, target: VarTable) -> "Poly":
        """Reinterpret over an extended table (old names must be a prefix)."""
        if target == self.table:
            return self
        if target.names[: len(self.table)] != self.table.names:
            raise TableMismatchError("target table does not extend this one")
        pad = (0,) * (len(target) - len(self.table))
        return Poly._trusted(
            target, {mono + pad: c for mono, c in self.terms.items()})

    # -- predicates and views ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> Coeff:
        return self.terms.get((0,) * len(self.table), 0)

    def order(self) -> int | None:
        """Min total degree of a term (the vanishing order); None if zero."""
        if not self.terms:
            return None
        return min(sum(m) for m in self.terms)

    def homogeneous_part(self, degree: int) -> "Poly":
        return Poly._trusted(
            self.table, {m: c for m, c in self.terms.items() if sum(m) == degree})

    def lowest_form(self) -> "Poly":
        d = self.order()
        return self if d is None else self.homogeneous_part(d)

    def degree_in(self, name: str) -> int:
        i = self.table.index(name)
        if not self.terms:
            return -1
        return max(m[i] for m in self.terms)

    def leading(self, order: Order = grevlex) -> tuple[Monomial, Coeff]:
        if not self.terms:
            raise RingError("zero polynomial has no leading term")
        mono = min(self.terms, key=order)
        return mono, self.terms[mono]

    def trailing(self, order: Order = grevlex) -> tuple[Monomial, Coeff]:
        if not self.terms:
            raise RingError("zero polynomial has no trailing term")
        mono = max(self.terms, key=order)
        return mono, self.terms[mono]

    def key(self) -> tuple:
        """Hashable canonical form (table-independent content)."""
        return tuple(sorted(self.terms.items()))

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _trusted(table: VarTable, terms: dict[Monomial, Coeff]) -> "Poly":
        """Wrap a dict freshly built from valid operands, without the
        re-check: `terms` must already hold the invariant and must not be
        the dict of any other Poly."""
        p = object.__new__(Poly)
        p.table = table
        p.terms = terms
        return p

    def _pack(self) -> list[tuple[int, Coeff]] | None:
        """The (packed monomial, coefficient) pairs of the terms, or None
        when an exponent is `PACK_LIMIT` or more.  A monomial packs into
        the int whose little-endian bytes are its exponents.  Built on
        first use and kept in the `_packed` slot, which stays unset until
        then: building a Poly does no work for it."""
        try:
            return self._packed
        except AttributeError:
            pass
        terms = self.terms
        if terms and self.table.names and max(map(max, terms)) >= PACK_LIMIT:
            packed = None
        else:
            packed = [(int.from_bytes(m, "little"), c)
                      for m, c in terms.items()]
        self._packed = packed
        return packed

    def _check(self, other) -> None:
        if not isinstance(other, Poly):
            raise RingError(f"{type(other).__name__} operand {other!r}; "
                            "use int, Fraction or Poly")
        if self.table != other.table:
            raise TableMismatchError("polynomials over different variable tables")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.table == other.table and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.table, self.key()))

    def __neg__(self) -> "Poly":
        return Poly._trusted(self.table, {m: -c for m, c in self.terms.items()})

    def __add__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.table, other)
        self._check(other)
        out = dict(self.terms)
        _accumulate(out, other.terms.items())
        return Poly._trusted(self.table, out)

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.table, other)
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Poly.zero(self.table)
            k = _coeff(other)
            out = {}
            for m, c in self.terms.items():
                c *= k
                out[m] = c if type(c) is int or c.denominator != 1 \
                    else c.numerator
            return Poly._trusted(self.table, out)
        self._check(other)
        return sum_of_products(self.table, ((self, other, 1),))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int) or n < 0:
            raise RingError("exponent must be a nonnegative integer")
        return _power(self, n, Poly.__mul__)

    # -- formatting ----------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)})"


def _power(base: Poly, n: int,
           product: Callable[[Poly, Poly], Poly]) -> Poly:
    """base ** n by repeated squaring, each product formed by `product`."""
    result = Poly.const(base.table, 1)
    while n:
        if n & 1:
            result = product(result, base)
        n >>= 1
        if n:
            base = product(base, base)
    return result


def _accumulate(out: dict[Monomial, Coeff], terms) -> None:
    """Add (monomial, nonzero coefficient) pairs into `out` in place,
    dropping a monomial as soon as its coefficient cancels to zero and
    storing an integral Fraction as an int."""
    for mono, coeff in terms:
        c = out.get(mono)
        if c is None:
            out[mono] = coeff if type(coeff) is int \
                or coeff.denominator != 1 else coeff.numerator
        else:
            c += coeff
            if c:
                out[mono] = c if type(c) is int or c.denominator != 1 \
                    else c.numerator
            else:
                del out[mono]


# `sum_of_products` packs monomials into ints when every exponent of its
# operands is below PACK_LIMIT (the sum of two such exponents is below
# 256, so adding two packed monomials never carries from one byte into
# the next) and its term products times the table's width reach
# PACK_WORK.  A tuple product costs time in proportion to the width, a
# packed one about the same at any width, while packing the operands and
# unpacking the result cost a share of their own.  Timed on fresh
# operands (CPython 3.11, a shared 2-core host), the packed loop
# overtook the tuple loop at about 16 term products over 12 variables,
# 24 to 32 over 6 and 32 to 48 over 2 or 3; below that the tuple loop
# wins, by up to a third on products of one or two terms.
PACK_WORK = 192
PACK_LIMIT = 128


def sum_of_products(table: VarTable,
                    products: Sequence[tuple[Poly, Poly, int]]) -> Poly:
    """The sum of sign * a * b over the (a, b, sign) triples of
    `products`, sign 1 or -1, all over `table`.

    Every term product is added straight into one dict: no product is
    built as a Poly of its own and no running sum is copied.  Monomials
    are keyed by their packed ints (see `Poly._pack`) when the call is
    large enough and all exponents allow it, else by exponent tuples;
    each result monomial is unpacked once.  A monomial whose coefficient
    cancels is dropped, and an integral Fraction is stored as an int.
    """
    out: dict = {}
    get = out.get
    width = len(table.names)
    work = 0
    for a, b, _ in products:
        work += len(a.terms) * len(b.terms)
    if work * width >= PACK_WORK:
        packed = [(a._pack(), b._pack(), sign) for a, b, sign in products]
        if all(left is not None and right is not None
               for left, right, _ in packed):
            for left, right, sign in packed:
                for ma, ca in left:
                    if sign < 0:
                        ca = -ca
                    for mb, cb in right:
                        m = ma + mb
                        c = get(m)
                        out[m] = ca * cb if c is None else c + ca * cb
            return Poly._trusted(table, {
                tuple(m.to_bytes(width, "little")):
                    c if type(c) is int or c.denominator != 1
                    else c.numerator
                for m, c in out.items() if c})
    add = operator.add
    for a, b, sign in products:
        right = b.terms.items()
        for ma, ca in a.terms.items():
            if sign < 0:
                ca = -ca
            for mb, cb in right:
                m = tuple(map(add, ma, mb))
                c = get(m)
                c = ca * cb if c is None else c + ca * cb
                if c:
                    out[m] = c if type(c) is int or c.denominator != 1 \
                        else c.numerator
                else:
                    del out[m]
    return Poly._trusted(table, out)


def _format_term(names: tuple[str, ...], mono: Monomial, coeff: Coeff) -> str:
    vars_part = "*".join(
        name if e == 1 else f"{name}^{e}" for name, e in zip(names, mono) if e
    )
    mag = abs(coeff)
    if not vars_part:
        return str(mag)
    if mag == 1:
        return vars_part
    return f"{mag}*{vars_part}"


def format_poly(f: Poly) -> str:
    """Canonical text form: grevlex-descending terms, '^' powers, '/' rationals.

    A coefficient longer than the interpreter's limit on integer-to-string
    conversion raises RingError; the limit itself is left as it is."""
    if not f.terms:
        return "0"
    monos = sorted(f.terms, key=grevlex)
    pieces = []
    for i, mono in enumerate(monos):
        coeff = f.terms[mono]
        try:
            body = _format_term(f.table.names, mono, coeff)
        except ValueError:
            raise RingError(
                f"a coefficient has more than {sys.get_int_max_str_digits()} "
                "digits, too long to print") from None
        if i == 0:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f" + {body}" if coeff > 0 else f" - {body}")
    return "".join(pieces)


# Parentheses nested deeper than this are rejected: each level costs the
# recursive-descent parser three stack frames, and Python's default limit
# is 1000 frames for the whole call stack.
MAX_NESTING = 100

# The most work the parser may spend expanding one polynomial string.
# Each product of two polynomials that it forms, a parenthesized factor
# times the factors before it or a step of a power's repeated squaring,
# is charged size(a) * size(b) before it is formed; a number raised to a
# power is expanded as a power of a constant.  `_size` counts a term once
# per started 64 bits of its coefficient, so the charge bounds the term
# products and the word products of their coefficients.  A number folded
# into a term's coefficient is charged the product of the two operands'
# word counts the same way, unless the coefficient is still the term's
# sign.  Expanding this much took 0.03 to 0.13 s (CPython 3.11, a shared
# 2-core host), and the costliest string of the tests and benchmark,
# 10^5000, charges 26,062.  A string that needs more is refused once the
# charge would pass it.
MAX_EXPANSION = 100_000


def _words(c: Coeff) -> int:
    return 1 + (c.numerator.bit_length() + c.denominator.bit_length()) // 64


def _size(p: Poly) -> int:
    return sum(map(_words, p.terms.values()))


class _Parser:
    """Recursive-descent parser for the polynomial expression grammar.

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' nat)*
    atom   := rational | var | '(' expr ')'

    One regex pass splits the text into tokens; the descent walks the
    token list, which ends in the sentinel "".  Token positions are needed
    only for an error message, and are found by a second pass then.  Every
    product the parser forms is charged to `work`, which may not pass
    `MAX_EXPANSION`.
    """

    def __init__(self, text: str, table: VarTable):
        self.text = text
        self.table = table
        self.slots = table._index
        self.toks = _TOKEN.findall(text)
        self.toks.append("")
        self.i = 0
        self.depth = 0
        self.work = 0

    def error(self, message: str, end_of: int | None = None) -> ParseError:
        """A ParseError at the start of the current token or, given
        `end_of`, just past that token."""
        starts = [m.start() for m in _TOKEN.finditer(self.text)]
        starts.append(len(self.text))
        if end_of is None:
            return ParseError(message, starts[self.i])
        return ParseError(message, starts[end_of] + len(self.toks[end_of]))

    def parse(self) -> Poly:
        result = self.expr()
        tok = self.toks[self.i]
        if tok:
            raise self.error(f"unexpected {tok[0]!r}")
        return result

    def expr(self) -> Poly:
        """Add every term into one dict, dropping a monomial as soon as
        its coefficient cancels."""
        toks = self.toks
        out: dict[Monomial, Coeff] = {}
        sign = 1
        if toks[self.i] in ("+", "-"):
            if toks[self.i] == "-":
                sign = -1
            self.i += 1
        self.term(out, sign)
        while toks[self.i] in ("+", "-"):
            sign = -1 if toks[self.i] == "-" else 1
            self.i += 1
            self.term(out, sign)
        return Poly._trusted(self.table, out)

    def term(self, out: dict[Monomial, Coeff], sign: int) -> None:
        """Add sign * (the next term) into `out`.  Numbers, variables and
        their powers fold into one coefficient and one exponent list; only
        parenthesized factors are multiplied out as polynomials."""
        toks = self.toks
        coeff = sign
        mono = [0] * len(self.table)
        product = None
        while True:
            if toks[self.i] == "(":
                inner = self.group()
                while toks[self.i] == "^":
                    self.i += 1
                    inner = _power(inner, self.nat(), self.multiply)
                product = inner if product is None \
                    else self.multiply(product, inner)
            else:
                value, slot = self.plain()
                power = 1
                while toks[self.i] == "^":
                    self.i += 1
                    power *= self.nat()
                if slot is None:
                    if power != 1:
                        value = _power(Poly.const(self.table, value), power,
                                       self.multiply).constant_term()
                    if coeff != 1 and coeff != -1:
                        # a product with the sign is linear in the number
                        self.charge(_words(coeff) * _words(value))
                    coeff *= value
                else:
                    mono[slot] += power
            if toks[self.i] != "*":
                break
            self.i += 1
        if not coeff:
            return
        mono = tuple(mono)
        if product is None:
            _accumulate(out, ((mono, coeff),))
        else:
            add = operator.add
            _accumulate(out, ((tuple(map(add, m, mono)), c * coeff)
                              for m, c in product.terms.items()))

    def charge(self, work: int) -> None:
        """Add `work` to the string's expansion work, which may not pass
        `MAX_EXPANSION`."""
        self.work += work
        if self.work > MAX_EXPANSION:
            raise self.error(f"expanding products and powers takes more "
                             f"than {MAX_EXPANSION} term products")

    def multiply(self, a: Poly, b: Poly) -> Poly:
        """a * b, charged to the string's expansion work first."""
        self.charge(_size(a) * _size(b))
        return a * b

    def group(self) -> Poly:
        """A parenthesized expression; the opening '(' is next."""
        if self.depth == MAX_NESTING:
            raise self.error(
                f"parentheses nested more than {MAX_NESTING} deep")
        self.depth += 1
        self.i += 1
        inner = self.expr()
        if self.toks[self.i] != ")":
            raise self.error("expected ')'")
        self.i += 1
        self.depth -= 1
        return inner

    def plain(self) -> tuple[Coeff, int | None]:
        """A number or a variable: (value, None) or (1, variable slot)."""
        tok = self.toks[self.i]
        slot = self.slots.get(tok)
        if slot is not None:
            self.i += 1
            return 1, slot
        # a token starting with an ASCII digit or letter is a whole number
        # or name; any other token is one character
        ch = tok[:1]
        if "0" <= ch <= "9":
            num = self.number()
            if self.toks[self.i] == "/":
                self.i += 1
                den = self.nat()
                if den == 0:
                    raise self.error("zero denominator", end_of=self.i - 1)
                return _div(num, den), None
            return num, None
        if "A" <= ch <= "Z" or "a" <= ch <= "z":
            raise self.error(f"undeclared variable {tok!r}")
        if not ch:
            raise self.error("unexpected end of input")
        raise self.error(f"unexpected {ch!r}")

    def nat(self) -> int:
        if not "0" <= self.toks[self.i][:1] <= "9":
            raise self.error("expected a number")
        return self.number()

    def number(self) -> int:
        """The number token at the cursor, read as an int."""
        try:
            value = int(self.toks[self.i])
        except ValueError:  # past the interpreter's digit limit
            raise self.error(
                f"number has more than {sys.get_int_max_str_digits()} "
                "digits") from None
        self.i += 1
        return value


def parse_poly(text: str, table: VarTable) -> Poly:
    """Parse an expression into canonical (expanded) form."""
    return _Parser(text, table).parse()


# `_reduce_terms` divides the content out of its working polynomial once
# its scale has grown past this many bits
CONTENT_BITS = 64


def _integral(terms: dict[Monomial, Coeff]) -> int:
    """Clear the denominators of `terms` in place; returns the factor d
    that the coefficients were multiplied by, 1 when all are ints."""
    dens = [c.denominator for c in terms.values() if type(c) is not int]
    if not dens:
        return 1
    d = math.lcm(*dens)
    for m, c in terms.items():
        terms[m] = c * d if type(c) is int \
            else c.numerator * (d // c.denominator)
    return d


def _reduce_terms(terms: dict[Monomial, Coeff], divisors, order: Order,
                  scale: int = 1):
    """Divide the polynomial `terms` / `scale` by `divisors`, consuming
    `terms`.

    `divisors` lists (leading monomial, leading coefficient, tail, scale)
    under `order`, as `_divisor` gives them: the divisor is p / scale with
    p a primitive polynomial with integer coefficients, its leading
    coefficient an int and its tail p's other (monomial, int) pairs.
    Each step takes the leading term c*x^m left and the first divisor, in
    list order, whose leading monomial divides x^m; it records the
    quotient term and subtracts its product with the tail straight into
    `terms`.  A leading term that no divisor divides moves to the
    remainder.

    The division is fraction-free.  Denominators of `terms` are cleared
    once, and from then on `terms` holds integers equal to D times the
    polynomial that a division over the rationals would hold at the same
    step, for one integer D (at first `scale` times the common
    denominator).  A step whose leading coefficient c the divisor's
    leading coefficient a does not divide first multiplies `terms` and D
    by |a| / gcd(a, c); every tail product is then a product of ints.
    Once D has grown past `CONTENT_BITS` bits, such a step ends by
    dividing `terms` and D by their greatest common divisor.  Since
    `terms` is always a scalar multiple of the rational polynomial, every
    step picks the same monomial and divisor.  Rationals come back in two
    places only: each quotient term and each remainder term is one exact
    quotient by D, formed when the term is found.

    The monomials of `terms` wait in a heap, largest first; a monomial
    that cancels leaves a stale entry, skipped when popped.  Each
    monomial's heap key is computed once per call.  Returns (remainder,
    quotients): plain dicts of canonical coefficients, quotients keyed by
    divisor index in order of first use, such that the polynomial given
    equals sum(q_i * divisor_i) + remainder.
    """
    scale = scale * _integral(terms)
    keys = {m: order(m) for m in terms}
    heap = [(k, m) for m, k in keys.items()]
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    add, le, gcd = operator.add, operator.le, math.gcd
    remainder: dict[Monomial, Coeff] = {}
    quotients: dict[int, dict[Monomial, Coeff]] = {}
    while heap:
        mono = pop(heap)[1]
        coeff = terms.pop(mono, None)
        if coeff is None:
            continue
        for i, (lm, lc, tail, lscale) in enumerate(divisors):
            if all(map(le, lm, mono)):
                break
        else:
            remainder[mono] = _div(coeff, scale)
            continue
        q = _mono_div(mono, lm)
        g = gcd(coeff, lc)
        factor, k = coeff // g, lc // g
        if k < 0:
            factor, k = -factor, -k
        if k != 1:
            for m in terms:
                terms[m] *= k
            scale *= k
        # the step takes factor/scale * x^q * p, which is
        # factor*lscale/scale * x^q times the divisor p / lscale
        quotients.setdefault(i, {})[q] = _div(factor * lscale, scale)
        for tm, tc in tail:
            m = tuple(map(add, q, tm))
            c = terms.get(m)
            if c is None:
                terms[m] = -factor * tc
                key = keys.get(m)
                if key is None:
                    key = keys[m] = order(m)
                push(heap, (key, m))
            else:
                c -= factor * tc
                if c:
                    terms[m] = c
                else:
                    del terms[m]
        if k != 1 and scale.bit_length() > CONTENT_BITS:
            g = gcd(scale, *terms.values())
            if g != 1:
                for m in terms:
                    terms[m] //= g
                scale //= g
    return remainder, quotients


def _divisor(g: Poly, order: Order = grevlex):
    """(leading monomial, leading coefficient, tail, scale) of a nonzero
    g, the divisor shape `_reduce_terms` takes: g == p / scale with p
    primitive with integer coefficients, the leading coefficient and the
    tail being p's."""
    p = dict(g.terms)
    d = _integral(p)
    content = math.gcd(*p.values())
    if content != 1:
        for m in p:
            p[m] //= content
    lm = min(p, key=order)
    return (lm, p[lm], tuple((m, c) for m, c in p.items() if m != lm),
            _div(d, content))


def divide_exact(f: Poly, g: Poly) -> Poly:
    """Quotient q with q*g == f exactly; raises NonDivisibleError otherwise."""
    f._check(g)
    if g.is_zero():
        raise NonDivisibleError("division by the zero polynomial")
    if f.is_zero():
        return Poly.zero(f.table)
    remainder, quotients = _reduce_terms(dict(f.terms), (_divisor(g),),
                                         grevlex)
    if remainder:
        raise NonDivisibleError("not divisible")
    return Poly._trusted(f.table, quotients[0])


def local_unit_test(f: Poly) -> bool:
    """Unit in the local ring at the origin = nonzero constant term."""
    return f.constant_term() != 0


def truncate(f: Poly, bound: int) -> Poly:
    """Drop every term of total degree >= bound."""
    if bound < 0:
        raise RingError("order bound must be nonnegative")
    return Poly._trusted(
        f.table, {m: c for m, c in f.terms.items() if sum(m) < bound})


def minor(entries: Sequence[Sequence[Poly]], memo: dict, rows: tuple,
          cols: tuple) -> Poly:
    """Determinant of the submatrix of the rows `entries` on increasing
    index tuples of equal length (at least one), memoized in `memo` under
    (rows, cols).

    Laplace expansion along the first row of the row set: the sub-minors
    it needs sit on the row suffix, so every larger minor that shares
    them reads them from the memo, and no step divides.  The entries are
    sparse polynomials, where expansion by minors beats elimination
    (Gentleman & Johnson, ACM TOMS 2(3), 1976).  Zero entries and zero
    sub-minors contribute no product, and the signed sum of the others
    is one `sum_of_products`.  The memo is a plain argument, not
    a closure over a recursive function, so it is freed when the caller
    drops it rather than at the next cyclic garbage collection.
    """
    if len(rows) == 1:
        return entries[rows[0]][cols[0]]
    value = memo.get((rows, cols))
    if value is None:
        top, rest = entries[rows[0]], rows[1:]
        products = []
        for k, c in enumerate(cols):
            if top[c].is_zero():
                continue
            sub = minor(entries, memo, rest, cols[:k] + cols[k + 1:])
            if not sub.is_zero():
                products.append((top[c], sub, -1 if k % 2 else 1))
        value = memo[(rows, cols)] = sum_of_products(top[cols[0]].table,
                                                     products)
    return value


def _sqrt_fraction(c: Coeff) -> Coeff | None:
    if c < 0:
        return None
    num = math.isqrt(c.numerator)
    den = math.isqrt(c.denominator)
    if num * num != c.numerator or den * den != c.denominator:
        return None
    return _div(num, den)


def _normalize_sign(g: Poly) -> Poly:
    if g.is_zero():
        return g
    _, c = g.trailing()
    return -g if c < 0 else g


def sqrt_exact(f: Poly) -> Poly | None:
    """Polynomial square root over Q, or None.

    Peels terms off the top: the leading monomial of the root is forced,
    and every later term is forced by the highest uncancelled term of the
    residual.  Candidate monomials must strictly decrease (grevlex: their
    sort keys strictly increase), which bounds the search; the result is
    verified by squaring.  Sign is fixed so the trailing term is positive.
    """
    if f.is_zero():
        return Poly.zero(f.table)
    lm, lc = f.leading()
    if any(e % 2 for e in lm):
        return None
    root_lc = _sqrt_fraction(lc)
    if root_lc is None:
        return None
    half = tuple(e // 2 for e in lm)
    g = Poly(f.table, {half: root_lc})
    rest = f - g * g
    last_key = grevlex(half)
    while not rest.is_zero():
        lm_r, lc_r = rest.leading()
        if not _mono_divides(half, lm_r):
            return None
        mono = _mono_div(lm_r, half)
        key = grevlex(mono)
        if key <= last_key:
            return None
        last_key = key
        t = Poly(f.table, {mono: _div(lc_r, 2 * root_lc)})
        g = g + t
        rest = f - g * g
    if not (g * g == f):
        return None
    return _normalize_sign(g)


# The most monomials of degree < N, in the variables in play, that a jet of
# order N may span (the jet oracle lists them), and the most terms a series
# root or its residual may hold.
MAX_JET_MONOMIALS = 500


def _jet_size_error(what: str, bound: int, nvars: int) -> RingError:
    return RingError(f"{what} {bound} over {nvars} variable"
                     f"{'s' * (nvars != 1)} spans more than "
                     f"{MAX_JET_MONOMIALS} monomials")


def _jet_span(bound: int, nvars: int) -> int:
    """The number of monomials of degree < bound in nvars variables."""
    return math.comb(bound - 1 + nvars, nvars) if bound > 0 else 0


def _check_jet_size(what: str, bound: int, nvars: int) -> None:
    """Refuse an order `bound` over `nvars` variables past the cap."""
    if _jet_span(bound, nvars) > MAX_JET_MONOMIALS:
        raise _jet_size_error(what, bound, nvars)


def sqrt_series(f: Poly, bound: int) -> Poly:
    """Series square root to the given order, built degree by degree.

    Requires the lowest homogeneous part of f to be a perfect square (even
    vanishing order).  Returns g with deg g < bound + ord(f)/2 and
    g**2 == f modulo terms of total degree >= bound + ord(f); raises
    SeriesSqrtError when no such series exists, and RingError as soon as
    the partial root or the residual f - g^2 holds more than
    MAX_JET_MONOMIALS terms.  Each step corrects the lowest degree left in
    the residual, so the steps are no more than the terms of the root.
    """
    if bound < 0:
        raise RingError("order bound must be nonnegative")
    if f.is_zero():
        return Poly.zero(f.table)
    d = f.order()
    if d % 2:
        raise SeriesSqrtError("vanishing order is odd")
    base = sqrt_exact(f.lowest_form())
    if base is None:
        raise SeriesSqrtError("lowest homogeneous part is not a perfect square")
    g = base
    # rest is f - g^2 below the degree d + bound, updated by each
    # correction; a correction of degree d/2 + j cancels the degree d + j
    # part of rest and adds only higher degrees, so rest's order rises
    rest = truncate(f - g * g, d + bound)
    while not rest.is_zero():
        # Forced correction: the lowest part of f - g^2, divided by 2*base.
        low = rest.order()
        try:
            t = divide_exact(rest.homogeneous_part(low), base) * Fraction(1, 2)
        except NonDivisibleError:
            raise SeriesSqrtError(
                f"no series square root: obstruction at degree {low}"
            ) from None
        rest = rest - truncate(t * (g + g + t), d + bound)
        g = g + t
        if max(len(g.terms), len(rest.terms)) > MAX_JET_MONOMIALS:
            raise _jet_size_error("series order", bound,
                                  sum(map(any, zip(*f.terms))))
    return _normalize_sign(g)


def y_profile(f: Poly, ynames: Iterable[str]) -> set[tuple[int, ...]]:
    """Exponent restrictions of the monomials supported entirely on `ynames`.

    A monomial contributes iff its exponents vanish on every variable
    outside the chosen subset; the restriction keeps the subset's order.
    """
    idx = [f.table.index(name) for name in ynames]
    inside = set(idx)
    out: set[tuple[int, ...]] = set()
    for mono in f.terms:
        if all(e == 0 for i, e in enumerate(mono) if i not in inside):
            out.add(tuple(mono[i] for i in idx))
    return out


def iter_monomials(nvars: int, below: int) -> Iterator[Monomial]:
    """All exponent tuples with total degree < below, grevlex-ascending."""
    monos: list[Monomial] = []

    def rec(prefix: list[int], budget: int, slots: int) -> None:
        if slots == 0:
            monos.append(tuple(prefix))
            return
        for e in range(budget + 1):
            prefix.append(e)
            rec(prefix, budget - e, slots - 1)
            prefix.pop()

    if below > 0:
        rec([], below - 1, nvars)
    monos.sort(key=grevlex, reverse=True)
    return iter(monos)
