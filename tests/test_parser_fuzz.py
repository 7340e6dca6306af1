"""The token-list parser against the character-loop parser it replaced.

`CharLoopParser` is a copy of the earlier `ring._Parser`, which walked the
text one character at a time and skipped whitespace with str.isspace.  On
random valid and malformed strings both parsers must give the same Poly
or the same `str(ParseError)`.  The strings mix in tabs, newlines and
Unicode whitespace, so the tokenizer's `\\s` is pinned to str.isspace.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest

from blocksplit.ring import (
    MAX_NESTING,
    ParseError,
    Poly,
    VarTable,
    _accumulate,
    parse_poly,
)

_VAR_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_NAT = re.compile(r"[0-9]+")


class CharLoopParser:
    """The character-loop recursive-descent parser, kept as a reference."""

    def __init__(self, text, table):
        self.text = text
        self.table = table
        self.pos = 0
        self.depth = 0

    def error(self, message):
        return ParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, char):
        if self.peek() != char:
            raise self.error(f"expected {char!r}")
        self.pos += 1

    def parse(self):
        result = self.expr()
        if self.peek():
            raise self.error(f"unexpected {self.peek()!r}")
        return result

    def expr(self):
        out = {}
        sign = 1
        if self.peek() in ("+", "-"):
            if self.peek() == "-":
                sign = -1
            self.pos += 1
        self.term(out, sign)
        while self.peek() in ("+", "-"):
            sign = -1 if self.peek() == "-" else 1
            self.pos += 1
            self.term(out, sign)
        return Poly(self.table, out)

    def term(self, out, sign):
        coeff = sign
        mono = [0] * len(self.table)
        product = None
        while True:
            if self.peek() == "(":
                inner = self.group()
                while self.peek() == "^":
                    self.pos += 1
                    inner = inner ** self.nat()
                product = inner if product is None else product * inner
            else:
                value, slot = self.plain()
                power = 1
                while self.peek() == "^":
                    self.pos += 1
                    power *= self.nat()
                if slot is None:
                    coeff *= value ** power
                else:
                    mono[slot] += power
            if self.peek() != "*":
                break
            self.pos += 1
        if not coeff:
            return
        mono = tuple(mono)
        if product is None:
            _accumulate(out, ((mono, Fraction(coeff)),))
        else:
            _accumulate(out, ((tuple(a + b for a, b in zip(m, mono)),
                               c * coeff) for m, c in product.terms.items()))

    def group(self):
        if self.depth == MAX_NESTING:
            raise self.error(
                f"parentheses nested more than {MAX_NESTING} deep")
        self.depth += 1
        self.pos += 1
        inner = self.expr()
        self.take(")")
        self.depth -= 1
        return inner

    def plain(self):
        ch = self.peek()
        if ch.isascii() and ch.isdigit():
            num = self.nat()
            if self.peek() == "/":
                self.pos += 1
                den = self.nat()
                if den == 0:
                    raise self.error("zero denominator")
                return Fraction(num, den), None
            return num, None
        if ch.isascii() and ch.isalpha():
            start = self.pos
            match = _VAR_NAME.match(self.text, self.pos)
            name = match.group(0)
            self.pos = match.end()
            if name not in self.table:
                self.pos = start
                raise self.error(f"undeclared variable {name!r}")
            return 1, self.table.index(name)
        if ch == "":
            raise self.error("unexpected end of input")
        raise self.error(f"unexpected {ch!r}")

    def nat(self):
        self.skip_ws()
        match = _NAT.match(self.text, self.pos)
        if match is None:
            raise self.error("expected a number")
        self.pos = match.end()
        return int(match.group(0))


TABLE = VarTable(("x", "y", "xy", "x1", "y_2"))

# str.isspace() holds for all of these but the last two
SPACES = [" ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
          "\x1f", "\x85", "\u00a0", "\u2003", "\u3000", "\u200b", "\ufeff"]
PIECES = ["x", "y", "xy", "x1", "y_2", "z", "ab", "X", "x_", "0", "1", "2",
          "3", "5", "+", "-", "*", "/", "^", "(", ")", "_", ".", ",",
          "\u00b2", "\u00e9", "\u0663", "\uff58"]


def outcome(parse):
    try:
        return "ok", str(parse())
    except ParseError as exc:
        return "error", str(exc)


def assert_same(text):
    old = outcome(lambda: CharLoopParser(text, TABLE).parse())
    new = outcome(lambda: parse_poly(text, TABLE))
    assert new == old, repr(text)
    if old[0] == "ok":
        assert parse_poly(text, TABLE) == CharLoopParser(text, TABLE).parse()


def random_expr(rng, depth=0):
    terms = []
    for _ in range(rng.randint(1, 3)):
        factors = []
        for _ in range(rng.randint(1, 3)):
            roll = rng.random()
            if roll < 0.2 and depth < 3:
                atom = "(" + random_expr(rng, depth + 1) + ")"
            elif roll < 0.5:
                atom = str(rng.randint(0, 12))
                if rng.random() < 0.3:
                    atom += "/" + str(rng.randint(1, 9))
            else:
                atom = rng.choice(TABLE.names)
            if rng.random() < 0.3:
                atom += "^" + str(rng.randint(0, 3))
            factors.append(atom)
        terms.append("*".join(factors))
    text = terms[0] if rng.random() < 0.7 else rng.choice("+-") + terms[0]
    for t in terms[1:]:
        text += rng.choice("+-") + t
    return text


def spaced(rng, text):
    """`text` with whitespace (or a lookalike) between some characters."""
    out = []
    for ch in text:
        if rng.random() < 0.15:
            out.append(rng.choice(SPACES))
        out.append(ch)
    if rng.random() < 0.3:
        out.append(rng.choice(SPACES))
    return "".join(out)


def mutate(rng, text):
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(chars))
        roll = rng.random()
        if roll < 0.4 and chars:
            del chars[min(i, len(chars) - 1)]
        elif roll < 0.8:
            chars.insert(i, rng.choice(PIECES + SPACES))
        elif chars:
            chars[min(i, len(chars) - 1)] = rng.choice(PIECES)
    return "".join(chars)


def tame(text):
    """Keep powers small, so no case expands a huge polynomial."""
    return text.count("^") <= 2 and not re.search(r"\^\s*[0-9]{2}", text)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_parsers_agree_on_random_strings(seed):
    rng = random.Random(seed)
    checked = {"ok": 0, "error": 0}
    while sum(checked.values()) < 1500:
        text = spaced(rng, random_expr(rng))
        if rng.random() < 0.6:
            text = mutate(rng, text)
        if not tame(text):
            continue
        assert_same(text)
        checked[outcome(lambda: parse_poly(text, TABLE))[0]] += 1
    # both kinds of string were exercised
    assert min(checked.values()) > 300


@pytest.mark.parametrize("seed", [4, 5])
def test_parsers_agree_on_random_token_soup(seed):
    rng = random.Random(seed)
    for _ in range(1500):
        text = "".join(rng.choice(PIECES + SPACES)
                       for _ in range(rng.randint(0, 12)))
        if tame(text):
            assert_same(text)


@pytest.mark.parametrize("text", [
    "", " ", "\u00a0", "x\x1c+\x1fy", "\tx\n*\ry ", "x\u200b", "12ab",
    "007*x", "10/20*y", "1/0", "1 / 0 * x", "3/ 00", "x^ 2", "x ^\u3000 2",
    "x^y", "x^", "(x", "(x))", "x y", "x 12", "()", "2x", "x__1", "x1y",
    "(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1),
    "(" * MAX_NESTING + "x" + ")" * MAX_NESTING,
    "+", "-", "--x", "x*", "x*/2", "1/x",
])
def test_parsers_agree_on_corner_cases(text):
    assert_same(text)
