"""Determinants, Fitting ideals, reduced Groebner bases, the expression
parser, the monomial orders and the determinant factorizations of the
golden reports refereed by sympy.

sympy shares no code with blocksplit, so agreement here is evidence from
outside the minor expansion, the Groebner engine and the parser.  The
tests are skipped when sympy is absent.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import pathlib
import random
import re
from fractions import Fraction

import pytest

from blocksplit.cli import main
from blocksplit.certificate import NonInclusion
from blocksplit.groebner import Ideal, groebner_basis, member_local
from blocksplit.matrix import PolyMatrix, det, fitting_ideal
from blocksplit.quiver import Arrow, QuiverRep, Vertex, build_kronecker
from blocksplit.ring import (
    Poly,
    VarTable,
    elimination,
    format_poly,
    grevlex,
    parse_poly,
)

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402
from sympy.polys.orderings import ProductOrder  # noqa: E402
from sympy.polys.orderings import grevlex as sympy_grevlex  # noqa: E402

XYZ = VarTable(("x", "y", "z"))


def random_poly(rng, table, degree=2, terms=3):
    out = {}
    for _ in range(rng.randrange(terms + 1)):
        mono = [0] * len(table)
        for _ in range(rng.randrange(degree + 1)):
            mono[rng.randrange(len(table))] += 1
        mono = tuple(mono)
        out[mono] = out.get(mono, Fraction(0)) + rng.randrange(-3, 4)
    return Poly(table, out)


def random_matrix(rng, m, n):
    return PolyMatrix(XYZ, [[random_poly(rng, XYZ) for _ in range(n)]
                            for _ in range(m)])


def kronecker_form():
    """Kronecker form of a 3-vertex quiver (ranks 1, 2, 1, all nine arrows
    with small integer matrices): a 4x4 matrix over twelve variables."""
    rng = random.Random(97)
    table = VarTable(())
    vertices = [Vertex("1", 1), Vertex("2", 2), Vertex("3", 1)]
    arrows = []
    for src, tgt in itertools.product(vertices, repeat=2):
        entries = [[Poly.const(table, rng.randint(-3, 3))
                    for _ in range(src.rank)] for _ in range(tgt.rank)]
        arrows.append(Arrow(src.id, tgt.id, PolyMatrix(table, entries)))
    return build_kronecker(QuiverRep(table, vertices, arrows)).matrix


def poly_to_sympy(p, symbols):
    return sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*(s ** e for s, e in zip(symbols, mono)))
        for mono, c in p.terms.items()))


def to_sympy(M):
    symbols = sympy.symbols(M.table.names)
    return sympy.Matrix([[poly_to_sympy(M[i, j], symbols)
                          for j in range(M.cols)]
                         for i in range(M.rows)]), symbols


def terms_of(expr, symbols):
    """A sympy expression as {exponent tuple: Fraction}, zeros dropped."""
    poly = sympy.Poly(sympy.expand(expr), *symbols)
    return {mono: Fraction(int(c.p), int(c.q))
            for mono, c in poly.as_dict().items() if c != 0}


def cases():
    rng = random.Random(101)
    shapes = [(n, n) for n in (1, 2, 3, 4, 5) for _ in range(2)]
    shapes += [(2, 4), (4, 3)]
    out = [pytest.param(random_matrix(rng, m, n), id=f"random-{m}x{n}")
           for m, n in shapes]
    return out + [pytest.param(kronecker_form(), id="kronecker-3-vertex")]


@pytest.mark.parametrize("M", cases())
def test_det_and_fitting_agree_with_sympy(M):
    S, symbols = to_sympy(M)
    if M.rows == M.cols:
        assert det(M).terms == terms_of(S.det(method="berkowitz"), symbols)
    # the minors go through sympy's sparse polynomial ring, which is far
    # faster than expanding a symbolic determinant for each of them
    D = DomainMatrix.from_Matrix(S).convert_to(sympy.QQ[symbols])
    for j in range(1, min(M.rows, M.cols) + 1):
        expected = set()
        for rows in itertools.combinations(range(M.rows), j):
            for cols in itertools.combinations(range(M.cols), j):
                minor = D.extract(list(rows), list(cols)).det()
                if minor:
                    expected.add(frozenset(
                        (mono, Fraction(int(c.numerator), int(c.denominator)))
                        for mono, c in minor.items()))
        got = [frozenset(g.terms.items())
               for g in fitting_ideal(M, j).generators]
        if not expected:
            assert got == [frozenset()], j      # the zero ideal, as (0)
        else:
            assert len(set(got)) == len(got), j
            assert set(got) == expected, j


def random_proper_generator(rng):
    """One to three terms of degree 1 to 3 over x, y, z: no constant
    term, so the ideals are proper and their bases non-trivial."""
    out = {}
    for _ in range(rng.randint(1, 3)):
        mono = [0] * len(XYZ)
        for _ in range(rng.randint(1, 3)):
            mono[rng.randrange(len(XYZ))] += 1
        mono = tuple(mono)
        out[mono] = out.get(mono, Fraction(0)) + rng.choice((-3, -2, -1,
                                                             1, 2, 3))
    return Poly(XYZ, out)


def trailing_block(k):
    """sympy's form of elimination(k): grevlex on the trailing
    k variables first, grevlex on the others next."""
    return ProductOrder((sympy_grevlex, lambda m: m[-k:]),
                        (sympy_grevlex, lambda m: m[:-k]))


@pytest.mark.parametrize("order,sympy_order", [
    (grevlex, sympy_grevlex),
    (elimination(1), trailing_block(1)),
    (elimination(2), trailing_block(2)),
], ids=["grevlex", "trailing-1", "trailing-2"])
def test_reduced_groebner_basis_agrees_with_sympy(order, sympy_order):
    """Reduced bases are unique, so both must list the same monic
    polynomials.  sympy is asked over QQ: over its default ZZ it returns
    primitive integer bases, which are not monic.  The elimination orders
    are the ones `intersect` and `kernel` run on."""
    rng = random.Random(103)
    symbols = sympy.symbols(XYZ.names)
    for _ in range(30):
        gens = [random_proper_generator(rng) for _ in range(rng.randint(2, 3))]
        gens = [g for g in gens if not g.is_zero()] or [Poly.var(XYZ, "x")]
        ours = groebner_basis(Ideal(XYZ, gens), order)
        theirs = sympy.groebner([poly_to_sympy(g, symbols) for g in gens],
                                *symbols, order=sympy_order, domain="QQ")
        expected = [terms_of(e, symbols) for e in theirs.exprs]
        assert sorted(sorted(g.terms.items()) for g in ours) == \
            sorted(sorted(e.items()) for e in expected), gens


MEMBER_TABLES = [VarTable(("x1",)), VarTable(("x1", "x2")),
                 VarTable(("x1", "x2", "x3"))]


def test_member_local_negatives_agree_with_sympy():
    """Local-member-shaped cases: one to three variables, an element of up
    to three terms and one to three generators of up to two terms, all of
    degree <= 4.  A no that a jet order N separates is a claim that f is
    outside I + m^N; sympy must leave a nonzero remainder of f modulo its
    own grevlex basis of I + m^N.  Every yes must re-check."""
    rng = random.Random(107)
    separated = members = 0
    for _ in range(400):
        table = rng.choice(MEMBER_TABLES)
        gens = [g for g in (random_poly(rng, table, 4, 2)
                            for _ in range(rng.randint(1, 3)))
                if not g.is_zero()]
        f = random_poly(rng, table, 4, 3)
        if not gens:
            continue
        ok, w = member_local(f, Ideal(table, gens))
        if ok:
            members += 1
            assert w.failures() == [], (f, gens)
        elif isinstance(w, NonInclusion):
            separated += 1
            assert w.failures() == []
            symbols = sympy.symbols(table.names)
            power = [sympy.Mul(*c) for c in
                     itertools.combinations_with_replacement(symbols, w.order)]
            basis = sympy.groebner(
                [poly_to_sympy(g, symbols) for g in gens] + power, *symbols,
                order="grevlex", domain="QQ")
            _, remainder = basis.reduce(poly_to_sympy(f, symbols))
            assert remainder != 0, (f, gens, w.order)
    # seed 107: 224 yes and 93 no, 48 of them jet-separated; the others
    # are units outside an ideal inside m, or left to the colon
    assert separated >= 40 and members >= 100, (separated, members)


def random_expression(rng, names, depth=0):
    """Random parser input as (text, sympy expression): optional leading
    sign, sums of products, rationals, nested parentheses and chained
    powers.  The expression is built from the same choices, not from the
    text, and '^' is left-associative: a^m^n means (a^m)^n."""
    symbols = sympy.symbols(names)

    def atom(depth):
        kind = rng.random()
        if kind < 0.3 and depth < 3:
            text, value = expr(depth + 1)
            return f"({text})", value, True
        if kind < 0.6:
            i = rng.randrange(len(names))
            return names[i], symbols[i], False
        num = rng.randrange(0, 12)
        if rng.random() < 0.4:
            den = rng.randrange(1, 9)
            return f"{num}/{den}", sympy.Rational(num, den), False
        return str(num), sympy.Integer(num), False

    def factor(depth):
        text, value, grouped = atom(depth)
        for _ in range(rng.choice((0, 0, 0, 1, 1, 2))):
            n = rng.randrange(0, 3 if grouped else 4)
            text += rng.choice(("^", " ^ ", "^ ")) + str(n)
            value = sympy.Pow(value, n)
        return text, value

    def term(depth):
        text, value = factor(depth)
        for _ in range(rng.randrange(3)):
            t, v = factor(depth)
            text += rng.choice(("*", " * ")) + t
            value = value * v
        return text, value

    def expr(depth):
        text, value = term(depth)
        lead = rng.choice(("", "", "-", "+"))
        if lead == "-":
            value = -value
        text = lead + text
        for _ in range(rng.randrange(4 if depth == 0 else 3)):
            t, v = term(depth)
            if rng.random() < 0.5:
                text, value = f"{text} - {t}", value - v
            else:
                text, value = f"{text} + {t}", value + v
        return text, value

    return expr(depth)


@pytest.mark.parametrize("seed", range(3))
def test_parse_agrees_with_sympy(seed):
    rng = random.Random(seed)
    table = VarTable(("x", "y", "z"))
    symbols = sympy.symbols(table.names)
    for _ in range(40):
        text, value = random_expression(rng, table.names)
        assert parse_poly(text, table).terms == terms_of(value, symbols), text


ABCDE = VarTable(("a", "b", "c", "d", "e"))


def random_support(rng, table, count):
    """A polynomial with up to `count` terms, every exponent 0 to 2, so
    that many monomials tie in total degree, overall and on a block."""
    terms = {}
    for _ in range(count):
        mono = tuple(rng.randrange(3) for _ in range(len(table)))
        terms[mono] = Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))
    return Poly(table, terms)


def order_pairs():
    """(blocksplit order, the same order in sympy): grevlex and the
    elimination of the trailing k variables."""
    pairs = [pytest.param(grevlex, sympy_grevlex, id="grevlex")]
    for k in (1, 2, 3):
        pairs.append(pytest.param(elimination(k), trailing_block(k),
                                  id=f"trailing-{k}"))
    return pairs


@pytest.mark.parametrize("order,theirs", order_pairs())
def test_leading_term_agrees_with_sympy_orders(order, theirs):
    rng = random.Random(107)
    for _ in range(300):
        f = random_support(rng, ABCDE, rng.randint(1, 8))
        assert f.leading(order)[0] == max(f.terms, key=theirs), f
        assert f.trailing(order)[0] == min(f.terms, key=theirs), f


def test_format_lists_terms_in_sympy_grevlex_descending_order():
    rng = random.Random(109)
    for _ in range(300):
        f = random_support(rng, ABCDE, rng.randint(1, 8))
        text = format_poly(f)
        pieces = re.split(r" [+-] ", text.removeprefix("-"))
        monos = [next(iter(parse_poly(piece, ABCDE).terms))
                 for piece in pieces]
        assert monos == sorted(f.terms, key=sympy_grevlex, reverse=True), text


# -- determinant factorizations of the golden jobs -------------------------

GOLDEN = pathlib.Path(__file__).parent / "golden"

# (job document, stored report) for every golden check-square and
# check-quiver job with a JSON report
GOLDEN_FACTORED = (
    ("square-dec.json", "square-dec.out"),
    ("square-dec.json", "square-dec-jet8.out"),
    ("square-notdec.json", "square-notdec.out"),
    ("square-notdec.json", "square-notdec-jet8.out"),
    ("quiver2.json", "quiver2.out"),
    ("quiver3.json", "quiver3-check.out"),
)


def golden_matrix(doc_name):
    """The square matrix a golden job decides on, as text: the job's own
    matrix, or the Kronecker form `build-kronecker` prints for a quiver."""
    doc = json.loads((GOLDEN / doc_name).read_text(encoding="utf-8"))
    if "matrix" in doc:
        return doc["ring"]["vars"], doc["matrix"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["build-kronecker", "--input",
                     str(GOLDEN / doc_name)]) == 0
    form = json.loads(out.getvalue())
    return form["ring"]["vars"], form["matrix"]


def sympy_expr(text, symbols):
    return sympy.sympify(text.replace("^", "**"),
                         locals={str(s): s for s in symbols})


def irreducible_factors(expr, symbols):
    """The non-constant irreducible factors of expr with multiplicity,
    each made primitive with a positive leading coefficient by sympy."""
    _, factors = sympy.factor_list(expr, *symbols)
    return sorted((sympy.srepr(sympy.expand(f)), k) for f, k in factors)


@pytest.mark.parametrize("doc_name,report_name", GOLDEN_FACTORED,
                         ids=[r for _, r in GOLDEN_FACTORED])
def test_golden_det_factorization_agrees_with_sympy_factor_list(doc_name,
                                                                 report_name):
    """sympy expands det(A) of the job on its own and factors it; the
    report's determinant-factorization claim must name that determinant
    and split it into f1*f2 up to a nonzero constant, with the same
    irreducible factors and multiplicities."""
    names, matrix = golden_matrix(doc_name)
    symbols = sympy.symbols(names)
    S = sympy.Matrix([[sympy_expr(e, symbols) for e in row]
                      for row in matrix])
    ring = sympy.QQ[symbols]
    D = DomainMatrix.from_Matrix(S).convert_to(ring)
    det_expr = ring.to_sympy(D.det())
    report = json.loads((GOLDEN / report_name).read_text(encoding="utf-8"))
    claims = [i for i in report["certificate"]["identities"]
              if i["label"] == "determinant-factorization"]
    assert len(claims) == 1
    lhs = sympy_expr(claims[0]["lhs"], symbols)
    f1, f2 = (sympy_expr(f, symbols) for f in claims[0]["factors"])
    assert sympy.expand(lhs - det_expr) == 0
    assert det_expr != 0
    ratio = sympy.cancel(det_expr / sympy.expand(f1 * f2))
    assert ratio.is_Rational and ratio != 0
    assert irreducible_factors(det_expr, symbols) == sorted(
        irreducible_factors(f1, symbols) + irreducible_factors(f2, symbols))
