"""Acceptance gate: the eight end-to-end criteria, one test each.

Every criterion is exact (rational arithmetic, no tolerances).  Each test
carries its own wall-clock budget; the whole file stays well inside the
five-minute target for the full suite.
"""

from __future__ import annotations

import json
import random
import time

from blocksplit.cli import main as cli_main
from blocksplit.decompose import DECOMPOSABLE, INCONCLUSIVE, check_square_lr
from blocksplit.groebner import Ideal, member_local
from blocksplit.matrix import PolyMatrix, det, fitting_ideal
from blocksplit.oracle import jet_member
from blocksplit.quiver import (
    Arrow,
    QuiverRep,
    Vertex,
    build_kronecker,
    check_conj_2x2,
    check_quiver,
    complete_reduce,
)
from blocksplit.ring import Poly, VarTable, parse_poly

from support import random_unimodular, subset_local

JET_ORDERS = (4, 6, 8)


def P(text, table):
    return parse_poly(text, table)


def M(rows, table):
    return PolyMatrix(table, tuple(
        tuple(parse_poly(e, table) for e in row) for row in rows))


def random_poly(rng, table, degree, terms, nonzero=False):
    n = len(table)
    acc = Poly.zero(table)
    for _ in range(terms):
        exps = [0] * n
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(n)] += 1
        coeff = rng.randint(-5, 5)
        acc = acc + Poly(table, {tuple(exps): coeff}) if coeff else acc
    if nonzero and acc.is_zero():
        return Poly.const(table, rng.randint(1, 5))
    return acc


def ex2_matrix(n, k, l, table):
    corner = 3 * n - k - l
    return M([
        ["x2", f"x1^{k}", "0"],
        ["0", "x2", f"x1^{l}"],
        [f"-x1^{corner}", "0", "x2"],
    ], table)


def string_quiver(a_rows, b_rows):
    table = VarTable(())
    to_poly = lambda m: PolyMatrix(table, tuple(
        tuple(Poly.const(table, e) for e in row) for row in m))
    return QuiverRep(table, (Vertex("1", 2), Vertex("2", 2)), (
        Arrow("1", "2", to_poly(a_rows)),
        Arrow("2", "1", to_poly(b_rows)),
    ))


def star_quiver(c_rows):
    table = VarTable(())
    to_poly = lambda m: PolyMatrix(table, tuple(
        tuple(Poly.const(table, e) for e in row) for row in m))
    return QuiverRep(
        table,
        (Vertex("0", 2), Vertex("1", 1), Vertex("2", 1)),
        (
            Arrow("0", "0", to_poly(c_rows)),
            Arrow("1", "0", to_poly([[1], [0]])),
            Arrow("2", "0", to_poly([[0], [1]])),
        ),
    )


def test_criterion_1_pencil_identity():
    # det(x*A + y*1) == y^2 + x*y*tr(A) + x^2*det(A) for 2x2 A, exactly
    start = time.perf_counter()
    base = VarTable(("x1", "x2"))
    table = base.extend(("x", "y"))
    x = Poly.var(table, "x")
    y = Poly.var(table, "y")
    rng = random.Random(101)
    for _ in range(50):
        A = PolyMatrix(base, tuple(
            tuple(random_poly(rng, base, 2, 3) for _ in range(2))
            for _ in range(2)))
        pencil = A.lift(table).scale(x) + PolyMatrix.identity(table, 2).scale(y)
        expected = (y * y + x * y * A.trace().lift(table)
                    + x * x * det(A).lift(table))
        assert det(pencil) == expected
    assert time.perf_counter() - start < 5.0


def test_criterion_2_conjugation_grid():
    # [[x2, x1^k], [x1^l, x2]] diagonalizes under conjugation iff k == l
    start = time.perf_counter()
    table = VarTable(("x1", "x2"))
    for k in range(1, 5):
        for l in range(1, 5):
            A = M([["x2", f"x1^{k}"], [f"x1^{l}", "x2"]], table)
            verdict = check_conj_2x2(A)
            assert verdict.verify()
            if k == l:
                assert verdict.status == DECOMPOSABLE, (k, l)
            else:
                assert verdict.status != DECOMPOSABLE, (k, l)
    assert time.perf_counter() - start < 30.0


def test_criterion_3_square_grid_and_conjugation():
    start = time.perf_counter()
    table = VarTable(("x1", "x2"))

    # left-right part: Decomposable exactly at k == l == n.  Exponent
    # combinations with 3n - k - l < 1 would put a unit or an ill-formed
    # power in the corner entry, so they leave the setting and are skipped.
    for n in (1, 2, 3):
        f1 = P(f"x2 - x1^{n}", table)
        f2 = P(f"x2^2 + x2*x1^{n} + x1^{2 * n}", table)
        for k in (1, 2, 3):
            for l in (1, 2, 3):
                if 3 * n - k - l < 1:
                    continue
                A = ex2_matrix(n, k, l, table)
                verdict = check_square_lr(A, f1, f2)
                assert verdict.verify()
                if k == l == n:
                    assert verdict.status == DECOMPOSABLE, (n, k, l)
                else:
                    assert verdict.status != DECOMPOSABLE, (n, k, l)

    # conjugation part at k == l == n: shift the matrix by y*1 and check
    # I_2 against the factors of the shifted determinant (the factors of
    # det(A) with x2 replaced by x2 + y; the unshifted pair is strictly
    # smaller and does not contain I_2).
    wide = table.extend(("y",))
    y = Poly.var(wide, "y")
    for n in (1, 2, 3):
        shifted = ex2_matrix(n, n, n, wide) + PolyMatrix.identity(wide, 3).scale(y)
        g1 = P(f"y + x2 - x1^{n}", wide)
        g2 = (P("y + x2", wide) * P("y + x2", wide)
              + P("y + x2", wide) * P(f"x1^{n}", wide)
              + P(f"x1^{2 * n}", wide))
        assert det(shifted) == g1 * g2
        minors = fitting_ideal(shifted, 2)
        ok, witnesses = subset_local(minors, Ideal(wide, (g1, g2)))
        assert ok, n
        for g, w in zip(minors.generators, witnesses):
            assert w.verify()
        unshifted = Ideal(wide, (P(f"x2 - x1^{n}", wide),
                                 P(f"x2^2 + x2*x1^{n} + x1^{2 * n}", wide)))
        ok, _ = subset_local(minors, unshifted)
        assert not ok
    assert time.perf_counter() - start < 60.0


def test_criterion_4_string_determinant_formula():
    # det of the two-vertex string form:
    # y1^2*y2^2 - y1*y2*x12*x21*tr(AB) + x12^2*x21^2*det(AB)
    start = time.perf_counter()
    rng = random.Random(77)
    for _ in range(20):
        a = [[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)]
        b = [[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)]
        ab = [[sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)]
              for i in range(2)]
        tr_ab = ab[0][0] + ab[1][1]
        det_ab = ab[0][0] * ab[1][1] - ab[0][1] * ab[1][0]

        form = build_kronecker(complete_reduce(string_quiver(a, b)))
        t = form.table
        yy = P("y_1", t) * P("y_2", t)
        xx = P("x_1_2", t) * P("x_2_1", t)
        expected = (yy * yy - Poly.const(t, tr_ab) * yy * xx
                    + Poly.const(t, det_ab) * xx * xx)
        assert det(form.matrix) == expected
    assert time.perf_counter() - start < 10.0


def test_criterion_5_star_negative_case():
    # det splits off y_i for every rank-1 satellite, so no factor pair can
    # satisfy the strict pure-y profile bound: every natural split comes
    # back Inconclusive.
    start = time.perf_counter()
    rng = random.Random(55)
    for trial in range(5):
        c = [[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)]
        form = build_kronecker(complete_reduce(star_quiver(c)))
        t = form.table
        loop = (M([[str(e) for e in row] for row in c], t)
                .scale(P("x_1_1", t))
                + PolyMatrix.identity(t, 2).scale(P("y_1", t)))
        head = det(loop)
        tail = P("y_2", t) * P("y_3", t)
        assert det(form.matrix) == head * tail

        if trial == 0:
            splits = [
                (head, tail),
                (head * P("y_2", t), P("y_3", t)),
                (head * P("y_3", t), P("y_2", t)),
            ]
            for f1, f2 in splits:
                verdict = check_quiver(form, f1, f2)
                assert verdict.status == INCONCLUSIVE
                assert verdict.failed_hypothesis == "y-profile"
                assert verdict.verify()
    assert time.perf_counter() - start < 20.0


def test_criterion_6_oracle_equivalence():
    start = time.perf_counter()

    # random sweep: a membership proof must survive every jet truncation
    contradictions = 0
    checked = 0
    rng = random.Random(2024)
    for _ in range(210):
        nvars = rng.randint(1, 3)
        table = VarTable(tuple(f"x{i + 1}" for i in range(nvars)))
        f = random_poly(rng, table, 4, 3, nonzero=True)
        gens = tuple(random_poly(rng, table, 4, 2, nonzero=True)
                     for _ in range(rng.randint(1, 3)))
        I = Ideal(table, gens)
        ok, witness = member_local(f, I)
        if ok:
            assert witness.verify()
        for N in JET_ORDERS:
            jet = jet_member(f, I, N)
            if ok and not jet:
                contradictions += 1
        checked += 1
    assert checked >= 200
    assert contradictions == 0

    # constructed positives: unit multiples of generator combinations
    table = VarTable(("x", "y"))
    rng = random.Random(31)
    for _ in range(20):
        gens = (random_poly(rng, table, 3, 2, nonzero=True),
                random_poly(rng, table, 3, 2, nonzero=True))
        I = Ideal(table, gens)
        unit = Poly.const(table, rng.randint(1, 3)) + random_poly(rng, table, 2, 2)
        combo = (random_poly(rng, table, 2, 2, nonzero=True) * gens[0]
                 + random_poly(rng, table, 2, 2) * gens[1])
        f = unit * combo
        ok, _ = member_local(f, I)
        assert ok
        assert all(jet_member(f, I, N) for N in JET_ORDERS)

    # constructed negatives: a low-degree monomial outside a monomial
    # ideal obstructs membership at every jet order above its degree
    cases = [
        (("x^2", "x*y"), "y"),
        (("x^2", "y^2"), "x*y"),
        (("x^3", "y^3"), "x*y^2"),
        (("x^2",), "y^3"),
        (("x*y",), "x^3 + y^3"),
        (("x^3", "x*y^2"), "y^2"),
    ]
    for gens_text, obstruction in cases:
        gens = tuple(P(g, table) for g in gens_text)
        I = Ideal(table, gens)
        padding = gens[0] * P("1 + x", table)
        f = P(obstruction, table) + padding
        ok, _ = member_local(f, I)
        assert not ok, (gens_text, obstruction)
        assert not any(jet_member(f, I, N) for N in JET_ORDERS)
    assert time.perf_counter() - start < 120.0


def test_criterion_7_certificates_round_trip(tmp_path, capsys):
    # every Decomposable verdict the grids above produce must survive an
    # independent re-expansion of its certificate
    jobs = []
    for k in range(1, 5):
        jobs.append(("check-conj", {
            "ring": {"vars": ["x1", "x2"]},
            "matrix": [["x2", f"x1^{k}"], [f"x1^{k}", "x2"]],
        }))
    for n in (1, 2, 3):
        jobs.append(("check-square", {
            "ring": {"vars": ["x1", "x2"]},
            "matrix": [["x2", f"x1^{n}", "0"],
                       ["0", "x2", f"x1^{n}"],
                       [f"-x1^{n}", "0", "x2"]],
            "factors": [f"x2 - x1^{n}",
                        f"x2^2 + x2*x1^{n} + x1^{2 * n}"],
        }))

    verified = 0
    for i, (command, doc) in enumerate(jobs):
        job_path = tmp_path / f"job{i}.json"
        job_path.write_text(json.dumps(doc))
        assert cli_main([command, "--input", str(job_path)]) == 0
        report = capsys.readouterr().out
        assert json.loads(report)["verdict"] == "Decomposable", command

        cert_path = tmp_path / f"cert{i}.json"
        cert_path.write_text(report)
        assert cli_main(["verify-cert", "--cert", str(cert_path)]) == 0
        assert json.loads(capsys.readouterr().out)["valid"] is True
        verified += 1
    assert verified == 7


def test_criterion_8_fitting_invariance():
    # fitting ideals are unchanged by unit-determinant row and column action
    start = time.perf_counter()
    table = VarTable(("x", "y"))
    rng = random.Random(13)
    for trial in range(20):
        m, n = (2, 2) if trial % 2 == 0 else (2, 3)
        A = PolyMatrix(table, tuple(
            tuple(random_poly(rng, table, 2, 2) for _ in range(n))
            for _ in range(m)))
        U = random_unimodular(rng, table, m)
        V = random_unimodular(rng, table, n)
        B = U * A * V
        for j in range(1, min(m, n) + 1):
            Ia = fitting_ideal(A, j)
            Ib = fitting_ideal(B, j)
            forward, _ = subset_local(Ia, Ib)
            backward, _ = subset_local(Ib, Ia)
            assert forward and backward, (trial, j)
    assert time.perf_counter() - start < 60.0
