"""Checks of the benchmark's generators: the known answers must be right
independently of blocksplit, and the inputs must depend on the seed only.

Run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

import workloads

ROOT = Path(__file__).resolve().parent.parent


def _sympy_poly(text: str, sympy):
    return sympy.expand(sympy.sympify(text.replace("^", "**")))


def _kronecker(doc: dict, sympy):
    """K(R) of a check-quiver document: block (i, j) is x_i_j times the
    arrow j -> i, plus y_i on the diagonal blocks."""
    verts = doc["quiver"]["vertices"]
    ranks = [v["rank"] for v in verts]
    offsets = [sum(ranks[:i]) for i in range(len(ranks))]
    index = {v["id"]: i for i, v in enumerate(verts)}
    K = sympy.zeros(sum(ranks), sum(ranks))
    for i, r in enumerate(ranks):
        for d in range(r):
            K[offsets[i] + d, offsets[i] + d] = sympy.Symbol(f"y_{i + 1}")
    for arrow in doc["quiver"]["arrows"]:
        i, j = index[arrow["to"]], index[arrow["from"]]
        x = sympy.Symbol(f"x_{i + 1}_{j + 1}")
        for r, row in enumerate(arrow["matrix"]):
            for c, entry in enumerate(row):
                K[offsets[i] + r, offsets[j] + c] += x * int(entry)
    return K


def _summand_det(arrows, sympy):
    n = len(arrows)
    K = sympy.Matrix(n, n, lambda i, j: (
        sympy.Symbol(f"x_{i + 1}_{j + 1}") * arrows[i][j]
        + (sympy.Symbol(f"y_{i + 1}") if i == j else 0)))
    return sympy.expand(K.det(method="berkowitz"))


@pytest.mark.parametrize("nverts, seed", [(2, 1), (2, 2), (3, 3)])
def test_hidden_sum_factors_multiply_to_the_determinant(nverts, seed):
    sympy = pytest.importorskip("sympy")
    job = workloads.quiver_sum(seed, 1)[0] if nverts == 3 else \
        workloads.small_jobs(seed)[-1]
    doc = job["doc"]
    f1, f2 = (_sympy_poly(f, sympy) for f in doc["factors"])
    for arrows, f in zip(job["summands"], (f1, f2)):
        assert sympy.expand(_summand_det(arrows, sympy) - f) == 0
    K = _kronecker(doc, sympy)
    assert sympy.expand(K.det(method="berkowitz") - f1 * f2) == 0


def _documents(seed: int) -> bytes:
    jobs = (workloads.small_jobs(seed) + workloads.quiver_sum(seed, 3)
            + workloads.local_member(seed, 200))
    return json.dumps([j.get("doc", j) for j in jobs],
                      sort_keys=True).encode()


def test_same_seed_gives_identical_documents():
    assert _documents(7) == _documents(7)
    assert _documents(7) != _documents(8)


def _acceptance_module():
    pytest.importorskip("blocksplit")
    spec = importlib.util.spec_from_file_location(
        "acceptance_for_perfbench", ROOT / "tests" / "test_acceptance.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_grid_answers_agree_with_the_acceptance_gate():
    acceptance = _acceptance_module()
    from blocksplit.ring import VarTable, parse_poly
    from blocksplit.matrix import PolyMatrix
    table = VarTable(("x1", "x2"))

    def matrix(rows):
        return PolyMatrix(table, tuple(tuple(parse_poly(e, table) for e in r)
                                       for r in rows))

    # criterion 2: conjugation grid, Decomposable exactly at k == l
    conj = workloads.conj_grid()
    assert len(conj) == 16
    for job in conj:
        k, l = (int(p) for p in job["id"].split("-")[1:])
        assert matrix(job["doc"]["matrix"]) == acceptance.M(
            [["x2", f"x1^{k}"], [f"x1^{l}", "x2"]], table)
        assert (job["expect"] == workloads.DECOMPOSABLE) == (k == l)

    # criterion 3: square grid, Decomposable exactly at k == l == n, with
    # the same cases skipped; the jet-8 pass expects the exact answers
    exact = workloads.square_grid()
    jet = workloads.square_grid(jet_order=8)
    assert len(exact) == len(jet) == 18
    assert [j["expect"] for j in exact] == [j["expect"] for j in jet]
    seen = set()
    for job in exact:
        n, k, l = (int(p) for p in job["id"].split("-")[2:])
        seen.add((n, k, l))
        assert matrix(job["doc"]["matrix"]) == acceptance.ex2_matrix(
            n, k, l, table)
        assert job["doc"]["factors"] == [
            f"x2 - x1^{n}", f"x2^2 + x2*x1^{n} + x1^{2 * n}"]
        assert (job["expect"] == workloads.DECOMPOSABLE) == (k == l == n)
    assert seen == {(n, k, l) for n in (1, 2, 3) for k in (1, 2, 3)
                    for l in (1, 2, 3) if 3 * n - k - l >= 1}


def test_member_cases_carry_constructed_answers():
    sympy = pytest.importorskip("sympy")
    cases = workloads.local_member(5, 300)
    kinds = {c["kind"] for c in cases}
    assert kinds == {"random", "unit-ideal", "positive", "negative"}
    for case in cases:
        expect = {"positive": True, "unit-ideal": True, "negative": False,
                  "random": None}[case["kind"]]
        assert case["expect"] is expect
        origin = {sympy.Symbol(v): 0 for v in case["vars"]}
        gens = [_sympy_poly(g, sympy) for g in case["ideal"]]
        unit_ideal = any(g.subs(origin) != 0 for g in gens)
        assert unit_ideal == (case["kind"] == "unit-ideal")
        if case["kind"] == "negative":
            # a monomial ideal: the element minus its g1*(1 + x1) padding
            # is a monomial that no generator divides
            x1 = sympy.Symbol("x1")
            rest = sympy.expand(_sympy_poly(case["element"], sympy)
                                - gens[0] * (1 + x1))
            assert len(sympy.Add.make_args(rest)) == 1
            assert all(sympy.cancel(rest / g).as_numer_denom()[1] != 1
                       for g in gens)
