"""check-square on jobs under polynomial base changes, A = U*B*V with U
and V invertible over the local ring but not constant, whose verdicts
are known from their construction (`support.local_sum`): hidden sums are
Decomposable, near misses NotDecomposable.  Each job runs through the
CLI exactly and at ``--jet-order 6``, and ``verify-cert`` accepts both
reports.  sympy, which shares no code with blocksplit, re-expands the
adjugate entry unit*adj(A) == f1*C1 + f2*C2 of each Decomposable one.

The sizes come from measured time per job (exact run, in process, on a
shared 2-core host).  A 2x2 hidden sum takes 1-17 ms over two or three
variables, and some need a colon, whose unit is then the adjugate
entry's unit.  A 3x3 hidden sum over two variables took 0.03-2.4 s,
with reports of up to 616 KB and an adjugate unit of degree 63, so none
runs here.  Near misses fail at the element g of order 1 and take
2-9 ms at 2x2 and 3x3 alike.  The jet runs take 1-10 ms.  Generating a
job with sympy costs more than deciding it.
"""

from __future__ import annotations

import functools
import random

import pytest

from support import local_sum
from test_cli import run_json, write_doc

sympy = pytest.importorskip("sympy")

# (id, ring variables, size, near miss, seed): a seeded handful
JOBS = [(f"hidden-2x2-{len(names)}v-{seed}", names, 2, False, seed)
        for names in (("x1", "x2"), ("x1", "x2", "x3"))
        for seed in range(3)]
JOBS += [(f"near-{n}x{n}-{seed}", ("x1", "x2"), n, True, seed)
         for n in (2, 3) for seed in range(2)]


def decide(tmp_path, capsys, doc: dict, flags=()) -> dict:
    """The check-square report on `doc`, after `verify-cert` accepts it."""
    report = run_json(capsys, ["check-square", "--input",
                               write_doc(tmp_path, doc), *flags])
    checked = run_json(capsys, ["verify-cert", "--cert",
                                write_doc(tmp_path, report, "cert.json")])
    assert checked["failures"] == []
    return report


def assert_adjugate_expands(entry: dict, names) -> None:
    symbols = {name: sympy.Symbol(name) for name in names}

    def expr(text: str):
        return sympy.sympify(text.replace("^", "**"), locals=symbols)

    A, C1, C2 = (sympy.Matrix([[expr(e) for e in row] for row in rows])
                 for rows in (entry["matrix"], *entry["cofactors"]))
    (f1, f2), unit = map(expr, entry["factors"]), expr(entry["unit"])
    diff = unit * A.adjugate() - f1 * C1 - f2 * C2
    assert diff.applyfunc(sympy.expand).is_zero_matrix


@functools.cache
def job(names, size: int, near_miss: bool, seed: int) -> dict:
    return local_sum(random.Random(seed), names, size, near_miss)


@pytest.mark.parametrize("names, size, near_miss, seed",
                         [spec[1:] for spec in JOBS],
                         ids=[spec[0] for spec in JOBS])
def test_base_changed_jobs_decide_as_constructed(tmp_path, capsys, names,
                                                 size, near_miss, seed):
    made = job(names, size, near_miss, seed)
    exact = decide(tmp_path, capsys, made["doc"])
    jet = decide(tmp_path, capsys, made["doc"], ("--jet-order", "6"))
    assert exact["verdict"] == jet["verdict"] == made["expect"]
    # coprimality is the exact line certificate in both runs
    for report in (exact, jet):
        assert report["certificate"]["coprimality"]
    if made["expect"] == "Decomposable":
        assert_adjugate_expands(exact["certificate"]["adjugate"], names)


def test_some_hidden_sum_needs_a_colon(tmp_path, capsys):
    """A unit other than 1 in an adjugate entry comes from a colon, so the
    handful runs the local route of the decisive inclusion, not only
    global membership."""
    units = [decide(tmp_path, capsys, job(*spec[1:])["doc"])
             ["certificate"]["adjugate"]["unit"]
             for spec in JOBS if not spec[3]]
    assert set(units) - {"1"}
