"""Golden reports: CLI stdout compared byte for byte with stored files.

The job documents in ``tests/golden/`` are a fixed sample of the
benchmark's jobs (seed 1): two corners of the check-square grid, one
check-conj job, the three check-rect jobs, a 2-vertex and a 3-vertex
hidden direct sum.  The 3-vertex one (``quiver3.json``) is quiver-sum's
seed-1 job ``hidden3-0``, the job that quiver-sum timings are quoted on,
and a test holds it to what ``perfbench/workloads.py`` generates.
``verify-cert`` re-checks the stored 2-vertex report; the same report in the per-minor form, one inclusion per Fitting
generator, as emitted before the adjugate entry existed
(``quiver2-perminor.json``), so that form keeps verifying; a copy of that
one with one altered cofactor (``quiver2-tampered.json``), so its
failure messages are pinned too; and a check-square report whose
provenance names the lex order (``square-notdec-lex.json``, issued when
the order was a job option), so reports from that time keep verifying.
Each ``<case>.out`` file is the stdout the CLI printed for that case;
any change to a report, down to whitespace or the order of Fitting
generators, fails here.

``member-local.json`` pins ``member_local`` witnesses (answer, unit and
cofactors as canonical text).  Its instances are the first 50
local-member cases of the benchmark (seed 1) and 12 constructed ones:
f = a*g1 + b*g2 tested against (u1*g1, u2*g2) with local units u1, u2,
which global membership misses and no jet order separates, so the colon
route (intersection, then exact division) finds the unit.  Where a
generator of the ideal has a nonzero constant term and global membership
misses, the unit-ideal shortcut answers, with that generator as the unit.

``rect-verdicts.json`` pins the check-rect verdict (status, failed
hypothesis, and whether the kernel condition passed) of 42 seeded random
jobs over Q[x1, x2], 2x3 and 2x4 in turn: sparse random entries, block
rows (sometimes with one row added to the other), and generic linear
forms, against the row ideals or small fixed ideal pairs.  The kernel
condition is a property of the kernel module, not of the generating set
that `kernel` returns, so every verdict must hold whatever the basis.

After an intended change of output, rewrite the stored files with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import pathlib
import sys

import pytest

from blocksplit.cli import main
from blocksplit.decompose import check_rect_lr
from blocksplit.groebner import Ideal, member_local
from blocksplit.matrix import PolyMatrix
from blocksplit.ring import VarTable, local_unit_test, parse_poly

GOLDEN = pathlib.Path(__file__).parent / "golden"

# (case, command, input document, extra flags)
CASES = (
    ("square-dec", "check-square", "square-dec.json", ()),
    ("square-dec-jet8", "check-square", "square-dec.json",
     ("--jet-order", "8")),
    ("square-notdec", "check-square", "square-notdec.json", ()),
    ("square-notdec-jet8", "check-square", "square-notdec.json",
     ("--jet-order", "8")),
    ("conj", "check-conj", "conj.json", ()),
    ("rect-kernel-unit", "check-rect", "rect-kernel-unit.json", ()),
    ("rect-zero-column", "check-rect", "rect-zero-column.json", ()),
    ("rect-not-coprime", "check-rect", "rect-not-coprime.json", ()),
    ("quiver2", "check-quiver", "quiver2.json", ()),
    ("quiver3-check", "check-quiver", "quiver3.json", ()),
    ("quiver3-det", "det", "quiver3.json", ()),
    ("quiver3-fitting5", "fitting", "quiver3.json", ("--index", "5")),
    ("square-notdec-text", "check-square", "square-notdec.json",
     ("--format", "text")),
    ("quiver2-text", "check-quiver", "quiver2.json", ("--format", "text")),
    ("verify-quiver2", "verify-cert", "quiver2.out", ()),
    ("verify-quiver2-perminor", "verify-cert", "quiver2-perminor.json", ()),
    ("verify-tampered-text", "verify-cert", "quiver2-tampered.json",
     ("--format", "text")),
    ("verify-square-notdec-lex", "verify-cert", "square-notdec-lex.json", ()),
)

# every other case exits 0
EXIT = {"verify-tampered-text": 2}


def _run(command: str, doc: str, flags) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        source = "--cert" if command == "verify-cert" else "--input"
        code = main([command, source, str(GOLDEN / doc), *flags])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("case,command,doc,flags", CASES,
                         ids=[c[0] for c in CASES])
def test_report_matches_golden(case, command, doc, flags):
    code, out, err = _run(command, doc, flags)
    assert (code, err) == (EXIT.get(case, 0), "")
    expected = (GOLDEN / f"{case}.out").read_text(encoding="utf-8")
    assert out == expected


def test_quiver3_is_the_quiver_sum_benchmark_job():
    spec = importlib.util.spec_from_file_location(
        "workloads", GOLDEN.parent.parent / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    job = workloads.quiver_sum(1, 1)[0]
    assert job["id"] == "hidden3-0"
    stored = json.loads((GOLDEN / "quiver3.json").read_text(encoding="utf-8"))
    assert stored == job["doc"]


MEMBER_LOCAL = GOLDEN / "member-local.json"


def _witness(case: dict) -> dict:
    table = VarTable(case["vars"])
    f = parse_poly(case["element"], table)
    ideal = Ideal(table, [parse_poly(g, table) for g in case["ideal"]])
    ok, witness = member_local(f, ideal)
    if not ok:
        return {"answer": False, "unit": None, "cofactors": None}
    return {"answer": True, "unit": str(witness.unit),
            "cofactors": [str(c) for c in witness.cofactors]}


def test_member_local_witnesses_match_golden():
    cases = json.loads(MEMBER_LOCAL.read_text(encoding="utf-8"))
    for case in cases:
        expected = {k: case[k] for k in ("answer", "unit", "cofactors")}
        assert _witness(case) == expected, case["id"]
    # the table must keep pinning the colon route in proper ideals and the
    # unit-ideal shortcut, not only global hits
    routes = {"colon": 0, "shortcut": 0}
    for case in cases:
        if case["unit"] in (None, "1"):
            continue
        table = VarTable(case["vars"])
        gens = [parse_poly(g, table) for g in case["ideal"]]
        if any(local_unit_test(g) for g in gens):
            assert parse_poly(case["unit"], table) in gens, case["id"]
            routes["shortcut"] += 1
        else:
            routes["colon"] += 1
    assert routes["colon"] >= 10 and routes["shortcut"] >= 4


RECT_VERDICTS = GOLDEN / "rect-verdicts.json"


def _rect_verdict(case: dict) -> dict:
    table = VarTable(case["vars"])
    A = PolyMatrix(table, [[parse_poly(e, table) for e in row]
                           for row in case["matrix"]])
    J1, J2 = (Ideal(table, [parse_poly(g, table) for g in case[k]])
              for k in ("J1", "J2"))
    verdict = check_rect_lr(A, J1, J2)
    passed = [h.passed for h in verdict.hypotheses
              if h.name == "kernel-condition"]
    return {"status": verdict.status,
            "failed_hypothesis": verdict.failed_hypothesis,
            "kernel_condition": passed[0] if passed else None}


def test_rect_verdicts_match_golden():
    cases = json.loads(RECT_VERDICTS.read_text(encoding="utf-8"))
    for case in cases:
        expected = {k: case[k] for k in
                    ("status", "failed_hypothesis", "kernel_condition")}
        assert _rect_verdict(case) == expected, case["id"]
    # both outcomes of the kernel condition stay covered
    assert {c["kernel_condition"] for c in cases} == {True, False}


if __name__ == "__main__":
    for case, command, doc, flags in CASES:
        code, out, err = _run(command, doc, flags)
        if code != EXIT.get(case, 0):
            sys.exit(f"{case}: exit {code}: {err}")
        (GOLDEN / f"{case}.out").write_text(out, encoding="utf-8")
        print(f"{case}: {len(out)} bytes")
    cases = json.loads(MEMBER_LOCAL.read_text(encoding="utf-8"))
    for case in cases:
        case.update(_witness(case))
    MEMBER_LOCAL.write_text(json.dumps(cases, indent=1) + "\n",
                            encoding="utf-8")
    print(f"member-local: {len(cases)} witnesses")
    cases = json.loads(RECT_VERDICTS.read_text(encoding="utf-8"))
    for case in cases:
        case.update(_rect_verdict(case))
    RECT_VERDICTS.write_text(json.dumps(cases, indent=1) + "\n",
                             encoding="utf-8")
    print(f"rect-verdicts: {len(cases)} verdicts")
