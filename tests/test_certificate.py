"""The certificate layer: JSON round trips, the strength rules, and the
adjugate entry's re-check."""

from __future__ import annotations

import importlib.util
import itertools
import json
import pathlib
import random
import re

import pytest

import blocksplit.certificate
from blocksplit.certificate import (
    INCONCLUSIVE,
    AdjugateInclusion,
    Identity,
    Inclusion,
    InputError,
    Verdict,
)
from blocksplit.ring import Poly, VarTable, parse_poly

from blocksplit.cli import main
from blocksplit.groebner import Ideal, member_local
from blocksplit.matrix import PolyMatrix, fitting_ideal

from test_cli import EX2, STRING_QUIVER, run_json, write_doc

XY = VarTable(("x", "y"))

JOBS = [
    ("check-square", EX2, []),
    ("check-square", EX2, ["--jet-order", "4"]),
    ("check-square", dict(EX2, factors=["x2 + 1", "x2^2"]), []),
    ("check-conj", {"ring": {"vars": ["x1", "x2"]},
                    "matrix": [["x2", "x1"], ["x1^2", "x2"]]}, []),
    ("check-conj", {"ring": {"vars": ["x"]},
                    "matrix": [["0", "x"], ["1/2*x", "0"]]}, []),
    ("check-rect", {"ring": {"vars": ["x1", "x2"]},
                    "matrix": [["x1", "0"], ["0", "x2"]],
                    "ideals": {"J1": ["x1"], "J2": ["x2"]}}, []),
    ("check-quiver", STRING_QUIVER, []),
]


@pytest.mark.parametrize("command, doc, flags", JOBS)
def test_report_round_trip(tmp_path, capsys, command, doc, flags):
    path = write_doc(tmp_path, doc)
    report = run_json(capsys, [command, "--input", path, *flags])
    table = VarTable(report["ring"]["vars"])
    verdict = Verdict.from_json(report, table)
    assert verdict.failures() == []
    encoded = verdict.to_json()
    assert {**report, **encoded} == report
    assert set(report) - set(encoded) == {"command", "ring", "provenance"}
    assert verdict.exact == report["provenance"]["exact"]
    assert verdict.order == report["provenance"].get("jet_order")


def test_strength_must_match_provenance():
    x = parse_poly("x", XY)
    inc = Inclusion(x, (x,), parse_poly("1", XY), (parse_poly("0", XY),), 1)
    ident = Identity("square", x * x, (x, x))
    assert inc.verify() and ident.verify()

    exact = Verdict(INCONCLUSIVE, [], [ident], [inc], "")
    assert exact.failures() == [
        "inclusion 0: a congruence modulo m^1 in an exact certificate",
        "verdict shape: Inconclusive must name a failed hypothesis from "
        "the checklist"]
    jet = Verdict(INCONCLUSIVE, [], [ident], [inc], "", order=3)
    assert jet.failures()[:2] == [
        "identity 'square': an exact claim in a certificate of jet order 3",
        "inclusion 0: modulo m^1 in a certificate of jet order 3"]


def test_from_json_names_the_malformed_field(tmp_path, capsys):
    path = write_doc(tmp_path, EX2)
    report = run_json(capsys, ["check-square", "--input", path])
    table = VarTable(report["ring"]["vars"])
    cases = [
        (("certificate", "inclusions", 0, "modulo_order"), 0,
         "certificate.inclusions[0].modulo_order"),
        (("certificate", "identities", 0, "factors"), [],
         "certificate.identities[0].factors"),
        (("provenance", "jet_order"), 4, "provenance.jet_order"),
        (("verdict",), 3, "verdict"),
    ]
    for keys, value, field in cases:
        doc = json.loads(json.dumps(report))
        target = doc
        for k in keys[:-1]:
            target = target[k]
        target[keys[-1]] = value
        with pytest.raises(InputError, match=re.escape(f"'{field}'")):
            Verdict.from_json(doc, table)


def test_from_json_parses_each_string_once(monkeypatch):
    golden = pathlib.Path(__file__).parent / "golden" / "quiver2.out"
    report = json.loads(golden.read_text(encoding="utf-8"))
    cert = report["certificate"]
    strings = [s for d in cert["identities"] for s in [d["lhs"], *d["factors"]]]
    strings += [s for d in cert["inclusions"]
                for s in [d["element"], *d["ideal"], d["unit"],
                          *d["cofactors"]]]
    adjugate = cert["adjugate"]
    strings += [*adjugate["factors"], adjugate["unit"]]
    strings += [s for grid in (adjugate["matrix"], *adjugate["cofactors"])
                for row in grid for s in row]
    assert len(set(strings)) < len(strings)
    parsed = []

    def counting(text, table):
        parsed.append(text)
        return parse_poly(text, table)

    monkeypatch.setattr(blocksplit.certificate, "parse_poly", counting)
    verdict = Verdict.from_json(report, VarTable(report["ring"]["vars"]))
    assert sorted(parsed) == sorted(set(strings))
    assert verdict.failures() == []
    assert {**report, **verdict.to_json()} == report


GOLDEN = pathlib.Path(__file__).parent / "golden"


def verify_report(tmp_path, capsys, report) -> tuple[int, list[str]]:
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(report))
    code = main(["verify-cert", "--cert", str(path)])
    return code, json.loads(capsys.readouterr().out)["failures"]


def ex2_report(tmp_path, capsys) -> dict:
    report = run_json(capsys, ["check-square", "--input",
                               write_doc(tmp_path, EX2)])
    assert report["verdict"] == "Decomposable"
    return report


def test_an_emptied_decomposable_certificate_fails(tmp_path, capsys):
    emptied = "verdict shape: Decomposable with an empty certificate"
    report = ex2_report(tmp_path, capsys)
    report["certificate"] = {"identities": [], "inclusions": []}
    assert verify_report(tmp_path, capsys, report) == (2, [emptied])
    # the per-minor form, as emitted before the adjugate entry
    report = json.loads((GOLDEN / "quiver2-perminor.json").read_text())
    assert verify_report(tmp_path, capsys, report) == (0, [])
    report["certificate"] = {"identities": [], "inclusions": []}
    assert verify_report(tmp_path, capsys, report) == (2, [emptied])


def assert_every_alteration_fails(tmp_path, capsys, report, entry, spots,
                                  var, name):
    """Adding `var` or 1/7 to the string at each of `spots` (key paths
    into the certificate entry that `entry` picks from the certificate)
    makes verify-cert exit 2 with failures of that entry only, each
    starting with `name`."""
    assert verify_report(tmp_path, capsys, report) == (0, [])
    for spot, change in itertools.product(spots, (f" + {var}", " + 1/7")):
        doc = json.loads(json.dumps(report))
        target = entry(doc["certificate"])
        for key in spot[:-1]:
            target = target[key]
        target[spot[-1]] = f"{target[spot[-1]]}{change}"
        code, failures = verify_report(tmp_path, capsys, doc)
        assert code == 2, (spot, change)
        assert failures and all(f.startswith(name)
                                for f in failures), (spot, change)


def assert_every_adjugate_alteration_fails(tmp_path, capsys, report,
                                           var):
    """Adding `var` or 1/7 to the unit, to any entry of the matrix or to
    any cofactor entry makes verify-cert exit 2 with adjugate failures
    only."""
    n = len(report["certificate"]["adjugate"]["matrix"])
    spots = [("unit",)]
    spots += [("matrix", i, j) for i in range(n) for j in range(n)]
    spots += [("cofactors", k, i, j)
              for k in range(2) for i in range(n) for j in range(n)]
    assert_every_alteration_fails(tmp_path, capsys, report,
                                  lambda cert: cert["adjugate"], spots, var,
                                  "adjugate: ")


def test_altering_any_adjugate_entry_fails(tmp_path, capsys):
    """EX2's cofactors have rational coefficients, which the check clears
    before its products; adding 1/7 alters their denominators."""
    report = ex2_report(tmp_path, capsys)
    adjugate = report["certificate"]["adjugate"]
    assert any("/" in e for C in adjugate["cofactors"] for row in C
               for e in row)
    assert_every_adjugate_alteration_fails(tmp_path, capsys, report, "x1")


def test_altering_any_adjugate_entry_of_a_packed_check_fails(
        tmp_path, capsys, monkeypatch):
    """The 6x6 form over 12 variables of the 3-vertex golden report: its
    check forms enough term products per call to key them by packed
    monomials, which EX2's small products never do."""
    report = json.loads((GOLDEN / "quiver3-check.out").read_text())
    packed = []
    pack = Poly._pack

    def spy(p):
        result = pack(p)
        packed.append(result is not None)
        return result

    monkeypatch.setattr(Poly, "_pack", spy)
    assert verify_report(tmp_path, capsys, report) == (0, [])
    assert any(packed)
    assert_every_adjugate_alteration_fails(
        tmp_path, capsys, report, report["ring"]["vars"][0])


def test_altering_any_part_of_a_fractional_inclusion_fails(tmp_path,
                                                            capsys):
    """The coprimality inclusion of the 3-vertex golden report has the
    cofactor 1/81, which the check clears, with the unit, before its
    products; altering the element, a generator, the unit or a cofactor
    must still fail that inclusion alone."""
    report = json.loads((GOLDEN / "quiver3-check.out").read_text())
    inclusion = report["certificate"]["inclusions"][0]
    assert any("/" in c for c in inclusion["cofactors"])
    spots = [("element",), ("unit",)]
    spots += [("ideal", k) for k in range(len(inclusion["ideal"]))]
    spots += [("cofactors", k) for k in range(len(inclusion["cofactors"]))]
    assert_every_alteration_fails(
        tmp_path, capsys, report, lambda cert: cert["inclusions"][0], spots,
        report["ring"]["vars"][0], "inclusion 0: ")


def Q(text):
    return parse_poly(text, XY)


def grid(rows):
    return [[Q(e) for e in row] for row in rows]


def test_adjugate_checks_det_against_a_nonzero_f1_f2():
    # A = diag(x, y): adj(A) = diag(y, x) = x*C1 + y*C2
    A = grid([["x", "0"], ["0", "y"]])
    C1 = grid([["0", "0"], ["0", "1"]])
    C2 = grid([["1", "0"], ["0", "0"]])
    one = Q("1")
    assert AdjugateInclusion(A, Q("x"), Q("y"), one, C1, C2).failures() == []
    assert AdjugateInclusion(A, Q("x"), Q("2*y"), one, C1, C2).failures() \
        == ["adjugate: det(A) does not equal f1*f2"]
    # a singular A satisfies A*(f1*C1 + f2*C2) = 0 = f1*f2*I trivially
    singular = grid([["x", "y"], ["x", "y"]])
    zeros = grid([["0", "0"], ["0", "0"]])
    assert AdjugateInclusion(singular, Q("x"), Q("0"), one, zeros,
                             zeros).failures() == ["adjugate: f1*f2 is zero"]
    assert AdjugateInclusion(A, Q("x"), Q("y"), Q("x"), C1, C2).failures() \
        == ["adjugate: the unit has zero constant term"]
    assert AdjugateInclusion(A, Q("x"), Q("y"), one, C1, C2[:1]).failures() \
        == ["adjugate: A, C1 and C2 must be square of one size"]


def test_adjugate_with_a_unit_other_than_one():
    # (1 + y)*adj(diag(x, y)) = x*C1 + y*C2 with the cofactors scaled
    A = grid([["x", "0"], ["0", "y"]])
    u = Q("1 + y")
    C1 = grid([["0", "0"], ["0", "1 + y"]])
    C2 = grid([["1 + y", "0"], ["0", "0"]])
    entry = AdjugateInclusion(A, Q("x"), Q("y"), u, C1, C2)
    assert entry.failures() == []
    assert AdjugateInclusion(A, Q("x"), Q("y"), Q("1"), C1, C2).failures() \
        == ["adjugate: A*(f1*C1 + f2*C2) does not equal unit*f1*f2*I"]
    exact = Verdict("Decomposable", [], [], [], "", adjugate=entry)
    assert exact.failures() == []
    jet = Verdict("Decomposable", [], [], [], "", order=3, adjugate=entry)
    assert jet.failures() == [
        "adjugate: an exact claim in a certificate of jet order 3"]


def _workloads():
    """The benchmark's job generators (they import nothing of blocksplit)."""
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" \
        / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _adjugate_jobs():
    workloads = _workloads()
    jobs = [job for job in workloads.square_grid()
            if job["expect"] == "Decomposable"]
    rng = random.Random(11)
    jobs += [workloads.hidden_sum(rng, 2, f"hidden2-{k}") for k in range(3)]
    rng = random.Random(12)
    jobs += [workloads.hidden_sum(rng, 3, f"hidden3-{k}") for k in range(2)]
    return jobs


@pytest.mark.parametrize("job", _adjugate_jobs(), ids=lambda job: job["id"])
def test_adjugate_agrees_with_the_per_minor_route(tmp_path, capsys, job):
    path = write_doc(tmp_path, job["doc"])
    report = run_json(capsys, [job["command"], "--input", path])
    adjugate = report["certificate"]["adjugate"]
    if job["command"] == "check-quiver":
        matrix = run_json(capsys, ["build-kronecker", "--input",
                                   path])["matrix"]
    else:
        matrix = job["doc"]["matrix"]
    table = VarTable(report["ring"]["vars"])
    A = PolyMatrix(table, [[parse_poly(e, table) for e in row]
                           for row in matrix])
    assert adjugate["matrix"] == [[str(e) for e in row] for row in A.entries]
    f1, f2 = (parse_poly(f, table) for f in job["doc"]["factors"])
    assert [parse_poly(f, table) for f in adjugate["factors"]] == [f1, f2]
    assert verify_report(tmp_path, capsys, report) == (0, [])
    # the per-minor route: every (n-1)-minor in (f1, f2) at the origin
    J = Ideal(table, (f1, f2))
    minors = fitting_ideal(A, A.rows - 1).generators
    per_minor = all(member_local(g, J)[0] for g in minors)
    assert report["verdict"] == job["expect"] == (
        "Decomposable" if per_minor else "NotDecomposable")
