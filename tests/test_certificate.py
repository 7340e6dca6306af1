"""The certificate layer: JSON round trips, the strength rules, and the
re-checks of the adjugate entry, of the line certificate of coprimality
and of the point certificate of a non-square."""

from __future__ import annotations

import itertools
import json
import pathlib
import random
import re
from fractions import Fraction

import pytest

import blocksplit.certificate
from blocksplit.certificate import (
    DECOMPOSABLE,
    ENTRIES,
    INCONCLUSIVE,
    MAX_MATRIX_SIZE,
    STATUSES,
    AdjugateInclusion,
    HypothesisCheck,
    Identity,
    Inclusion,
    InputError,
    LineCoprime,
    NonSquare,
    Verdict,
)
from blocksplit.ring import LINE, Poly, VarTable, divide, \
    local_unit_test, minor, parse_poly, restrict_to_line

from blocksplit.cli import main
from blocksplit.groebner import Ideal, member_local
from blocksplit.matrix import PolyMatrix, fitting_ideal

from support import perfbench_workloads
from test_cli import EX2, LEGACY, STRING_QUIVER, golden_report, \
    legacy_report, run_json, write_doc

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


GOLDEN = pathlib.Path(__file__).parent / "golden"


def golden_verdict_reports() -> dict[str, dict]:
    """The golden outputs that are JSON verdict reports, by file name."""
    reports = {}
    for path in sorted(GOLDEN.glob("*.out")):
        try:
            report = json.loads(path.read_text(encoding="utf-8"))
        except ValueError:
            continue
        if "verdict" in report:
            reports[path.name] = report
    return reports


def assert_round_trip(report: dict) -> None:
    """Report -> Verdict -> to_json() gives back every key but the ones
    the CLI adds: the command, the ring, and the provenance's tool,
    version and order.  The verdict writes the provenance's strength."""
    verdict = Verdict.from_json(report, VarTable(report["ring"]["vars"]))
    assert verdict.failures() == []
    encoded = verdict.to_json()
    prov = report["provenance"]
    assert {**report, **encoded, "provenance": prov} == report
    assert set(report) - set(encoded) == {"command", "ring"}
    assert encoded["provenance"] == {
        k: v for k, v in prov.items() if k not in ("tool", "version", "order")}
    assert (verdict.order is None) == prov["exact"]
    assert verdict.order == prov.get("jet_order")


# every golden verdict report, read in place of a run: the jet goldens and
# verdicts that no job above emits
GOLDEN_REPORTS = [pytest.param(None, name, [], id=name)
                  for name in golden_verdict_reports()]


@pytest.mark.parametrize("command, doc, flags", JOBS + GOLDEN_REPORTS)
def test_report_round_trip(tmp_path, capsys, command, doc, flags):
    if command is None:
        report = golden_verdict_reports()[doc]
    else:
        report = run_json(capsys, [command, "--input",
                                   write_doc(tmp_path, doc), *flags])
    assert_round_trip(report)


def test_the_golden_reports_cover_every_entry_kind():
    """The round trip over the golden reports meets every entry kind, both
    strengths and all three verdicts."""
    reports = golden_verdict_reports().values()
    kinds = {kind.KEY for r in reports for kind in ENTRIES
             if r["certificate"].get(kind.KEY)}
    assert kinds == {kind.KEY for kind in ENTRIES}
    assert {r["provenance"]["exact"] for r in reports} == {True, False}
    assert {r["verdict"] for r in reports} == set(STATUSES)


def test_strength_must_match_provenance():
    x = parse_poly("x", XY)
    inc = Inclusion(x, (x,), parse_poly("1", XY), (parse_poly("0", XY),), 1)
    ident = Identity("square", x * x, (x, x))
    assert inc.verify() and ident.verify()

    exact = Verdict(INCONCLUSIVE, [], [ident, inc], "")
    assert exact.failures() == [
        "inclusion 0: a congruence modulo m^1 in an exact certificate",
        "verdict shape: Inconclusive must name a failed hypothesis from "
        "the checklist"]
    # an exact entry is valid in any certificate, a congruence only at
    # the verdict's jet order
    jet = Verdict(INCONCLUSIVE, [], [ident, inc], "", order=3)
    assert jet.failures()[:2] == [
        "inclusion 0: a congruence modulo m^1 in a certificate of jet "
        "order 3",
        "verdict shape: Inconclusive must name a failed hypothesis from "
        "the checklist"]
    jet = Verdict(INCONCLUSIVE, [], [ident, inc], "", order=1)
    assert jet.failures() == [
        "verdict shape: Inconclusive must name a failed hypothesis from "
        "the checklist"]


def test_from_json_names_the_malformed_field():
    report = legacy_report()
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
    line = cert["coprimality"]
    strings += line["factors"]
    assert len(set(strings)) < len(strings)
    parsed = []

    def counting(text, table):
        parsed.append(text)
        return parse_poly(text, table)

    monkeypatch.setattr(blocksplit.certificate, "parse_poly", counting)
    verdict = Verdict.from_json(report, VarTable(report["ring"]["vars"]))
    # a and b are polynomials in t, over a ring of their own
    assert sorted(parsed) == sorted([*set(strings), line["a"], line["b"]])
    assert_round_trip(report)


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
    report = legacy_report()
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
    # f2 = 2y: A*M = diag(2xy, xy) is not 2xy*I, a failed product
    assert AdjugateInclusion(A, Q("x"), Q("2*y"), one, C1, C2).failures() \
        == ["adjugate: A*(f1*C1 + f2*C2) does not equal unit*f1*f2*I"]
    # a singular A satisfies A*(f1*C1 + f2*C2) = 0 = f1*f2*I trivially
    singular = grid([["x", "y"], ["x", "y"]])
    zeros = grid([["0", "0"], ["0", "0"]])
    assert AdjugateInclusion(singular, Q("x"), Q("0"), one, zeros,
                             zeros).failures() == ["adjugate: f1*f2 is zero"]
    assert AdjugateInclusion(A, Q("x"), Q("y"), Q("x"), C1, C2).failures() \
        == ["adjugate: the unit has zero constant term"]
    assert AdjugateInclusion(A, Q("x"), Q("y"), one, C1, C2[:1]).failures() \
        == ["adjugate: A, C1 and C2 must be square of one size"]


DET = "adjugate: det(A) does not equal f1*f2"
PRODUCT = "adjugate: A*(f1*C1 + f2*C2) does not equal unit*f1*f2*I"


def reference_failures(entry: AdjugateInclusion, memo: dict) -> list[str]:
    """The adjugate rule stated the plain way: each entry
    f1*(A*C1)_ij + f2*(A*C2)_ij == unit*f1*f2*delta_ij multiplied out
    first, and only when all hold the full det(A) by `ring.minor`
    against f1*f2.  `memo` keeps, across calls, f1*f2 by f1 and f2,
    whether an entry holds by the polynomials it is formed from, and
    det(A) by A."""
    A, n, f1, f2 = entry.matrix, len(entry.matrix), entry.f1, entry.f2
    if not local_unit_test(entry.unit):
        return ["adjugate: the unit has zero constant term"]
    if (f1, f2) not in memo:
        memo[f1, f2] = f1 * f2
    if memo[f1, f2].is_zero():
        return ["adjugate: f1*f2 is zero"]
    for i, j in itertools.product(range(n), repeat=2):
        columns = tuple(tuple(row[j] for row in C)
                        for C in (entry.c1, entry.c2))
        unit = entry.unit if i == j else None
        key = ("entry", A[i], columns, f1, f2, unit)
        if key not in memo:
            P, Q = (sum((a * c for a, c in zip(A[i], column)), 0)
                    for column in columns)
            diff = f1 * P + f2 * Q
            if unit is not None:
                diff -= unit * memo[f1, f2]
            memo[key] = diff.is_zero()
        if not memo[key]:
            return [PRODUCT]
    if ("det", A) not in memo:
        memo["det", A] = minor(A, {}, tuple(range(n)), tuple(range(n)))
    if memo["det", A] != memo[f1, f2]:
        return [DET]
    return []


def golden_adjugate_entries() -> dict[str, AdjugateInclusion]:
    """Each distinct adjugate entry of the golden reports, by the name of
    the first report that carries it."""
    entries = {}
    for name, report in golden_verdict_reports().items():
        for entry in Verdict.from_json(
                report, VarTable(report["ring"]["vars"])).of(
                    AdjugateInclusion):
            entries.setdefault(json.dumps(entry.to_json()), (name, entry))
    return dict(entries.values())


def adjugate_alterations(entry: AdjugateInclusion):
    """+x, +2 and -x on each polynomial of the entry (x the first ring
    variable), and constant rescalings of f2, the unit and the cofactor
    grids: two keep the entry valid, and f2 and C1 doubled keep the
    product but not det(A) == f1*f2, which only the pin then refuses."""
    x = Poly.var(entry.f1.table, entry.f1.table.names[0])
    parts = {"f1": entry.f1, "f2": entry.f2, "unit": entry.unit,
             "A": entry.matrix, "c1": entry.c1, "c2": entry.c2}

    def made(**changed):
        p = {**parts, **changed}
        return AdjugateInclusion(p["A"], p["f1"], p["f2"], p["unit"],
                                 p["c1"], p["c2"])

    def scaled(rows, k):
        return [[e * k for e in row] for row in rows]

    for delta in (x, 2, -x):
        for key in ("f1", "f2", "unit"):
            yield made(**{key: parts[key] + delta})
        for key in ("A", "c1", "c2"):
            for i, j in itertools.product(range(len(entry.matrix)),
                                          repeat=2):
                rows = [list(row) for row in parts[key]]
                rows[i][j] = rows[i][j] + delta
                yield made(**{key: rows})
    yield made(f2=entry.f2 * 2)
    yield made(unit=entry.unit * 2)
    yield made(c1=scaled(entry.c1, 2))
    yield made(c2=scaled(entry.c2, 2))
    yield made(c1=scaled(entry.c1, 2), c2=scaled(entry.c2, 2))
    yield made(unit=entry.unit * 2, c1=scaled(entry.c1, 2),
               c2=scaled(entry.c2, 2))
    yield made(f2=entry.f2 * 2, c2=scaled(entry.c2, Fraction(1, 2)))
    yield made(f2=entry.f2 * 2, c1=scaled(entry.c1, 2))


@pytest.fixture
def minor_calls(monkeypatch):
    """(size of A, rows) for each top-level `minor` call of the adjugate
    re-check; a call on all n rows, which would expand det(A), fails the
    test before it runs."""
    calls = []

    def spy(entries, memo, rows, cols):
        assert len(rows) < len(entries), "the re-check expanded det(A)"
        calls.append((len(entries), len(rows)))
        return minor(entries, memo, rows, cols)

    monkeypatch.setattr(blocksplit.certificate, "minor", spy)
    return calls


@pytest.mark.parametrize("name", sorted(golden_adjugate_entries()))
def test_adjugate_failures_match_the_full_determinant_rule(name, minor_calls):
    """Pinning det(A) with one (n-1)-minor after the product gives the
    same failures as expanding det(A) once the product holds, on every
    alteration; the re-check itself never expands det(A), and calls
    `minor` once, on n - 1 rows, exactly when the product holds."""
    entry = golden_adjugate_entries()[name]
    n = len(entry.matrix)
    memo: dict = {}
    assert entry.failures() == reference_failures(entry, memo) == []
    seen = set()
    for altered in adjugate_alterations(entry):
        minor_calls.clear()
        failures = altered.failures()
        assert failures == reference_failures(altered, memo)
        pinned = n > 1 and failures in ([], [DET])
        assert minor_calls == ([(n, n - 1)] if pinned else [])
        seen.add(tuple(failures))
    assert {(), (DET,), (PRODUCT,)} <= seen


def test_a_tampered_generic_entry_expands_no_determinant(minor_calls):
    """A = (a_ij) of the largest size a report may hold, with distinct
    variables, C1 = C2 = I and f1, f2 two of the variables: the product
    (f1 + f2)*A == f1*f2*I fails, and so does the check, with no `minor`
    call; expanding the generic det(A) would take minutes."""
    n = MAX_MATRIX_SIZE
    table = VarTable([f"a_{i}_{j}" for i in range(n) for j in range(n)])
    A = [[Poly.var(table, f"a_{i}_{j}") for j in range(n)] for i in range(n)]
    identity = [[Poly.const(table, int(i == j)) for j in range(n)]
                for i in range(n)]
    entry = AdjugateInclusion(A, A[0][0], A[0][1], Poly.const(table, 1),
                              identity, identity)
    assert entry.failures() == [PRODUCT]
    assert minor_calls == []


def test_the_pin_catches_a_det_the_product_does_not():
    """A = diag(x, y) with f2 = 2y: A*(f1*C1 + f2*C2) == unit*f1*f2*I
    holds, so only the pinned entry, M_00 = 2y against adj(A)_00 = y,
    refuses it; with unit 2 and f2 = y the twin entry is valid, and so is
    an entry whose first nonzero M_ij has i + j odd."""
    A = grid([["x", "0"], ["0", "y"]])
    C1 = grid([["0", "0"], ["0", "2"]])
    wrong = AdjugateInclusion(A, Q("x"), Q("2*y"), Q("1"), C1,
                              grid([["1", "0"], ["0", "0"]]))
    assert wrong.failures() == [DET] == reference_failures(wrong, {})
    twin = AdjugateInclusion(A, Q("x"), Q("y"), Q("2"), C1,
                             grid([["2", "0"], ["0", "0"]]))
    assert twin.failures() == [] == reference_failures(twin, {})
    # M_00 = 0: the pin falls on M_01 = -x = (-1)^(0+1) * minor
    antidiagonal = AdjugateInclusion(
        grid([["0", "x"], ["y", "0"]]), Q("x"), Q("-y"), Q("1"),
        grid([["0", "-1"], ["0", "0"]]), grid([["0", "0"], ["1", "0"]]))
    assert antidiagonal.failures() == [] \
        == reference_failures(antidiagonal, {})


def test_a_valid_adjugate_entry_expands_no_n_by_n_minor(minor_calls):
    """The re-check of a valid entry expands one (n-1)-minor, never det(A):
    every top-level `minor` call takes n - 1 rows."""
    for name, entry in golden_adjugate_entries().items():
        n = len(entry.matrix)
        minor_calls.clear()
        assert entry.failures() == [], name
        assert minor_calls == ([(n, n - 1)] if n > 1 else []), name


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
    exact = Verdict("Decomposable", [], [entry], "")
    assert exact.failures() == []
    jet = Verdict("Decomposable", [], [entry], "", order=3)
    assert jet.failures() == []


def shared_factor_entry(corner: str = "1 + y") -> AdjugateInclusion:
    """f1 = x*h and f2 = y*h share h = 1 + x + y, a unit at the origin.
    A = [[x*h, 0], [x, y*h]] has det(A) = f1*f2 and adj(A) = [[y*h, 0],
    [-x, x*h]], so h*adj(A) == f1*C1 + f2*C2 with C1 = [[y, 0], [-1, h]]
    and C2 = [[h - x, 0], [0, 0]]; `corner` is C2's entry h - x."""
    h = "(1 + x + y)"
    return AdjugateInclusion(grid([[f"x*{h}", "0"], ["x", f"y*{h}"]]),
                             Q(f"x*{h}"), Q(f"y*{h}"), Q(h),
                             grid([["y", "0"], ["-1", h]]),
                             grid([[corner, "0"], ["0", "0"]]))


def test_an_adjugate_entry_whose_quotient_leaves_a_remainder():
    """Entry (1, 0) of A*C1 is y*(x - h), which f2 = y*h does not divide:
    r and s are both nonzero there, and the check forms f1*r + f2*s."""
    entry = shared_factor_entry()
    (_, r), = divide([Q("x*y - y*(1 + x + y)")], entry.f2)
    assert not r.is_zero()
    assert entry.failures() == []
    assert shared_factor_entry("2 + y").failures() == [PRODUCT]


WRONG_QUOTIENTS = {"zero": lambda q: Poly.zero(q.table),
                   "q + 1": lambda q: q + 1}


@pytest.mark.parametrize("wrong", WRONG_QUOTIENTS.values(),
                         ids=list(WRONG_QUOTIENTS))
def test_the_adjugate_check_holds_whatever_quotient_it_is_given(
        tmp_path, capsys, monkeypatch, wrong):
    """The division only proposes q: with a wrong one every golden
    adjugate entry still re-checks, and every alteration still fails, so
    the check rests on the product kernel and the determinant alone."""
    calls = []

    def propose(dividends, g):
        calls.append(len(dividends))
        return [(wrong(q), r) for q, r in divide(dividends, g)]

    monkeypatch.setattr(blocksplit.certificate, "divide", propose)
    entries = []
    for name, report in golden_verdict_reports().items():
        found = Verdict.from_json(
            report, VarTable(report["ring"]["vars"])).of(AdjugateInclusion)
        # an exact Decomposable square or quiver verdict carries exactly
        # one adjugate entry, and no other verdict carries one
        expected = int(report["command"] in ("check-square", "check-quiver")
                       and report["verdict"] == "Decomposable"
                       and report["provenance"]["exact"])
        assert len(found) == expected, name
        entries += found
    assert entries
    for entry in entries:
        assert entry.failures() == []
    assert shared_factor_entry().failures() == []
    assert shared_factor_entry("2 + y").failures() == [PRODUCT]
    assert_every_adjugate_alteration_fails(
        tmp_path, capsys, ex2_report(tmp_path, capsys), "x1")
    report = quiver3_report()
    assert_every_adjugate_alteration_fails(tmp_path, capsys, report,
                                           report["ring"]["vars"][0])
    assert calls and all(calls)


def test_an_identity_without_factors_is_refused():
    """A report cannot carry an empty factor list, so the re-check that
    runs before emission refuses one as well, also where lhs == 1 would
    make the empty product true."""
    message = "identity 'e': the identity has no factors"
    for lhs in ("1", "x"):
        assert Identity("e", Q(lhs), []).failures() == [message]
    verdict = Verdict(INCONCLUSIVE, [HypothesisCheck("h", False, "")],
                      [Identity("e", Q("1"), [])], "", failed_hypothesis="h")
    assert verdict.failures() == [message] and not verdict.verify()
    report = verdict.to_json()
    assert report["certificate"]["identities"][0]["factors"] == []
    with pytest.raises(InputError,
                       match=re.escape("'certificate.identities[0].factors'")):
        Verdict.from_json(report, XY)


def _adjugate_jobs():
    workloads = perfbench_workloads()
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


def test_verify_cert_accepts_the_legacy_report(tmp_path, capsys):
    """A report whose coprimality is certified by inclusions, and which
    spells out det(A) = f1*f2 beside its adjugate entry, keeps
    verifying."""
    code = main(["verify-cert", "--cert", str(LEGACY)])
    result = json.loads(capsys.readouterr().out)
    assert (code, result["valid"], result["failures"]) == (0, True, [])
    assert result["checked"] == {"identities": 1, "inclusions": 1,
                                 "adjugates": 1, "coprimality": 0,
                                 "nonsquares": 0}


def quiver3_report() -> dict:
    return json.loads((GOLDEN / "quiver3-check.out").read_text())


def test_altering_any_part_of_a_line_certificate_fails(tmp_path, capsys):
    """Adding t or 1/7 to a or b, or a variable or 1/7 to a factor, and
    moving any coordinate of the point or the direction by one, each
    fail the coprimality entry alone; so does swapping f1 and f2."""
    report = quiver3_report()
    line = report["certificate"]["coprimality"]
    assert verify_report(tmp_path, capsys, report) == (0, [])
    assert_every_alteration_fails(
        tmp_path, capsys, report, lambda cert: cert["coprimality"],
        [("a",), ("b",)], "t", "coprimality: ")
    assert_every_alteration_fails(
        tmp_path, capsys, report, lambda cert: cert["coprimality"],
        [("factors", 0), ("factors", 1)], report["ring"]["vars"][0],
        "coprimality: ")
    for key in ("point", "direction"):
        for k in range(len(line[key])):
            doc = json.loads(json.dumps(report))
            doc["certificate"]["coprimality"][key][k] += 1
            code, failures = verify_report(tmp_path, capsys, doc)
            assert code == 2 and failures, (key, k)
            assert all(f.startswith("coprimality: ") for f in failures)
    doc = json.loads(json.dumps(report))
    doc["certificate"]["coprimality"]["factors"].reverse()
    assert verify_report(tmp_path, capsys, doc) == (2, [
        "coprimality: a*f1 + b*f2 does not restrict to 1 on the line"])


@pytest.mark.parametrize("key,value,field", [
    ("point", "0", "point"),
    ("point", [0] * 11, "point"),
    ("point", [0] * 11 + [True], "point"),
    ("point", [0] * 11 + [1.0], "point"),
    ("point", [0] * 11 + [2 ** 63], "point"),
    ("direction", [0] * 11 + [-2 ** 63], "direction"),
    ("direction", None, "direction"),
    ("a", "t +", "a"),
    ("b", "x_1_1", "b"),
    ("a", 3, "a"),
    # explicit ids keep the names these two cases have always run under
    pytest.param("factors", ["y_1"], "factors",
                 id="factors-value12-factors"),
    pytest.param("factors", ["y_1", "y_2^101"], "factors[1]",
                 id="factors-value13-factors[1]"),
    pytest.param("point", [0] * 11 + [2 ** 7], "point", id="point-8-bits"),
    pytest.param("direction", [0] * 11 + [-2 ** 7], "direction",
                 id="direction-8-bits"),
])
def test_a_malformed_line_certificate_is_an_input_error(tmp_path, capsys,
                                                        key, value, field):
    """A point or direction that is not a list of 12 ints of fewer than 8
    bits, an a or b that is not a polynomial in t, and a factor of degree
    past MAX_LINE_DEGREE each exit 1 naming the field."""
    report = quiver3_report()
    report["certificate"]["coprimality"][key] = value
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(report))
    code = main(["verify-cert", "--cert", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert f"field 'certificate.coprimality.{field}'" in err


@pytest.mark.parametrize("key,value,message", [
    ("a", "t^3", "coprimality: a must have degree below that of f2"),
    ("b", "t^3 + 1", "coprimality: b must have degree below that of f1"),
], ids=["a-t^3", "b-t^3 + 1"])
def test_a_non_minimal_line_certificate_fails_its_recheck(tmp_path, capsys,
                                                          key, value,
                                                          message):
    """An a of degree deg f2 or more or a b of degree deg f1 or more is
    well formed but not minimal, a rule of the entry's re-check alone: it
    exits 2 with that one failure."""
    report = quiver3_report()
    report["certificate"]["coprimality"][key] = value
    assert verify_report(tmp_path, capsys, report) == (2, [message])


def conj_odd_report() -> dict:
    return json.loads((GOLDEN / "conj-odd.out").read_text())


NONSQUARE_VALUE = "nonsquare: the value is not that of f at the point"
NONSQUARE_SHAPE = ("nonsquare: the polynomial is not the verdict's failing "
                   "element")


@pytest.mark.parametrize("changes, failures", [
    ({"point": [0, -1]}, [NONSQUARE_VALUE]),
    ({"point": [-1, 0]}, []),
    ({"value": "-5"}, [NONSQUARE_VALUE]),
    ({"value": "-4/1"}, []),
    ({"point": [1, -1], "value": "4"},
     ["nonsquare: the value is the square of a rational"]),
    ({"polynomial": "4*x1^3 + x2^2 - 1"}, [NONSQUARE_SHAPE]),
    ({"polynomial": "-4*x1^2", "value": "-4"}, [NONSQUARE_SHAPE]),
], ids=["point", "other-point", "value", "same-value", "square-value",
        "other-polynomial", "other-nonsquare"])
def test_altering_a_point_certificate_fails(tmp_path, capsys, changes,
                                            failures):
    """The point entry re-checks its value at its point and requires a
    value that is no rational square; the verdict requires its
    polynomial to be the failing element, so a valid point certificate of
    another polynomial fails too."""
    report = conj_odd_report()
    report["certificate"]["nonsquare"].update(changes)
    assert verify_report(tmp_path, capsys, report) == (
        2 if failures else 0, failures)


def test_a_point_certificate_must_name_the_failing_element(tmp_path,
                                                           capsys):
    report = conj_odd_report()
    report["failing"] = "4*x1^3 + x2"
    assert verify_report(tmp_path, capsys, report) == (2, [NONSQUARE_SHAPE])
    entry = NonSquare(parse_poly("x", XY), (1, 1), 1)
    assert entry.failures() == [
        "nonsquare: the value is the square of a rational"]
    entry = NonSquare(parse_poly("2*x", XY), (1, 1), 2)
    assert entry.failures() == []
    assert Verdict(DECOMPOSABLE, [], [entry], "").failures() == [
        NONSQUARE_SHAPE]


@pytest.mark.parametrize("key,value,field", [
    ("point", [-1, "0"], "point"),
    ("point", [-1, 0.0], "point"),
    ("point", [-1, True], "point"),
    ("point", [2 ** 63, 0], "point"),
    ("point", [-2 ** 63, 0], "point"),
    ("point", [-1], "point"),
    ("point", [-1, 0, 0], "point"),
    ("value", -4, "value"),
    ("value", None, "value"),
    ("value", "x1", "value"),
    ("polynomial", 4, "polynomial"),
    ("polynomial", "x1^101", "polynomial"),
    pytest.param("point", [-1, 2 ** 7], "point", id="point-8-bits"),
])
def test_a_malformed_point_certificate_is_an_input_error(tmp_path, capsys,
                                                         key, value, field):
    """A point that is not a list of one int of fewer than 8 bits per
    variable, a value that is not a string holding a rational number, and
    a polynomial of degree past MAX_LINE_DEGREE each exit 1 naming the
    field."""
    report = conj_odd_report()
    report["certificate"]["nonsquare"][key] = value
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(report))
    code = main(["verify-cert", "--cert", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert f"field 'certificate.nonsquare.{field}'" in err


def test_entries_of_7_bits_are_accepted(tmp_path, capsys):
    report = quiver3_report()
    line = report["certificate"]["coprimality"]
    line["point"][0] = 2 ** 7 - 1
    line["direction"][0] = -(2 ** 7 - 1)
    assert verify_report(tmp_path, capsys, report) == (2, [
        "coprimality: a*f1 + b*f2 does not restrict to 1 on the line"])


def test_a_direction_where_f1_drops_degree_fails(tmp_path, capsys):
    """With f1 = x1 and f2 = x1*x2 on the line (1, 0) + (0, 1)*t, the
    identity 1*F1 + 0*F2 = 1 holds, but f1's top form x1 vanishes at the
    direction, so the line says nothing about a common factor.  In EX2's
    report the entry also names factors other than the adjugate entry's."""
    x1, x1x2 = parse_poly("x1", EX_TABLE), parse_poly("x1*x2", EX_TABLE)
    one, zero = parse_poly("1", LINE), parse_poly("0", LINE)
    degenerate = LineCoprime(x1, x1x2, (1, 0), (0, 1), one, zero)
    message = ("coprimality: the top-degree form of f1 vanishes at the "
               "direction")
    assert degenerate.failures() == [message]
    report = ex2_report(tmp_path, capsys)
    report["certificate"]["coprimality"] = degenerate.to_json()
    assert verify_report(tmp_path, capsys, report) == (2, [message, PAIR])


PAIR = "coprimality: the factors are not the adjugate entry's f1 and f2"


def test_a_non_minimal_line_certificate_fails_both_checks(tmp_path, capsys):
    """(a + F2, b - F1) is another Bezout pair of the same restrictions,
    but b has the degree of f1: the entry's re-check refuses it, on the
    in-memory verdict as in verify-cert, where decoding accepts it."""
    report = golden_report("square-signed.out")
    table = VarTable(report["ring"]["vars"])
    verdict = Verdict.from_json(report, table)
    line, = verdict.of(LineCoprime)
    F1, F2 = (restrict_to_line(f, line.point, line.direction)
              for f in (line.f1, line.f2))
    a, b = line.a + F2, line.b - F1
    assert a * F1 + b * F2 == Poly.const(LINE, 1)
    message = "coprimality: b must have degree below that of f1"
    other = LineCoprime(line.f1, line.f2, line.point, line.direction, a, b)
    verdict.facts[verdict.facts.index(line)] = other
    assert other.failures() == [message]
    assert verdict.failures() == [message]
    report["certificate"]["coprimality"] = other.to_json()
    assert verify_report(tmp_path, capsys, report) == (2, [message])


@pytest.mark.parametrize("factor", ["x + 1/7", "x + x"])
def test_the_line_and_adjugate_entries_name_one_factor_pair(tmp_path, capsys,
                                                            factor):
    """On square-signed's line y = -1, a = 0 and b = -1 prove any f1
    coprime to f2 = y, so a line entry for another f1 re-checks alone; the
    verdict refuses it because the adjugate entry never names that pair.
    The pair is unordered: swapping the adjugate's factors together with
    its cofactors gives another valid certificate."""
    report = golden_report("square-signed.out")
    adjugate = report["certificate"]["adjugate"]
    adjugate["factors"].reverse()
    adjugate["cofactors"].reverse()
    assert verify_report(tmp_path, capsys, report) == (0, [])
    report["certificate"]["coprimality"]["factors"][0] = factor
    assert verify_report(tmp_path, capsys, report) == (2, [PAIR])


EX_TABLE = VarTable(("x1", "x2"))


def test_a_line_certificate_in_a_jet_report_is_accepted():
    x1, x2 = parse_poly("x1", EX_TABLE), parse_poly("x2", EX_TABLE)
    # x1 and x2 restrict to 1 + t and t on (1, 0) + (1, 1)*t
    entry = LineCoprime(x1, x2, (1, 0), (1, 1), parse_poly("1", LINE),
                        parse_poly("-1", LINE))
    assert entry.failures() == []
    jet = Verdict(INCONCLUSIVE, [], [entry], "", order=3,
                  failed_hypothesis="h")
    assert jet.failures() == [
        "verdict shape: Inconclusive must name a failed hypothesis from "
        "the checklist"]
    assert Verdict(INCONCLUSIVE, [HypothesisCheck("h", False, "")], [entry],
                   "", order=3, failed_hypothesis="h").failures() == []
