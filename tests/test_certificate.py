"""The certificate layer: JSON round trips and the strength rules."""

from __future__ import annotations

import json
import pathlib
import re

import pytest

import blocksplit.certificate
from blocksplit.certificate import (
    INCONCLUSIVE,
    Identity,
    Inclusion,
    InputError,
    Verdict,
)
from blocksplit.ring import VarTable, parse_poly

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
