"""CLI surface: job documents in, reports with certificates out."""

from __future__ import annotations

import json
import subprocess
import sys
import time

import pytest

import blocksplit.quiver
from blocksplit.certificate import MAX_MATRIX_SIZE, Verdict
from blocksplit.cli import main
from blocksplit.ring import (MAX_EXPANSION, MAX_JET_MONOMIALS, ParseError,
                            VarTable, parse_poly)

EX2 = {
    "ring": {"vars": ["x1", "x2"]},
    "matrix": [["x2", "x1", "0"], ["0", "x2", "x1"], ["-x1", "0", "x2"]],
    "factors": ["x2 - x1", "x2^2 + x2*x1 + x1^2"],
}

STRING_QUIVER = {
    "ring": {"vars": []},
    "quiver": {
        "vertices": [{"id": 1, "rank": 2}, {"id": 2, "rank": 2}],
        "arrows": [
            {"from": 1, "to": 2, "matrix": [["0", "1"], ["1", "0"]]},
            {"from": 2, "to": 1, "matrix": [["1", "0"], ["0", "1"]]},
        ],
    },
    "factors": ["y_1*y_2 - x_1_2*x_2_1", "y_1*y_2 + x_1_2*x_2_1"],
}


def write_doc(tmp_path, doc, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


def test_check_square_report(tmp_path, capsys):
    path = write_doc(tmp_path, EX2)
    report = run_json(capsys, ["check-square", "--input", path])
    assert report["verdict"] == "Decomposable"
    assert report["command"] == "check-square"
    assert report["provenance"]["exact"] is True
    assert report["provenance"]["order"] == "grevlex"
    names = [h["name"] for h in report["hypotheses"]]
    assert names == ["determinant-factorization", "factor-nontriviality",
                     "factor-coprimality"]
    assert all(h["passed"] for h in report["hypotheses"])
    assert report["certificate"]["inclusions"]
    for inc in report["certificate"]["inclusions"]:
        assert set(inc) >= {"element", "ideal", "unit", "cofactors"}


def test_round_trip_verify(tmp_path, capsys):
    path = write_doc(tmp_path, EX2)
    code, out, _ = run(capsys, ["check-square", "--input", path])
    assert code == 0
    cert = tmp_path / "out.json"
    cert.write_text(out)
    code, out, _ = run(capsys, ["verify-cert", "--cert", str(cert)])
    assert code == 0
    assert json.loads(out)["valid"] is True


# one Decomposable job per verdict command
VERDICT_DOCS = {
    "check-square": EX2,
    "check-conj": {
        "ring": {"vars": ["x1", "x2"]},
        "matrix": [["x2", "x1^2"], ["x1^2", "x2"]],
    },
    "check-rect": {
        "ring": {"vars": ["x1", "x2"]},
        "matrix": [["x1", "0"], ["0", "x2"]],
        "ideals": {"J1": ["x1"], "J2": ["x2"]},
    },
    "check-quiver": STRING_QUIVER,
}


def test_round_trip_all_verdict_commands(tmp_path, capsys):
    for command, doc in VERDICT_DOCS.items():
        path = write_doc(tmp_path, doc, f"{command}.json")
        code, out, err = run(capsys, [command, "--input", path])
        assert code == 0, (command, err)
        cert = tmp_path / f"{command}-out.json"
        cert.write_text(out)
        code, _, _ = run(capsys, ["verify-cert", "--cert", str(cert)])
        assert code == 0, command


def test_reports_are_byte_identical(tmp_path, capsys):
    path = write_doc(tmp_path, EX2)
    _, first, _ = run(capsys, ["check-square", "--input", path])
    _, second, _ = run(capsys, ["check-square", "--input", path])
    assert first == second
    parsed = json.loads(first)
    assert first == json.dumps(parsed, sort_keys=True, indent=2) + "\n"


def test_det_on_quiver(tmp_path, capsys):
    doc = {"ring": STRING_QUIVER["ring"], "quiver": STRING_QUIVER["quiver"]}
    path = write_doc(tmp_path, doc)
    report = run_json(capsys, ["det", "--input", path])
    assert report["determinant"] == "-x_1_2^2*x_2_1^2 + y_1^2*y_2^2"


def test_det_on_matrix_tuple(tmp_path, capsys):
    doc = {"ring": {"vars": []},
           "matrices": [[["1", "0"], ["0", "-1"]]]}
    path = write_doc(tmp_path, doc)
    report = run_json(capsys, ["det", "--input", path])
    assert report["determinant"] == "-x_1^2 + y^2"


@pytest.mark.parametrize("doc, name", [
    ({"ring": {"vars": ["y"]}, "matrices": [[["y", "0"], ["0", "1"]]]},
     "y"),
    ({"ring": {"vars": ["y_1"]},
      "quiver": {"vertices": [{"id": 1, "rank": 1}], "arrows": []}},
     "y_1"),
])
def test_the_adjoined_names_are_reserved(tmp_path, capsys, doc, name):
    # a pencil adjoins x_<k> and y, a quiver x_<i>_<j> and y_<i>
    path = write_doc(tmp_path, doc)
    assert run(capsys, ["det", "--input", path]) == \
        (1, "", f"error: variable '{name}' already declared\n")


def test_fitting_command(tmp_path, capsys):
    doc = {"ring": {"vars": ["x", "y"]},
           "matrix": [["x", "y"], ["y", "x"]]}
    path = write_doc(tmp_path, doc)
    report = run_json(capsys, ["fitting", "--input", path, "--index", "1"])
    assert set(report["generators"]) == {"x", "y"}
    report = run_json(capsys, ["fitting", "--input", path, "--index", "3"])
    assert report["generators"] == ["0"]

    code, _, err = run(capsys, ["fitting", "--input", path])
    assert code == 1 and "index" in err


def test_build_kronecker_command(tmp_path, capsys):
    doc = {"ring": STRING_QUIVER["ring"], "quiver": STRING_QUIVER["quiver"]}
    path = write_doc(tmp_path, doc)
    report = run_json(capsys, ["build-kronecker", "--input", path])
    assert report["block_sizes"] == [2, 2]
    assert report["ring"]["vars"][-2:] == ["y_1", "y_2"]
    assert report["variable_roles"]["x_1_2"] == "pair(1, 2)"
    assert report["matrix"][0][0] == "y_1"


def test_text_format_order(tmp_path, capsys):
    path = write_doc(tmp_path, EX2)
    code, out, _ = run(capsys, ["check-square", "--input", path,
                                "--format", "text"])
    assert code == 0
    hyp = out.index("hypotheses:")
    incl = out.index("inclusions:")
    verdict = out.index("verdict: Decomposable")
    assert hyp < incl < verdict
    assert "scope:" in out


def test_jet_mode_is_flagged(tmp_path, capsys):
    path = write_doc(tmp_path, EX2)
    report = run_json(capsys, ["check-square", "--input", path,
                               "--jet-order", "6"])
    assert report["provenance"]["exact"] is False
    assert report["provenance"]["jet_order"] == 6
    for inc in report["certificate"]["inclusions"]:
        assert inc["modulo_order"] == 6


def test_order_flag(tmp_path, capsys):
    # grevlex is the one monomial order; there is no flag to choose another
    path = write_doc(tmp_path, EX2)
    with pytest.raises(SystemExit) as exc:
        main(["check-square", "--input", path, "--order", "lex"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: blocksplit")
    assert err.endswith("error: unrecognized arguments: --order lex\n")


def test_a_usage_error_leaves_the_next_job_unchanged(tmp_path, capsys):
    # one parser serves every call in a process; a parse that ends in a
    # usage error must leave nothing behind for the next call to see
    path = write_doc(tmp_path, EX2)
    alone = subprocess.run(
        [sys.executable, "-m", "blocksplit.cli", "check-square", "--input",
         path], capture_output=True, text=True)
    assert alone.returncode == 0, alone.stderr
    with pytest.raises(SystemExit) as exc:
        main(["check-square", "--input", path, "--jet-order", "eight",
              "--format", "yaml"])
    assert exc.value.code == 1
    capsys.readouterr()
    assert run(capsys, ["check-square", "--input", path]) == \
        (0, alone.stdout, "")


def test_input_errors_name_the_field(tmp_path, capsys):
    bad = dict(EX2)
    bad["matrix"] = [["x2", "x9", "0"], ["0", "x2", "x1"], ["-x1", "0", "x2"]]
    path = write_doc(tmp_path, bad)
    code, _, err = run(capsys, ["check-square", "--input", path])
    assert code == 1
    assert "matrix[0][1]" in err and "x9" in err
    assert "Traceback" not in err

    bad = dict(EX2)
    del bad["factors"]
    path = write_doc(tmp_path, bad, "nofactors.json")
    code, _, err = run(capsys, ["check-square", "--input", path])
    assert code == 1 and "factors" in err

    path = write_doc(tmp_path, {"ring": {"vars": []}, "bogus": 1}, "b.json")
    code, _, err = run(capsys, ["det", "--input", path])
    assert code == 1 and "bogus" in err

    code, _, err = run(capsys, ["det", "--input", str(tmp_path / "none.json")])
    assert code == 1 and "cannot read" in err

    (tmp_path / "syntax.json").write_text("{nope")
    code, _, err = run(capsys, ["det", "--input",
                                str(tmp_path / "syntax.json")])
    assert code == 1 and "not valid JSON" in err


def test_non_string_order_is_an_input_error(tmp_path, capsys):
    # no job option chooses the monomial order, not even grevlex itself
    for order in ("grevlex", "lex", ["lex"], {"name": "lex"}, [], None):
        doc = {"ring": {"vars": ["x"]}, "matrix": [["x"]],
               "options": {"order": order}}
        path = write_doc(tmp_path, doc)
        assert run(capsys, ["det", "--input", path]) == (
            1, "", "error: field 'options.order' is not recognized\n"), order


def test_non_string_or_empty_format_is_an_input_error(tmp_path, capsys):
    for fmt in ([], {}, None, "", 0, False, ["json"]):
        doc = {"ring": {"vars": ["x"]}, "matrix": [["x"]],
               "options": {"format": fmt}}
        path = write_doc(tmp_path, doc)
        code, out, err = run(capsys, ["det", "--input", path])
        assert code == 1 and out == "", fmt
        assert "options.format" in err and "internal error" not in err


def test_exact_only_commands_reject_jet(tmp_path, capsys):
    doc = {"ring": {"vars": ["x", "y"]},
           "matrix": [["x", "0"], ["0", "y"]],
           "ideals": {"J1": ["x"], "J2": ["y"]}}
    path = write_doc(tmp_path, doc)
    code, _, err = run(capsys, ["check-rect", "--input", path,
                                "--jet-order", "4"])
    assert code == 1 and "exact only" in err


def test_verify_cert_rejects_tampering(tmp_path, capsys):
    path = write_doc(tmp_path, EX2)
    _, out, _ = run(capsys, ["check-square", "--input", path])
    report = json.loads(out)
    report["certificate"]["inclusions"][0]["cofactors"][0] = "x1 + 1"
    cert = tmp_path / "tampered.json"
    cert.write_text(json.dumps(report))
    code, out, _ = run(capsys, ["verify-cert", "--cert", str(cert)])
    assert code == 2
    result = json.loads(out)
    assert result["valid"] is False
    assert result["failures"]


def test_verify_cert_rejects_verdict_shape_lies(tmp_path, capsys):
    path = write_doc(tmp_path, EX2)
    _, out, _ = run(capsys, ["check-square", "--input", path])
    report = json.loads(out)
    report["verdict"] = "NotDecomposable"
    cert = tmp_path / "lied.json"
    cert.write_text(json.dumps(report))
    code, _, _ = run(capsys, ["verify-cert", "--cert", str(cert)])
    assert code == 2


def test_conj_cli_example(tmp_path, capsys):
    doc = {"ring": {"vars": ["x1", "x2"]},
           "matrix": [["x2", "x1^2"], ["x1^2", "x2"]]}
    path = write_doc(tmp_path, doc)
    report = run_json(capsys, ["check-conj", "--input", path])
    assert report["verdict"] == "Decomposable"

    doc["matrix"] = [["x2", "x1"], ["x1^2", "x2"]]
    path = write_doc(tmp_path, doc, "neq.json")
    report = run_json(capsys, ["check-conj", "--input", path])
    assert report["verdict"] == "NotDecomposable"
    assert "failing" in report


@pytest.mark.parametrize("command", sorted(VERDICT_DOCS))
def test_verdict_failing_its_recheck_is_never_emitted(tmp_path, capsys,
                                                      monkeypatch, command):
    monkeypatch.setattr(Verdict, "failures", lambda self: ["forced"])
    path = write_doc(tmp_path, VERDICT_DOCS[command])
    assert run(capsys, [command, "--input", path]) == (
        2, "", "internal error: the verdict failed its pre-emission "
               "certificate re-check\n")


# x^2 + y^3 has no series square root; the obstruction shows at degree 3,
# which a probe of order 1 does not reach
OBSTRUCTED_CONJ = {"ring": {"vars": ["x", "y"]},
                   "matrix": [["x", "1/4"], ["y^3", "0"]]}


def test_probe_order_flag_and_option(tmp_path, capsys):
    def verdict(doc, flags=()):
        path = write_doc(tmp_path, doc)
        report = run_json(capsys, ["check-conj", "--input", path, *flags])
        return report["verdict"], report.get("failed_hypothesis")

    shallow = ("Inconclusive", "square-root-only-as-power-series")
    assert verdict(OBSTRUCTED_CONJ) == ("NotDecomposable", None)
    assert verdict(OBSTRUCTED_CONJ, ["--probe-order", "1"]) == shallow
    doc = dict(OBSTRUCTED_CONJ, options={"probe_order": 1})
    assert verdict(doc) == shallow
    assert verdict(doc, ["--probe-order", "2"]) == ("NotDecomposable", None)


@pytest.mark.parametrize("options, flags", [
    ({"probe_order": 0}, []),
    ({"probe_order": True}, []),
    ({"probe_order": "8"}, []),
    ({}, ["--probe-order", "0"]),
])
def test_probe_order_must_be_a_positive_integer(tmp_path, capsys, options,
                                                flags):
    path = write_doc(tmp_path, dict(OBSTRUCTED_CONJ, options=options))
    assert run(capsys, ["check-conj", "--input", path, *flags]) == (
        1, "", "error: field 'options.probe_order' (or --probe-order) must "
               "be an integer >= 1\n")


def test_probe_order_flag_must_parse_as_an_integer(tmp_path, capsys):
    path = write_doc(tmp_path, OBSTRUCTED_CONJ)
    with pytest.raises(SystemExit) as exc:
        main(["check-conj", "--input", path, "--probe-order", "true"])
    assert exc.value.code == 1
    assert "--probe-order" in capsys.readouterr().err


def test_unit_discriminant_skips_the_series_probe(tmp_path, capsys,
                                                  monkeypatch):
    # disc = 1 + x1 + x2 + x3 + x4: a unit with no polynomial square root,
    # whose series root exists to every order
    def probe(*_):
        raise AssertionError("the series probe ran on a unit discriminant")

    monkeypatch.setattr(blocksplit.quiver, "sqrt_series", probe)
    doc = {"ring": {"vars": ["x1", "x2", "x3", "x4"]},
           "matrix": [["0", "1/4"], ["1 + x1 + x2 + x3 + x4", "0"]]}
    path = write_doc(tmp_path, doc)
    start = time.perf_counter()
    report = run_json(capsys, ["check-conj", "--input", path,
                               "--probe-order", "12"])
    assert time.perf_counter() - start < 5.0
    assert report["verdict"] == "Inconclusive"
    assert report["failed_hypothesis"] == "square-root-only-as-power-series"


# x1^2 * (1 + x2 + x3 + x4) has a series square root to every order, so
# the probe runs to the full order it is given
DEEP_CONJ = {"ring": {"vars": ["x1", "x2", "x3", "x4"]},
             "matrix": [["0", "1/4"],
                        ["x1^2 + x1^2*x2 + x1^2*x3 + x1^2*x4", "0"]]}


@pytest.mark.parametrize("command, doc, flag, what", [
    ("check-square", EX2, "--jet-order", "jet order 100000 over 2"),
    ("check-conj", DEEP_CONJ, "--probe-order", "series order 100000 over 4"),
])
def test_oversized_jet_and_probe_orders_exit_1_at_once(tmp_path, capsys,
                                                       command, doc, flag,
                                                       what):
    path = write_doc(tmp_path, doc)
    start = time.perf_counter()
    result = run(capsys, [command, "--input", path, flag, "100000"])
    assert time.perf_counter() - start < 1.0
    assert result == (1, "", f"error: {what} variables spans more than "
                             f"{MAX_JET_MONOMIALS} monomials\n")


def conj_job(nvars: int) -> dict:
    """[[0, 1/4], [x1^2*(1 + x2 + ... + xn), 0]] over x1..xn: the
    discriminant's root x1*sqrt(1 + x2 + ... + xn) is a series in n - 1
    variables."""
    names = [f"x{i}" for i in range(1, nvars + 1)]
    disc = " + ".join(["x1^2"] + [f"x1^2*{v}" for v in names[1:]])
    return {"ring": {"vars": names}, "matrix": [["0", "1/4"], [disc, "0"]]}


def test_the_probe_caps_the_terms_of_the_root(tmp_path, capsys):
    # five variables span 792 monomials below the default probe order 8,
    # but the root holds 330 terms there, so the probe runs
    path = write_doc(tmp_path, conj_job(5))
    report = run_json(capsys, ["check-conj", "--input", path])
    assert report["verdict"] == "Inconclusive"
    assert report["failed_hypothesis"] == "square-root-only-as-power-series"
    # over eight variables the root passes 500 terms below that order
    path = write_doc(tmp_path, conj_job(8))
    start = time.perf_counter()
    result = run(capsys, ["check-conj", "--input", path])
    assert time.perf_counter() - start < 1.0
    assert result == (1, "", "error: series order 8 over 8 variables spans "
                             f"more than {MAX_JET_MONOMIALS} monomials\n")


def test_quiver_star_inconclusive_cli(tmp_path, capsys):
    doc = {
        "ring": {"vars": []},
        "quiver": {
            "vertices": [{"id": 0, "rank": 2}, {"id": 1, "rank": 1},
                         {"id": 2, "rank": 1}],
            "arrows": [
                {"from": 0, "to": 0, "matrix": [["0", "1"], ["1", "0"]]},
                {"from": 1, "to": 0, "matrix": [["1"], ["0"]]},
                {"from": 2, "to": 0, "matrix": [["0"], ["1"]]},
            ],
        },
        "factors": ["y_1^2 - x_1_1^2", "y_2*y_3"],
    }
    path = write_doc(tmp_path, doc)
    report = run_json(capsys, ["check-quiver", "--input", path])
    assert report["verdict"] == "Inconclusive"
    assert report["failed_hypothesis"] == "y-profile"


def test_console_script():
    proc = subprocess.run(
        [sys.executable, "-m", "blocksplit.cli", "--version"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("blocksplit ")


def test_options_block_and_flag_precedence(tmp_path, capsys):
    doc = dict(EX2)
    doc["options"] = {"format": "text"}
    path = write_doc(tmp_path, doc)
    code, out, _ = run(capsys, ["check-square", "--input", path])
    assert code == 0 and out.startswith("blocksplit check-square")
    # the command-line flag wins over the document option
    report = run_json(capsys, ["check-square", "--input", path,
                               "--format", "json"])
    assert report["verdict"] == "Decomposable"


def _ex2_report(tmp_path, capsys, *flags):
    path = write_doc(tmp_path, EX2)
    return run_json(capsys, ["check-square", "--input", path, *flags])


def _verify(tmp_path, capsys, report):
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(report))
    return run(capsys, ["verify-cert", "--cert", str(cert)])


def test_verify_cert_rejects_congruences_in_an_exact_report(tmp_path, capsys):
    # modulo m^1 every entry holds with zero cofactors, since all of its
    # polynomials vanish at the origin; an exact report must not say so
    report = _ex2_report(tmp_path, capsys)
    assert report["provenance"]["exact"] is True
    for entry in report["certificate"]["identities"]:
        entry["modulo_order"] = 1
    for entry in report["certificate"]["inclusions"]:
        entry["modulo_order"] = 1
        entry["cofactors"] = ["0"] * len(entry["ideal"])
    code, out, _ = _verify(tmp_path, capsys, report)
    assert code == 2
    failures = json.loads(out)["failures"]
    assert failures[0] == ("identity 'determinant-factorization': a "
                           "congruence modulo m^1 in an exact certificate")
    assert len(failures) == 1 + len(report["certificate"]["inclusions"])


def test_verify_cert_rejects_jet_entries_of_another_order(tmp_path, capsys):
    report = _ex2_report(tmp_path, capsys, "--jet-order", "6")
    report["certificate"]["inclusions"][0]["modulo_order"] = 1
    code, out, _ = _verify(tmp_path, capsys, report)
    assert code == 2
    assert json.loads(out)["failures"] == [
        "inclusion 0: modulo m^1 in a certificate of jet order 6"]


def test_verify_cert_requires_a_known_verdict(tmp_path, capsys):
    report = _ex2_report(tmp_path, capsys)
    report["verdict"] = "Maybe"
    code, _, err = _verify(tmp_path, capsys, report)
    assert code == 1 and "'verdict'" in err
    del report["verdict"]
    code, _, err = _verify(tmp_path, capsys, report)
    assert code == 1 and "'verdict'" in err


def test_verify_cert_requires_provenance(tmp_path, capsys):
    report = _ex2_report(tmp_path, capsys)
    del report["provenance"]
    code, _, err = _verify(tmp_path, capsys, report)
    assert code == 1 and "'provenance'" in err


def test_deeply_nested_entry_is_an_input_error(tmp_path, capsys):
    doc = json.loads(json.dumps(EX2))
    doc["matrix"][0][0] = "(" * 5000 + "x2" + ")" * 5000
    path = write_doc(tmp_path, doc)
    code, _, err = run(capsys, ["check-square", "--input", path])
    assert code == 1
    assert "matrix[0][0]" in err and "nested" in err

    doc["matrix"][0][0] = "(" * 50 + "x2" + ")" * 50
    path = write_doc(tmp_path, doc, "fifty.json")
    report = run_json(capsys, ["check-square", "--input", path])
    assert report["verdict"] == "Decomposable"


def test_deeply_nested_document_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    for argv in (["det", "--input", str(path)],
                 ["verify-cert", "--cert", str(path)]):
        code, _, err = run(capsys, argv)
        assert code == 1, argv
        assert "nested too deeply" in err


def test_non_ascii_entry_is_an_input_error(tmp_path, capsys):
    for entry in ("x^²", "é", "x*é"):
        doc = {"ring": {"vars": ["x", "y"]},
               "matrix": [[entry, "y"], ["y", "x"]]}
        path = write_doc(tmp_path, doc)
        code, _, err = run(capsys, ["det", "--input", path])
        assert code == 1, entry
        assert "matrix[0][0]" in err and "internal error" not in err


LONG = "1" * 5000  # past the interpreter's 4300-digit limit on int <-> str


def test_oversized_numbers_in_a_job_are_input_errors(tmp_path, capsys):
    """A number too long to read, in a polynomial string or as a JSON
    number, and a computed coefficient too long to print, exit 1; the
    interpreter's digit limit is left as it is."""
    for entry, message in ((LONG, "more than 4300 digits"),
                           (f"x + {LONG}*x^2", "more than 4300 digits"),
                           (f"x^{LONG}", "more than 4300 digits"),
                           (f"1/{LONG}", "more than 4300 digits"),
                           ("10^5000", "too long to print"),
                           ("x - 10^2500*10^2500", "too long to print")):
        doc = {"ring": {"vars": ["x"]}, "matrix": [[entry]]}
        path = write_doc(tmp_path, doc)
        for fmt in ("json", "text"):
            code, out, err = run(capsys, ["det", "--input", path,
                                          "--format", fmt])
            assert code == 1, (entry[:20], fmt)
            assert message in err and "internal error" not in err
            assert out == ""
    path = tmp_path / "number.json"
    path.write_text('{"ring": {"vars": ["x"]}, "matrix": [["x"]], '
                    f'"index": {LONG}}}')
    code, _, err = run(capsys, ["fitting", "--input", str(path)])
    assert code == 1 and "more than 4300 digits" in err


@pytest.mark.parametrize("entry", [
    "(x1+x2+x3+1)^200", "(x1+1)^20000", "3^100000000", "3^10000000",
    "*".join(["(x1+x2+1)"] * 300),
], ids=["power", "binomial", "huge-number", "number", "300-factors"])
def test_oversized_expansion_exits_1_at_once(tmp_path, capsys, entry):
    """A parenthesized product or power, or a numeric power, is refused as
    soon as expanding it would take more than MAX_EXPANSION term
    products; (x1+x2+x3+1)^20, about 63000 of them, still parses."""
    message = (f"error: field 'matrix[0][0]': expanding products and "
               f"powers takes more than {MAX_EXPANSION} term products\n")
    doc = {"ring": {"vars": ["x1", "x2", "x3"]}, "matrix": [[entry]]}
    path = write_doc(tmp_path, doc)
    start = time.perf_counter()
    result = run(capsys, ["det", "--input", path])
    assert time.perf_counter() - start < 1.0
    assert result == (1, "", message)
    doc["matrix"] = [["(x1+x2+x3+1)^20"]]
    assert run_json(capsys, ["det", "--input", write_doc(tmp_path, doc)])


def test_folded_numbers_are_charged_to_the_expansion_bound(tmp_path, capsys):
    """Numbers in one term fold into one coefficient, and each fold is
    charged the product of its operands' word counts: 400 copies of a
    4300-digit number multiplied together, then x1 (1.7 MB), is refused
    at once, where folding all of them takes time quadratic in the
    string's length."""
    entry = "*".join(["9" * 4300] * 400) + "*x1"
    start = time.perf_counter()
    with pytest.raises(ParseError):
        parse_poly(entry, VarTable(("x1",)))
    assert time.perf_counter() - start < 0.2
    path = write_doc(tmp_path, {"ring": {"vars": ["x1"]},
                                "matrix": [[entry]]})
    start = time.perf_counter()
    code, out, err = run(capsys, ["det", "--input", path])
    assert time.perf_counter() - start < 0.2
    assert (code, out) == (1, "")
    assert f"takes more than {MAX_EXPANSION} term products" in err


def test_oversized_numbers_in_a_certificate(tmp_path, capsys):
    report = _ex2_report(tmp_path, capsys)
    report["certificate"]["inclusions"][0]["cofactors"][0] = LONG
    code, _, err = _verify(tmp_path, capsys, report)
    assert code == 1
    assert "inclusions[0]" in err and "more than 4300 digits" in err
    # a long computed number parses, and the entry it spoils fails the
    # re-check like any other wrong cofactor
    report["certificate"]["inclusions"][0]["cofactors"][0] = "10^5000"
    code, out, err = _verify(tmp_path, capsys, report)
    assert code == 2 and err == ""
    assert json.loads(out)["failures"]
    cert = tmp_path / "number.json"
    cert.write_text(json.dumps(report)[:-1] + f', "extra": {LONG}}}')
    code, _, err = run(capsys, ["verify-cert", "--cert", str(cert)])
    assert code == 1 and "more than 4300 digits" in err


def test_non_utf8_document_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"ring": {"vars": ["x"]}, "matrix": [["\xff"]]}')
    for argv in (["det", "--input", str(path)],
                 ["verify-cert", "--cert", str(path)]):
        code, _, err = run(capsys, argv)
        assert code == 1 and "not UTF-8 text" in err, argv


TEN_LOOPS = {
    "ring": {"vars": ["x_1"]},
    "quiver": {"vertices": [{"id": 1, "rank": 1}],
               "arrows": [{"from": 1, "to": 1, "matrix": [[f"{k}*x_1"]]}
                          for k in range(1, 11)]},
    "factors": ["y_1", "1"],
}


@pytest.mark.parametrize("command", ["build-kronecker", "check-quiver"])
def test_merging_ten_loops_picks_jointly_fresh_names(tmp_path, capsys,
                                                     command):
    """The ring declares x_1, the first merge variable's stem, so that
    merge variable is x_10, and the tenth takes x_100."""
    path = write_doc(tmp_path, TEN_LOOPS)
    report = run_json(capsys, [command, "--input", path])
    merged = ["x_10"] + [f"x_{k}" for k in range(2, 10)] + ["x_100"]
    assert report["ring"]["vars"] == ["x_1", *merged, "x_1_1", "y_1"]
    if command == "build-kronecker":
        terms = " + ".join(f"{k}*x_1*{name}*x_1_1"
                           for k, name in enumerate(merged, 1))
        entry = parse_poly(report["matrix"][0][0], VarTable(
            report["ring"]["vars"]))
        assert entry == parse_poly(f"{terms} + y_1", entry.table)
    assert run(capsys, [command, "--input", path]) == (
        0, json.dumps(report, sort_keys=True, indent=2) + "\n", "")


def square(n, entry="x1"):
    return [[entry] * n for _ in range(n)]


OVERSIZED = MAX_MATRIX_SIZE + 1


@pytest.mark.parametrize("command, doc, message", [
    ("det", {"ring": {"vars": ["x1"]}, "matrix": square(OVERSIZED)},
     f"field 'matrix' has {OVERSIZED} rows, more than {MAX_MATRIX_SIZE}"),
    ("det", {"ring": {"vars": ["x1"]}, "matrix": [["x1"] * OVERSIZED]},
     f"field 'matrix' has {OVERSIZED} columns, more than "
     f"{MAX_MATRIX_SIZE}"),
    ("check-conj", {"ring": {"vars": ["x1"]}, "matrix": square(OVERSIZED)},
     f"field 'matrix' has {OVERSIZED} rows, more than {MAX_MATRIX_SIZE}"),
    ("det", {"ring": {"vars": ["x1"]},
             "matrices": [square(2), square(OVERSIZED)]},
     f"field 'matrices[1]' has {OVERSIZED} rows, more than "
     f"{MAX_MATRIX_SIZE}"),
    ("check-quiver", {"ring": {"vars": []},
                      "quiver": {"vertices": [{"id": 1, "rank": 10 ** 9}]},
                      "factors": ["y_1", "y_1"]},
     f"field 'quiver.vertices': the ranks sum to {10 ** 9}, so the "
     f"Kronecker form would have more than {MAX_MATRIX_SIZE} rows"),
    ("build-kronecker", {"ring": {"vars": []}, "quiver": {
        "vertices": [{"id": v, "rank": 1} for v in range(OVERSIZED)]}},
     f"field 'quiver.vertices': the ranks sum to {OVERSIZED}, so the "
     f"Kronecker form would have more than {MAX_MATRIX_SIZE} rows"),
], ids=["rows", "columns", "check-conj", "matrices", "rank", "vertices"])
def test_oversized_matrices_exit_1_at_once(tmp_path, capsys, command, doc,
                                           message):
    path = write_doc(tmp_path, doc)
    start = time.perf_counter()
    result = run(capsys, [command, "--input", path])
    assert time.perf_counter() - start < 1.0
    assert result == (1, "", f"error: {message}\n")


def test_oversized_adjugate_exits_1_at_once(tmp_path, capsys):
    report = json.loads(run(capsys, ["check-square", "--input",
                                     write_doc(tmp_path, EX2)])[1])
    report["certificate"]["adjugate"]["matrix"] = square(OVERSIZED)
    path = write_doc(tmp_path, report, "cert.json")
    start = time.perf_counter()
    result = run(capsys, ["verify-cert", "--cert", path])
    assert time.perf_counter() - start < 1.0
    assert result == (1, "", "error: field 'certificate.adjugate.matrix' has "
                             f"{OVERSIZED} rows, more than "
                             f"{MAX_MATRIX_SIZE}\n")


def test_a_sparse_matrix_of_the_largest_size_runs(tmp_path, capsys):
    n = MAX_MATRIX_SIZE
    rows = [["x1" if j == i else "1" if j == i + 1 else "0"
             for j in range(n)] for i in range(n)]
    path = write_doc(tmp_path, {"ring": {"vars": ["x1"]}, "matrix": rows})
    report = run_json(capsys, ["det", "--input", path])
    assert report["determinant"] == f"x1^{n}"
