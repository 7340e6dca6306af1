"""CLI surface: job documents in, reports with certificates out."""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
import time

import pytest

import blocksplit.certificate
import blocksplit.decompose
import blocksplit.quiver
from blocksplit.certificate import MAX_MATRIX_SIZE, Verdict
from blocksplit.cli import main
from blocksplit.ring import (MAX_EXPANSION, MAX_JET_MONOMIALS, ParseError,
                            VarTable, parse_poly, restrict_to_line)

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


# The check-quiver report of tests/golden/quiver3.json as emitted before
# line certificates: its coprimality is one inclusion with a fractional
# cofactor, and it keeps the determinant identity beside the adjugate.
LEGACY = pathlib.Path(__file__).parent / "golden" / "quiver3-check-legacy.out"


def legacy_report() -> dict:
    return json.loads(LEGACY.read_text(encoding="utf-8"))


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
    # the adjugate entry certifies the minors and det(A) = f1*f2, and the
    # line certificate the coprimality: no inclusion or identity is left
    cert = report["certificate"]
    assert cert["identities"] == cert["inclusions"] == []
    assert set(cert["coprimality"]) == {"factors", "point", "direction",
                                        "a", "b"}
    assert cert["coprimality"]["factors"] == cert["adjugate"]["factors"] \
        == ["-x1 + x2", "x1^2 + x1*x2 + x2^2"]


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


@pytest.mark.parametrize("path, field", [
    (("vertices", 0, "id"), "quiver.vertices[0].id"),
    (("arrows", 0, "from"), "quiver.arrows[0].from"),
    (("arrows", 0, "to"), "quiver.arrows[0].to"),
], ids=["id", "from", "to"])
@pytest.mark.parametrize("value", [None, True, {"k": [1, 2]}, 1.5],
                         ids=["null", "true", "object", "float"])
def test_a_vertex_id_is_a_string_or_an_integer(tmp_path, capsys, path,
                                                field, value):
    doc = with_value(STRING_QUIVER, ("quiver", *path), value)
    assert run(capsys, ["build-kronecker", "--input",
                        write_doc(tmp_path, doc)]) == \
        (1, "", f"error: field '{field}' must be a string or an integer\n")


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
    certificate = out.index("coprimality:")
    verdict = out.index("verdict: Decomposable")
    assert hyp < certificate < verdict
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
    report = legacy_report()
    report["certificate"]["inclusions"][0]["cofactors"][0] = "x_1_1 + 1"
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


@pytest.mark.parametrize("command, job", [
    ("check-square", "square-dec.json"), ("check-quiver", "quiver3.json")])
def test_an_exact_run_restricts_each_factor_to_the_line_twice(
        capsys, monkeypatch, command, job):
    """Once in the line search and once in the runner's re-check of the
    verdict, which no other step repeats."""
    calls = []

    def counting(*args):
        calls.append(args)
        return restrict_to_line(*args)

    for module in (blocksplit.decompose, blocksplit.certificate):
        monkeypatch.setattr(module, "restrict_to_line", counting)
    path = pathlib.Path(__file__).parent / "golden" / job
    report = run_json(capsys, [command, "--input", str(path)])
    assert "coprimality" in report["certificate"]
    assert len(calls) == 4


# x^2 + y^3 is a square neither in Q[x, y] nor as a power series
OBSTRUCTED_CONJ = {"ring": {"vars": ["x", "y"]},
                   "matrix": [["x", "1/4"], ["y^3", "0"]]}


def test_the_probe_order_flag_and_option_are_refused(tmp_path, capsys):
    """check-conj decides over R without a series probe, so the probe's
    order is gone: the flag is a usage error and the option an unknown
    field, each exiting 1 with no message of its own."""
    path = write_doc(tmp_path, OBSTRUCTED_CONJ)
    with pytest.raises(SystemExit) as exc:
        main(["check-conj", "--input", path, "--probe-order", "2"])
    assert exc.value.code == 1
    assert "error: unrecognized arguments: --probe-order 2\n" in \
        capsys.readouterr().err
    doc = write_doc(tmp_path, dict(OBSTRUCTED_CONJ,
                                   options={"probe_order": 2}), "option.json")
    assert run(capsys, ["check-conj", "--input", doc]) == (
        1, "", "error: field 'options.probe_order' is not recognized\n")
    report = run_json(capsys, ["check-conj", "--input", path])
    assert report["verdict"] == "NotDecomposable"
    assert report["certificate"]["nonsquare"]["value"] == "2"


# each job command's target fields, and a job it decides
TARGET_JOBS = {
    "det": (("matrix", "quiver", "matrices"),
            {"ring": EX2["ring"], "matrix": EX2["matrix"]}),
    "fitting": (("matrix", "quiver", "matrices"),
                {"ring": EX2["ring"], "matrix": EX2["matrix"], "index": 2}),
    "build-kronecker": (("quiver", "matrices"),
                        {"ring": STRING_QUIVER["ring"],
                         "quiver": STRING_QUIVER["quiver"]}),
    "check-square": (("matrix",), EX2),
    "check-rect": (("matrix",), {"ring": {"vars": ["x1", "x2"]},
                                 "matrix": [["x1", "0"], ["0", "x2"]],
                                 "ideals": {"J1": ["x1"], "J2": ["x2"]}}),
    "check-conj": (("matrix",), {"ring": {"vars": ["x1"]},
                                 "matrix": [["x1", "1"], ["0", "0"]]}),
    "check-quiver": (("quiver",), STRING_QUIVER),
}
TARGET_VALUES = {"matrix": EX2["matrix"], "quiver": STRING_QUIVER["quiver"],
                 "matrices": [[["1", "0"], ["0", "-1"]]]}


@pytest.mark.parametrize("command", sorted(TARGET_JOBS))
def test_every_job_command_reads_one_target(tmp_path, capsys, command):
    """A missing target exits 1 naming the command's target fields; two of
    them exit 1 too, while a target field the command does not take is
    ignored; and every job command accepts --index."""
    kinds, doc = TARGET_JOBS[command]
    fields = ", ".join(f"'{k}'" for k in kinds)
    message = (f"field {fields}" if len(kinds) == 1 else
               f"exactly one of the fields {fields}")
    bare = {k: v for k, v in doc.items() if k not in kinds}
    assert run(capsys, [command, "--input", write_doc(tmp_path, bare)]) == \
        (1, "", f"error: {message} is required for '{command}'\n")

    code, out, err = run(capsys, [command, "--input", write_doc(tmp_path, doc)])
    assert (code, err) == (0, "")
    others = {k: v for k, v in TARGET_VALUES.items() if k not in kinds}
    assert run(capsys, [command, "--input",
                        write_doc(tmp_path, {**doc, **others})]) == \
        (0, out, "")
    assert run(capsys, [command, "--input", write_doc(tmp_path, doc),
                        "--index", "2"]) == (0, out, "")
    if len(kinds) > 1:
        both = {**doc, kinds[1]: TARGET_VALUES[kinds[1]]}
        assert run(capsys, [command, "--input",
                            write_doc(tmp_path, both)]) == \
            (1, "", f"error: {message} is required for '{command}'\n")


@pytest.mark.parametrize("command, field", [
    ("check-square", "factors"), ("check-quiver", "factors"),
    ("check-rect", "ideals")])
def test_a_missing_factor_or_ideal_pair_names_the_command(tmp_path, capsys,
                                                          command, field):
    """Like a missing target, a missing `factors` or `ideals` exits 1
    naming the command; an `ideals` of the wrong shape keeps its own
    message."""
    doc = {k: v for k, v in TARGET_JOBS[command][1].items() if k != field}
    assert run(capsys, [command, "--input", write_doc(tmp_path, doc)]) == \
        (1, "", f"error: field '{field}' is required for '{command}'\n")
    if field == "ideals":
        doc["ideals"] = ["x1"]
        assert run(capsys, [command, "--input",
                            write_doc(tmp_path, doc)]) == \
            (1, "", "error: field 'ideals' must be an object with lists "
                    "'J1' and 'J2'\n")


@pytest.mark.parametrize("command", ["det", "check-square"])
@pytest.mark.parametrize("fields, message", [
    ({"options": {"probe_order": 3}, "index": 2},
     "field 'options.probe_order' is not recognized"),
    ({"options": {"format": "yaml"}, "index": 2},
     "field 'options.format' must be 'json' or 'text'"),
    ({"index": "zzz"}, "field 'index' must be an integer"),
    ({"options": {"format": "json"}, "index": 2}, None),
], ids=["probe-order", "format", "index", "well-formed"])
def test_option_values_are_checked_for_every_command(tmp_path, capsys,
                                                     command, fields,
                                                     message):
    """A malformed value, or the option of the series probe that is gone,
    is refused even where the command does not read the field; a
    well-formed one is still accepted there."""
    code, _, err = run(capsys, [command, "--input",
                                write_doc(tmp_path, {**EX2, **fields})])
    if message is None:
        assert (code, err) == (0, "")
    else:
        assert (code, err) == (1, f"error: {message}\n")


def test_a_unit_discriminant_gets_its_point_at_once(tmp_path, capsys):
    # disc = 1 + x1 + x2 + x3 + x4: a unit with a series square root but
    # none in R, which its value -3 at (-1, -1, -1, -1) certifies
    doc = {"ring": {"vars": ["x1", "x2", "x3", "x4"]},
           "matrix": [["0", "1/4"], ["1 + x1 + x2 + x3 + x4", "0"]]}
    path = write_doc(tmp_path, doc)
    start = time.perf_counter()
    report = run_json(capsys, ["check-conj", "--input", path])
    assert time.perf_counter() - start < 1.0
    assert report["verdict"] == "NotDecomposable"
    assert report["failing"] == "x1 + x2 + x3 + x4 + 1"
    assert report["certificate"]["nonsquare"] == {
        "polynomial": "x1 + x2 + x3 + x4 + 1", "point": [-1, -1, -1, -1],
        "value": "-3"}
    assert _verify(tmp_path, capsys, report)[0] == 0


def test_a_discriminant_past_the_line_degree_goes_without_a_point(
        tmp_path, capsys):
    # disc = 4*x^101, no square, but of a degree that verify-cert refuses
    # in a point certificate, so the verdict carries none
    doc = {"ring": {"vars": ["x"]}, "matrix": [["0", "x^51"], ["x^50", "0"]]}
    report = run_json(capsys, ["check-conj", "--input",
                               write_doc(tmp_path, doc)])
    assert (report["verdict"], report["failing"]) == ("NotDecomposable",
                                                      "4*x^101")
    assert "nonsquare" not in report["certificate"]
    assert _verify(tmp_path, capsys, report)[0] == 0


@pytest.mark.parametrize("command, doc, flag, what", [
    ("check-square", EX2, "--jet-order", "jet order 100000 over 2"),
])
def test_oversized_jet_and_probe_orders_exit_1_at_once(tmp_path, capsys,
                                                       command, doc, flag,
                                                       what):
    # the probe order is now refused as a flag of its own, however small:
    # see test_the_probe_order_flag_and_option_are_refused
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


def test_a_root_with_a_dense_series_is_refuted_at_once(tmp_path, capsys):
    # the root's series has hundreds of terms below order 8 over five or
    # more variables, but no series is built: the discriminant is
    # 1 - (nvars - 1) at (-1, ..., -1), which no square is
    for nvars in (5, 8):
        path = write_doc(tmp_path, conj_job(nvars))
        start = time.perf_counter()
        report = run_json(capsys, ["check-conj", "--input", path])
        assert time.perf_counter() - start < 1.0
        assert report["verdict"] == "NotDecomposable"
        nonsquare = report["certificate"]["nonsquare"]
        assert nonsquare["point"] == [-1] * nvars
        assert nonsquare["value"] == str(2 - nvars)
        assert _verify(tmp_path, capsys, report)[0] == 0


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


def test_verify_cert_checks_a_1x1_adjugate_entry(tmp_path, capsys):
    """A 1x1 A has no (n-1)-minor and adj(A) = [1], so the entry says
    unit == f1*C1 + f2*C2 and A == f1*f2; a tampered A fails the product,
    and A = 2*f1*f2 with the unit doubled passes it but not the pin."""
    report = golden_report("square-signed.out")
    del report["certificate"]["coprimality"]
    report["certificate"]["adjugate"] = {
        "matrix": [["y + x*y"]], "factors": ["1 + x", "y"],
        "unit": "1 + x", "cofactors": [[["1"]], [["0"]]]}
    code, out, err = _verify(tmp_path, capsys, report)
    assert (code, json.loads(out)["failures"], err) == (0, [], "")
    for changes in ({"matrix": [["y"]]},
                    {"matrix": [["2*y + 2*x*y"]], "unit": "2 + 2*x"}):
        doc = json.loads(json.dumps(report))
        doc["certificate"]["adjugate"].update(changes)
        code, out, err = _verify(tmp_path, capsys, doc)
        assert (code, json.loads(out)["failures"], err) == (
            2, ["adjugate: det(A) does not equal f1*f2"], "")


def test_verify_cert_rejects_congruences_in_an_exact_report(tmp_path, capsys):
    # modulo m^1 every entry holds with zero cofactors, since all of its
    # polynomials vanish at the origin; an exact report must not say so
    report = legacy_report()
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
    report = legacy_report()
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


def test_an_identity_whose_degrees_disagree_fails_before_any_product(
        tmp_path, capsys):
    """Q[x] is a domain, so 300 factors x1 + x2 + 1 cannot multiply out to
    a left side of degree 1; the check says so without forming the
    product."""
    report = _ex2_report(tmp_path, capsys)
    report["certificate"]["identities"].append(
        {"label": "long", "lhs": "x1 + x2 + 1",
         "factors": ["x1+x2+1"] * 300})
    start = time.perf_counter()
    code, out, _ = _verify(tmp_path, capsys, report)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert json.loads(out)["failures"] == [
        "identity 'long': the left side does not equal the product of the "
        "factors"]


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


GOLDEN = LEGACY.parent


def golden_report(name: str) -> dict:
    return json.loads((GOLDEN / name).read_text(encoding="utf-8"))


def with_value(doc: dict, path: tuple, value) -> dict:
    """A deep copy of `doc` with the entry at `path` set to `value`."""
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


# (source, path, value, message): a source is a job command with its
# document, or "verify-cert" with a report; job fields and report fields
# go through the same readers, so one malformed shape gets one message.
# A message given as a list is the failures of a report that decodes:
# a non-square adjugate entry breaks a rule of its re-check, not a shape
JOB_SQUARE = ("check-square", EX2)
REPORT = ("verify-cert", golden_report("square-dec.out"))
LEGACY_REPORT = ("verify-cert", legacy_report())
ADJ = ("certificate", "adjugate")
SHARED_READER_CASES = [
    *((source, path, value, message.format(field))
      for source, path, field in (
          (JOB_SQUARE, ("matrix",), "matrix"),
          (REPORT, (*ADJ, "matrix"), "certificate.adjugate.matrix"))
      for value, message in (
          ([["x1", "x2"], ["x1"]], "field '{}[1]' has 1 entries, expected 2"),
          ([["x1"], []], "field '{}[1]' must be a non-empty list of "
                         "polynomial strings"),
          ([["x1"] * OVERSIZED], f"field '{{}}' has {OVERSIZED} columns, "
                                 f"more than {MAX_MATRIX_SIZE}"))),
    (JOB_SQUARE, ("factors",), ["x1", "x2", "x1"],
     "field 'factors' must be a list of exactly two polynomial strings"),
    (REPORT, (*ADJ, "factors"), ["x1", "x2", "x1"],
     "field 'certificate.adjugate.factors' must be a list of exactly two "
     "polynomial strings"),
    (("check-rect", VERDICT_DOCS["check-rect"]), ("ideals", "J2"), [],
     "field 'ideals.J2' must be a non-empty list of polynomial strings"),
    (LEGACY_REPORT, ("certificate", "inclusions", 0, "ideal"), [],
     "field 'certificate.inclusions[0].ideal' must be a non-empty list of "
     "polynomial strings"),
    *((source, path, value, message)
      for value in (True, 0)
      for source, path, message in (
          (("check-quiver", STRING_QUIVER),
           ("quiver", "vertices", 0, "rank"),
           "field 'quiver.vertices[0].rank' must be a positive integer"),
          (("check-square", {**EX2, "options": {}}),
           ("options", "jet_order"),
           "field 'options.jet_order' (or --jet-order) must be an "
           "integer >= 1"),
          (("check-conj", {**VERDICT_DOCS["check-conj"], "options": {}}),
           ("options", "probe_order"),
           "field 'options.probe_order' is not recognized"),
          (LEGACY_REPORT, ("certificate", "inclusions", 0, "modulo_order"),
           "field 'certificate.inclusions[0].modulo_order' must be an "
           "integer >= 1"),
          (("verify-cert", with_value(REPORT[1], ("provenance", "exact"),
                                      False)),
           ("provenance", "jet_order"),
           "field 'provenance.jet_order' must be an integer >= 1 when "
           "'provenance.exact' is false"))),
    (REPORT, (*ADJ, "matrix"), [["x1", "x2", "0"], ["0", "x1", "x2"]],
     ["adjugate: A, C1 and C2 must be square of one size"]),
    (("verify-cert", golden_report("square-signed.out")),
     (*ADJ, "cofactors", 1), square(3, "x"),
     ["adjugate: A, C1 and C2 must be square of one size"]),
    (JOB_SQUARE, ("ring", "vars"), ["x1", "x2", "x1"],
     "field 'ring.vars': variable names must be unique"),
    *((("check-quiver", STRING_QUIVER), ("quiver", *path), value,
       f"field 'quiver': {message}")
      for path, value, message in (
          (("arrows", 0, "to"), 3, "arrow target '3' not a vertex"),
          (("vertices", 1, "id"), 1, "duplicate vertex id '1'"),
          (("arrows", 0, "matrix"), [["0", "1"]],
           "arrow '1' -> '2' matrix must be 2 x 2"))),
]


@pytest.mark.parametrize(
    "source, path, value, message", SHARED_READER_CASES,
    ids=[f"{source[0]}-{'.'.join(map(str, path))}-{k}" for k, (source, path,
         _, _) in enumerate(SHARED_READER_CASES)])
def test_job_and_report_fields_share_one_reader(tmp_path, capsys, source,
                                                path, value, message):
    """A malformed job or report field exits 1 with a message naming it;
    a well-formed report that its re-check refuses exits 2."""
    command, base = source
    doc = with_value(base, path, value)
    flag = "--cert" if command == "verify-cert" else "--input"
    code, out, err = run(capsys, [command, flag, write_doc(tmp_path, doc)])
    if isinstance(message, list):
        assert (code, json.loads(out)["failures"], err) == (2, message, "")
    else:
        assert (code, out, err) == (1, "", f"error: {message}\n")


def test_a_sparse_matrix_of_the_largest_size_runs(tmp_path, capsys):
    n = MAX_MATRIX_SIZE
    rows = [["x1" if j == i else "1" if j == i + 1 else "0"
             for j in range(n)] for i in range(n)]
    path = write_doc(tmp_path, {"ring": {"vars": ["x1"]}, "matrix": rows})
    report = run_json(capsys, ["det", "--input", path])
    assert report["determinant"] == f"x1^{n}"


INCLUSION = ("certificate", "inclusions", 0)


@pytest.mark.parametrize("report, path, value, failure", [
    (legacy_report(), (*INCLUSION, "cofactors"), [],
     "inclusion 0: 0 cofactors for 1 generator"),
    (golden_report("rect-product-fails.out"), (*INCLUSION, "cofactors"),
     ["1"], "inclusion 0: 1 cofactor for 2 generators"),
    (golden_report("rect-product-fails.out"), (*INCLUSION, "unit"), "x1",
     "inclusion 0: the unit has zero constant term"),
    (golden_report("square-dec.out"), ("hypotheses", 1, "passed"), False,
     "verdict shape: Decomposable with a failed hypothesis"),
    (golden_report("square-dec.out"), ("failing",), "x1",
     "verdict shape: Decomposable with a failing element"),
    (golden_report("square-dec.out"), ("failed_hypothesis",),
     "factor-coprimality",
     "verdict shape: Decomposable with a failed hypothesis"),
    (golden_report("square-notdec.out"), ("failed_hypothesis",),
     "factor-coprimality",
     "verdict shape: NotDecomposable with a failed hypothesis"),
    (golden_report("rect-kernel-unit.out"), ("failing",), "x1",
     "verdict shape: Inconclusive with a failing element"),
], ids=["no-cofactors", "one-cofactor", "non-unit", "failed-hypothesis",
        "decomposable-failing", "decomposable-names-failed",
        "notdecomposable-names-failed", "inconclusive-failing"])
def test_verify_cert_rejects_a_tampered_report(tmp_path, capsys, report,
                                               path, value, failure):
    assert _verify(tmp_path, capsys, report)[0] == 0
    code, out, _ = _verify(tmp_path, capsys, with_value(report, path, value))
    assert code == 2
    assert json.loads(out)["failures"] == [failure]
