"""Command-line surface.

One JSON job document per invocation describes the ring, the target
(matrix, quiver, or tuple of matrices), optional candidate factors or
ideals, and options.  Each job command is one entry of ``COMMANDS``; its
handler returns a Verdict (whose report states its strength) or the
report's own keys, and ``_dispatch`` adds the command, ring and the
provenance's tool, version and ``"order"`` (always grevlex, the one
order membership is decided in).  The checklist runner
``decompose._decide`` has re-checked every Verdict.  Every emitted
report is accepted by ``verify-cert``, which re-checks the witnesses
using plain ring arithmetic only.

Exit codes: 0 = a verdict or result was produced (any status),
1 = input error, 2 = internal invariant violation (or, for
``verify-cert``, a certificate that fails re-verification).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Any, Callable, NamedTuple

from . import __version__
from .certificate import (
    MAX_MATRIX_SIZE,
    InputError,
    Verdict,
    _parse_list,
    _parse_pair,
    certificate_text,
    expect,
    format_grid,
    is_count,
    parse_matrix,
    provenance_text,
    strength,
)
from .decompose import check_rect_lr, check_square_lr
from .groebner import Ideal
from .matrix import PolyMatrix, det, fitting_ideal
from .quiver import (
    Arrow,
    KroneckerForm,
    QuiverRep,
    Vertex,
    build_kronecker,
    check_conj_2x2,
    check_quiver,
    conj_pencil,
)
from .ring import InvariantError, Poly, RingError, VarTable, format_poly

TOOL = "blocksplit"

TOP_KEYS = ("ring", "matrix", "quiver", "matrices", "factors", "ideals",
            "index", "options")
OPTION_KEYS = ("jet_order", "format")


def _load_json(path: str, what: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(
            f"cannot read the {what} file: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"the {what} file is not UTF-8 text") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"the {what} file is not valid JSON: {exc.msg}") from exc
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise InputError(f"the {what} file holds a number of more than "
                         f"{sys.get_int_max_str_digits()} digits") from exc
    except RecursionError as exc:
        raise InputError(f"the {what} file is nested too deeply") from exc


def _parse_ring(doc: dict) -> VarTable:
    ring = doc.get("ring")
    expect(isinstance(ring, dict),
           "field 'ring' must be an object with a 'vars' list")
    names = ring.get("vars")
    expect(isinstance(names, list)
           and all(isinstance(n, str) for n in names),
           "field 'ring.vars' must be a list of variable names")
    try:
        return VarTable(names)
    except RingError as exc:
        raise InputError(f"field 'ring.vars': {exc}") from exc


def _parse_matrix(rows: Any, table: VarTable, field: str) -> PolyMatrix:
    return PolyMatrix(table, parse_matrix(rows, table, field))


def _parse_id(value: Any, field: str) -> str:
    """A vertex id or arrow endpoint: a string, or an integer read as its
    decimal string, so that 1 and "1" name one vertex."""
    expect(isinstance(value, str) or (isinstance(value, int)
                                      and not isinstance(value, bool)),
           f"field '{field}' must be a string or an integer")
    return str(value)


def _parse_quiver(doc: Any, table: VarTable) -> QuiverRep:
    expect(isinstance(doc, dict),
           "field 'quiver' must be an object with 'vertices' and 'arrows'")
    verts = doc.get("vertices")
    expect(isinstance(verts, list) and verts,
           "field 'quiver.vertices' must be a non-empty list")
    vertices = []
    for i, v in enumerate(verts):
        expect(isinstance(v, dict) and "id" in v,
               f"field 'quiver.vertices[{i}]' must be an object with "
               "'id' and 'rank'")
        rank = v.get("rank")
        expect(is_count(rank), f"field 'quiver.vertices[{i}].rank' must be "
                               "a positive integer")
        vertices.append(Vertex(_parse_id(v["id"], f"quiver.vertices[{i}].id"),
                               rank))
    size = sum(v.rank for v in vertices)
    expect(size <= MAX_MATRIX_SIZE,
           f"field 'quiver.vertices': the ranks sum to {size}, so the "
           f"Kronecker form would have more than {MAX_MATRIX_SIZE} rows")
    arrows_doc = doc.get("arrows", [])
    expect(isinstance(arrows_doc, list), "field 'quiver.arrows' must be a list")
    arrows = []
    for i, a in enumerate(arrows_doc):
        expect(isinstance(a, dict),
               f"field 'quiver.arrows[{i}]' must be an object")
        for key in ("from", "to", "matrix"):
            expect(key in a, f"field 'quiver.arrows[{i}].{key}' is required")
        source, target = (_parse_id(a[key], f"quiver.arrows[{i}].{key}")
                          for key in ("from", "to"))
        mat = _parse_matrix(a["matrix"], table, f"quiver.arrows[{i}].matrix")
        arrows.append(Arrow(source, target, mat))
    try:
        return QuiverRep(table, vertices, arrows)
    except RingError as exc:
        raise InputError(f"field 'quiver': {exc}") from exc


class Job(NamedTuple):
    """Parsed job document plus resolved options (flags win over the
    document's ``options`` block and ``index``)."""

    command: str
    doc: dict
    table: VarTable
    jet_order: int | None
    fmt: str
    index: int | None


def _load_job(args: argparse.Namespace) -> Job:
    doc = _load_json(args.input, "input")
    expect(isinstance(doc, dict), "the input document must be a JSON object")
    for key in sorted(doc):
        expect(key in TOP_KEYS, f"field '{key}' is not recognized")
    options = doc.get("options", {})
    expect(isinstance(options, dict), "field 'options' must be an object")
    for key in sorted(options):
        expect(key in OPTION_KEYS, f"field 'options.{key}' is not recognized")

    jet = args.jet_order if args.jet_order is not None \
        else options.get("jet_order")
    if jet is not None:
        expect(is_count(jet), "field 'options.jet_order' (or --jet-order) "
                              "must be an integer >= 1")
        expect(not COMMANDS[args.command].exact_only,
               f"the '{args.command}' command is exact only; "
               "remove 'jet_order'")
    # every command checks these values, whether it reads them or not
    index = doc.get("index") if args.index is None else args.index
    expect(index is None or type(index) is int,  # a bool is not an index
           "field 'index' must be an integer")
    fmt = args.format or options.get("format", "json")
    expect(isinstance(fmt, str) and fmt in ("json", "text"),
           "field 'options.format' must be 'json' or 'text'")
    table = _parse_ring(doc)
    return Job(args.command, doc, table, jet, fmt, index)


def _parse_factors(job: Job, table: VarTable) -> tuple[Poly, Poly]:
    expect("factors" in job.doc,
           f"field 'factors' is required for '{job.command}'")
    return _parse_pair(job.doc["factors"], table, "factors", None)


def _parse_ideals(job: Job) -> tuple[Ideal, Ideal]:
    expect("ideals" in job.doc,
           f"field 'ideals' is required for '{job.command}'")
    ideals, table = job.doc["ideals"], job.table
    expect(isinstance(ideals, dict),
           "field 'ideals' must be an object with lists 'J1' and 'J2'")
    return tuple(Ideal(table, _parse_list(ideals.get(key), table,
                                          f"ideals.{key}", None, nonempty=True))
                 for key in ("J1", "J2"))


def _target(job: Job, kinds: tuple[str, ...]) -> PolyMatrix | KroneckerForm:
    """The job's one target among the fields `kinds`, which the command
    accepts (it ignores the other target fields): a `matrix` as itself, a
    `quiver` or a `matrices` pencil as its Kronecker form."""
    present = [k for k in kinds if k in job.doc]
    fields = ", ".join(f"'{k}'" for k in kinds)
    expect(len(present) == 1,
           f"field {fields} is required for '{job.command}'"
           if len(kinds) == 1 else f"exactly one of the fields {fields} "
           f"is required for '{job.command}'")
    kind, value = present[0], job.doc[present[0]]
    if kind == "matrix":
        return _parse_matrix(value, job.table, "matrix")
    if kind == "quiver":
        return build_kronecker(_parse_quiver(value, job.table))
    expect(isinstance(value, list) and value,
           "field 'matrices' must be a non-empty list of matrices")
    return conj_pencil([_parse_matrix(m, job.table, f"matrices[{i}]")
                        for i, m in enumerate(value)])


# ---------------------------------------------------------------------------
# report assembly


def _verdict_report(verdict: Verdict) -> dict:
    return verdict.to_json()


def _render_text(report: dict) -> str:
    lines = [f"{TOOL} {report['command']}"]
    ring = report.get("ring")
    if ring is not None:
        names = ", ".join(ring["vars"])
        lines.append(f"ring: Q[{names}] localized at the origin"
                     if names else "ring: Q (no variables)")
    hyps = report.get("hypotheses")
    if hyps is not None:
        lines.append("hypotheses:")
        for h in hyps:
            mark = "pass" if h["passed"] else "FAIL"
            lines.append(f"  [{mark}] {h['name']}: {h['detail']}")
    lines += certificate_text(report.get("certificate", {}))
    if "determinant" in report:
        lines.append(f"determinant: {report['determinant']}")
    if "index" in report:
        lines.append(f"fitting index: {report['index']}")
    if "generators" in report:
        lines.append("generators:")
        for g in report["generators"]:
            lines.append(f"  {g}")
    if "matrix" in report:
        lines.append("matrix:")
        for row in report["matrix"]:
            lines.append("  [" + ", ".join(row) + "]")
    if "block_sizes" in report:
        sizes = ", ".join(str(s) for s in report["block_sizes"])
        lines.append(f"block sizes: {sizes}")
    if "variable_roles" in report:
        lines.append("variable roles:")
        for name in sorted(report["variable_roles"]):
            lines.append(f"  {name}: {report['variable_roles'][name]}")
    if "failing" in report:
        lines.append(f"failing element: {report['failing']}")
    if "failed_hypothesis" in report:
        lines.append(f"failed hypothesis: {report['failed_hypothesis']}")
    if "verdict" in report:
        lines.append(f"verdict: {report['verdict']}")
        lines.append(f"scope: {report['scope']}")
    if "valid" in report:
        lines.append(f"certificate valid: {'yes' if report['valid'] else 'NO'}")
        for msg in report.get("failures", []):
            lines.append(f"  {msg}")
    prov = report.get("provenance")
    if prov is not None and "order" in prov:
        lines.append(provenance_text(prov))
    return "\n".join(lines) + "\n"


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write(_render_text(report))


# ---------------------------------------------------------------------------
# commands

# a command's ring table and either its Verdict or its report's own keys
Outcome = tuple[VarTable, Verdict | dict]


# det and fitting read a quiver's or a pencil's Kronecker matrix
ANY_TARGET = ("matrix", "quiver", "matrices")


def _cmd_det(job: Job) -> Outcome:
    M = _target(job, ANY_TARGET)
    M = M.matrix if isinstance(M, KroneckerForm) else M
    return M.table, {"determinant": format_poly(det(M))}


def _cmd_fitting(job: Job) -> Outcome:
    M = _target(job, ANY_TARGET)
    M = M.matrix if isinstance(M, KroneckerForm) else M
    expect(job.index is not None, "field 'index' (or --index) is required "
           "for 'fitting'")
    I = fitting_ideal(M, job.index)
    return M.table, {"index": job.index,
                     "generators": [format_poly(g) for g in I.generators]}


def _cmd_build_kronecker(job: Job) -> Outcome:
    form = _target(job, ("quiver", "matrices"))
    return form.table, {
        "base_vars": list(form.base_table.names),
        "matrix": format_grid(form.matrix.entries),
        "block_offsets": list(form.offsets),
        "block_sizes": list(form.sizes),
        "variable_roles": dict(form.var_roles),
    }


def _cmd_check_square(job: Job) -> Outcome:
    A = _target(job, ("matrix",))
    f1, f2 = _parse_factors(job, job.table)
    return A.table, check_square_lr(A, f1, f2, jet_order=job.jet_order)


def _cmd_check_rect(job: Job) -> Outcome:
    A = _target(job, ("matrix",))
    J1, J2 = _parse_ideals(job)
    return A.table, check_rect_lr(A, J1, J2)


def _cmd_check_conj(job: Job) -> Outcome:
    A = _target(job, ("matrix",))
    expect(A.rows == 2 and A.cols == 2,
           "field 'matrix' must be 2x2 for 'check-conj'")
    return A.table, check_conj_2x2(A)


def _cmd_check_quiver(job: Job) -> Outcome:
    form = _target(job, ("quiver",))
    # the factors may mention the fresh x_i_j / y_i variables
    f1, f2 = _parse_factors(job, form.table)
    return form.table, check_quiver(form, f1, f2, jet_order=job.jet_order)


class Command(NamedTuple):
    """A job command.  An exact-only command's math is plain arithmetic:
    a jet order would be ignored, and ignoring an option silently is worse
    than refusing it."""

    run: Callable[[Job], Outcome]
    exact_only: bool
    help: str


COMMANDS = {
    "det": Command(_cmd_det, True, "determinant of the target matrix (or "
                   "of a quiver's Kronecker form)"),
    "fitting": Command(_cmd_fitting, True, "generators of the j-th Fitting "
                       "ideal of the target"),
    "check-square": Command(_cmd_check_square, False, "left-right "
                            "decomposability of a square matrix against a "
                            "factor pair"),
    "check-rect": Command(_cmd_check_rect, True, "left-right "
                          "decomposability of a rectangular matrix against "
                          "an ideal pair"),
    "check-conj": Command(_cmd_check_conj, True, "conjugation "
                          "diagonalizability of a 2x2 matrix"),
    "build-kronecker": Command(_cmd_build_kronecker, True, "Kronecker form "
                               "of a quiver representation or matrix tuple"),
    "check-quiver": Command(_cmd_check_quiver, False, "decomposability of a "
                            "quiver representation via its Kronecker form"),
}


# ---------------------------------------------------------------------------
# certificate re-verification (ring arithmetic only; no Groebner bases)


def _cmd_verify_cert(path: str, fmt: str) -> int:
    doc = _load_json(path, "certificate")
    expect(isinstance(doc, dict),
           "the certificate document must be a JSON object")
    verdict = Verdict.from_json(doc, _parse_ring(doc))
    failures = verdict.failures()
    report = {"command": "verify-cert", "valid": not failures,
              "checked": verdict.counts(), "failures": failures,
              "provenance": {"tool": TOOL, "version": __version__}}
    _emit(report, fmt)
    return 0 if not failures else 2


# ---------------------------------------------------------------------------
# argument parsing and dispatch


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; per the exit-code
    # contract that status is reserved for invariant violations
    def error(self, message: str):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on first use and kept for the process:
    building it takes some thirty times as long as one parse, and parsing
    leaves it unchanged."""
    parser = _Parser(
        prog=TOOL,
        description="decide block-diagonalizability of matrices and quiver "
                    "representations over the local ring at the origin, "
                    "with independently checkable certificates")
    parser.add_argument("--version", action="version",
                        version=f"{TOOL} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")
    for name, command in COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        sp.add_argument("--input", required=True, metavar="PATH",
                        help="job document (JSON)")
        sp.add_argument("--jet-order", dest="jet_order", type=int,
                        metavar="N",
                        help="decide modulo m^N instead of exactly")
        sp.add_argument("--format", choices=("json", "text"),
                        help="output format (default json)")
        sp.add_argument("--index", type=int, metavar="J",
                        help="Fitting ideal index (read by 'fitting')")
    sp = sub.add_parser("verify-cert",
                        help="re-check an emitted certificate using plain "
                             "ring arithmetic")
    sp.add_argument("--cert", required=True, metavar="PATH",
                    help="previously emitted report (JSON)")
    sp.add_argument("--format", choices=("json", "text"),
                    help="output format (default json)")
    return parser


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "verify-cert":
        return _cmd_verify_cert(args.cert, args.format or "json")
    job = _load_job(args)
    table, result = COMMANDS[job.command].run(job)
    if isinstance(result, Verdict):
        result = _verdict_report(result)
    result["command"] = job.command
    result["ring"] = {"vars": list(table.names)}
    # a report without a verdict states exact results
    result.setdefault("provenance", strength(None)).update(
        tool=TOOL, version=__version__, order="grevlex")
    _emit(result, job.fmt)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except InvariantError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 2
    except RingError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except Exception as exc:  # contract: never a stack trace
        sys.stderr.write(f"internal error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
