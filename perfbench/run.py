"""Benchmark for blocksplit: how long a certified verdict takes, how long
its independent re-check takes, and whether the verdict is right.

Run from the repository root:

    python3 perfbench/run.py --workload small-jobs --seed 1 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* ``small-jobs``: the acceptance grids (check-conj, check-square exact and
  at jet order 8), 2x3 check-rect jobs and 2-vertex hidden direct sums;
* ``quiver-sum``: check-quiver on 3-vertex hidden direct sums (6x6 forms
  over 12 variables);
* ``local-member``: library ``member_local`` on random, constructed and
  obstructed membership instances.

One process drives the load as a closed loop with one client: each job
starts when the previous one has been checked.  CLI jobs call
``blocksplit.cli.main(argv)`` in process and then ``verify-cert`` on the
report they wrote; interpreter start-up is paid once, in set-up.

``--trace 0`` runs jobs for ``--seconds`` after a short warm-up and
prints the end-to-end metrics.  Each execution's time is scaled by a
speed probe timed between jobs (see speed_scales), and a job's time is
the median over its repeats in the run; the unscaled figures are printed
with a ``raw`` prefix and kept in the results file.  The tail
(verdict_tail_ms, the highest percentile with ten jobs beyond it) is
printed and kept but not gated: on local-member it moves with the seed
almost as much as the largest bound BENCHMARK.json may set.

``--trace 1`` runs a fixed prefix of the workload's jobs once untraced and
once under ``tracer.Tracer`` and prints the per-layer metrics (self times
and counts; counts repeat exactly for a given seed) plus the tracing
overhead (traced minus untraced wall time).

Every answer is checked against an answer known from outside the code
under test (see workloads.py); a wrong answer, a nonzero exit or a
rejected certificate counts as failed and makes the command exit 1.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with machine metadata and input-property counts, is written to
``.bench_results/``; traced runs also write their spans there.
"""

from __future__ import annotations

import argparse
import array
import bisect
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"

SETUP_REPEATS = 7
WARMUP_S = 1.0
HARD_STOP_S = 140.0          # stop starting jobs this long after launch
# a run does 12 to 21 quiver-sum jobs; cycling a fixed 12 keeps the set
# of instances in a run the same however fast the host is
QUIVER_JOBS = 12
MEMBER_CASES = 2000          # each runs about four times in 36 s
TRACE_JOBS = {"small-jobs": None, "quiver-sum": 2, "local-member": 120}
JET_ORDERS = (4, 6, 8)
PROBE_INTERVAL_S = 0.25
# probe()'s typical time on the machine the bounds were set on
# (Intel Xeon, 2 vCPUs, CPython 3.11.7); only a scale for the reported times
PROBE_REFERENCE_S = 0.0040

# gated in BENCHMARK.json; verdict_tail_ms is reported beside them
END_TO_END_UNITS = {
    "verdict_p50_ms": "ms",
    "jobs_per_s": "1/s",
    "verify_p50_ms": "ms",
    "report_kb_per_job": "KiB",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

# the metrics scaled by the speed probe (see speed_scales)
SPEED_SCALED = ("verdict_p50_ms", "jobs_per_s", "verify_p50_ms", "setup_s")

START = time.perf_counter()


def import_blocksplit():
    if not (SRC / "blocksplit" / "__init__.py").is_file():
        sys.stderr.write(f"error: no blocksplit sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import blocksplit
    import blocksplit.cli
    return blocksplit


def prepare(workload: str, seed: int) -> list[dict]:
    """Generate the workload's inputs and write the job documents."""
    if workload == "small-jobs":
        jobs = workloads.small_jobs(seed)
    elif workload == "quiver-sum":
        jobs = workloads.quiver_sum(seed, QUIVER_JOBS)
    else:
        jobs = workloads.local_member(seed, MEMBER_CASES)
    folder = WORK / f"{workload}-{seed}"
    folder.mkdir(parents=True, exist_ok=True)
    if workload == "local-member":
        (folder / "cases.json").write_text(json.dumps(jobs))
        return jobs
    for job in jobs:
        job["path"] = folder / f"{job['id']}.json"
        job["path"].write_text(json.dumps(job["doc"]))
    return jobs


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median wall time of a fresh interpreter that imports blocksplit,
    generates the inputs and writes them, as (scaled, raw); each sample is
    scaled by the probes just before and after it, as job times are."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        before = probe()
        t0 = time.perf_counter()
        # no timeout: with one, wait() polls in sleeps of up to 50 ms,
        # which would quantize the measurement
        subprocess.run([sys.executable, str(Path(__file__).resolve()),
                        "--setup-only", "--workload", workload,
                        "--seed", str(seed)],
                       check=True, stdout=subprocess.DEVNULL)
        raw.append(time.perf_counter() - t0)
        scaled.append(raw[-1] * PROBE_REFERENCE_S / ((before + probe()) / 2))
    return statistics.median(scaled), statistics.median(raw)


def direct(_name, fn, *args):
    return fn(*args)


# ---------------------------------------------------------------------------
# one job


class Outcome:
    __slots__ = ("job", "verdict_s", "verify_s", "report_bytes", "failures",
                 "local_only", "answer")

    def __init__(self, job):
        self.job = job
        self.verdict_s = 0.0
        self.verify_s = None
        self.report_bytes = 0
        self.failures: list[str] = []
        self.local_only = 0      # inclusions decided through a colon unit
        self.answer = None


def run_cli_job(bs, job: dict, call=direct) -> Outcome:
    out = Outcome(job)
    report_path = job["path"].with_name(job["id"] + ".report.json")
    argv = [job["command"], "--input", str(job["path"])]
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = call("job.verdict", bs.cli.main, argv)
    text = buf.getvalue()
    report_path.write_text(text)
    out.verdict_s = time.perf_counter() - t0
    out.report_bytes = len(text.encode())
    if code != 0:
        out.failures.append(f"exit {code}")
        return out
    report = json.loads(text)
    out.answer = report["verdict"]
    if report["verdict"] != job["expect"]:
        out.failures.append(f"verdict {report['verdict']}, "
                            f"expected {job['expect']}")
    if report.get("failed_hypothesis") != job.get("failed_hypothesis"):
        out.failures.append(f"failed hypothesis "
                            f"{report.get('failed_hypothesis')}, expected "
                            f"{job.get('failed_hypothesis')}")
    out.local_only = sum(1 for inc in report["certificate"]["inclusions"]
                         if inc["unit"] != "1")

    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = call("job.verify", bs.cli.main,
                    ["verify-cert", "--cert", str(report_path)])
    out.verify_s = time.perf_counter() - t0
    if code != 0 or json.loads(buf.getvalue())["valid"] is not True:
        out.failures.append(f"verify-cert rejected the report (exit {code})")
    return out


def parse_case(bs, case: dict):
    table = bs.VarTable(case["vars"])
    return (bs.parse_poly(case["element"], table),
            bs.Ideal(table, [bs.parse_poly(g, table) for g in case["ideal"]]))


def run_member_case(bs, case: dict, call=direct) -> Outcome:
    out = Outcome(case)
    f, ideal = parse_case(bs, case)
    t0 = time.perf_counter()
    # looked up at call time, so that a tracer's wrapper is the one called
    ok, witness = call("job.verdict", bs.member_local, f, ideal)
    out.verdict_s = time.perf_counter() - t0
    out.answer = ok
    if case["expect"] is not None and ok != case["expect"]:
        out.failures.append(f"member_local said {ok}, expected "
                            f"{case['expect']}")
    if ok:
        inclusion = bs.Inclusion(f, ideal.generators, witness.unit,
                                 witness.cofactors)
        t0 = time.perf_counter()
        valid = call("job.verify", inclusion.verify)
        out.verify_s = time.perf_counter() - t0
        if not valid:
            out.failures.append("the membership witness does not verify")
        fp = bs.format_poly
        out.report_bytes = len(json.dumps({
            "element": fp(f), "ideal": [fp(g) for g in ideal.generators],
            "unit": fp(witness.unit),
            "cofactors": [fp(c) for c in witness.cofactors]}).encode())
        out.local_only = int(fp(witness.unit) != "1")
    return out


def referee(bs, outcomes: list[Outcome]) -> int:
    """Jet-oracle check of membership answers with no known answer, outside
    any timed region: a yes must survive every jet order, and a no is
    confirmed by any jet order that rejects.  Returns how many distinct
    cases no order decided (neither right nor wrong)."""
    verdicts: dict[tuple, str | None] = {}
    for out in outcomes:
        case = out.job
        if case["expect"] is not None or out.failures:
            continue
        key = (case["id"], out.answer)
        if key not in verdicts:
            f, ideal = parse_case(bs, case)
            jets = (bs.jet_member(f, ideal, n) for n in JET_ORDERS)
            if out.answer:
                verdicts[key] = (None if all(jets) else
                                 "a member by Groebner fails a jet order")
            else:
                verdicts[key] = "unresolved" if all(jets) else None
        if verdicts[key] not in (None, "unresolved"):
            out.failures.append(verdicts[key])
    return sum(v == "unresolved" for v in verdicts.values())


# ---------------------------------------------------------------------------
# machine speed


def _probe_work() -> None:
    poly = {(i, j): Fraction(i + 1, j + 2) for i in range(6) for j in range(6)}
    out: dict = {}
    for (a, b), c in poly.items():
        for (d, e), g in poly.items():
            key = (a + d, b + e)
            out[key] = out.get(key, 0) + c * g


def probe() -> float:
    """Best of two timings of a fixed Fraction-and-dict polynomial product:
    the kind of work blocksplit's ring layer does, but none of its code, so
    a change to blocksplit cannot move it."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        _probe_work()
        best = min(best, time.perf_counter() - t0)
    return best


class Measured:
    """Timings of every execution in the measured window, kept as flat
    arrays: the benchmark's own memory must not grow with the number of
    executions, or it would show in peak_rss_mb.  One full outcome is kept
    per distinct job (answers are deterministic; a repeat that answers
    differently is a failure) and every failed one."""

    def __init__(self):
        self.index = array.array("l")
        self.start = array.array("d")
        self.end = array.array("d")
        self.verdict = array.array("d")
        self.verify = array.array("d")      # nan: no re-check ran
        self.first: dict[int, Outcome] = {}
        self.failed: list[Outcome] = []

    def __len__(self) -> int:
        return len(self.index)

    def add(self, k: int, start: float, end: float, out: Outcome) -> None:
        self.index.append(k)
        self.start.append(start)
        self.end.append(end)
        self.verdict.append(out.verdict_s)
        self.verify.append(math.nan if out.verify_s is None else out.verify_s)
        first = self.first.setdefault(k, out)
        if out.answer != first.answer:
            out.failures.append(f"answered {out.answer}, earlier "
                                f"{first.answer}")
        if out.failures:
            self.failed.append(out)


def speed_scales(measured: Measured, probes: list[tuple]) -> list[float]:
    """Per execution, the factor that scales its times to the probe's speed
    on the reference machine, PROBE_REFERENCE_S.

    The host's speed swings by up to 60%, in states that last from seconds
    to whole runs (measured with this probe, in 1-s windows).  A job's time
    over the mean of the probes just before and just after it follows
    blocksplit's own speed three times more closely than the raw time does,
    so the scaled times stay comparable between runs."""
    stamps = [t for t, _ in probes]
    scales = []
    for start, end in zip(measured.start, measured.end):
        before = probes[max(bisect.bisect_right(stamps, start) - 1, 0)][1]
        j = min(bisect.bisect_left(stamps, end), len(probes) - 1)
        after = probes[j][1]
        scales.append(PROBE_REFERENCE_S / ((before + after) / 2))
    return scales


def per_job(measured: Measured, scales=None) -> list[Outcome]:
    """One outcome per distinct job, with the median of its (scaled)
    verdict times and of its re-check times over its repeats."""
    groups: dict[int, list[int]] = {}
    for row, k in enumerate(measured.index):
        groups.setdefault(k, []).append(row)
    merged = []
    for k, rows in groups.items():
        scale = [scales[r] if scales else 1.0 for r in rows]
        m = Outcome(measured.first[k].job)
        m.verdict_s = statistics.median(
            measured.verdict[r] * f for r, f in zip(rows, scale))
        verify = [measured.verify[r] * f for r, f in zip(rows, scale)
                  if not math.isnan(measured.verify[r])]
        m.verify_s = statistics.median(verify) if verify else None
        m.report_bytes = measured.first[k].report_bytes
        merged.append(m)
    return merged


# ---------------------------------------------------------------------------
# metrics and properties


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, as
    (value, percentile); the maximum when there are ten samples or fewer."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(jobs: list[Outcome], setup_s: float) -> dict:
    """The gated metrics, from one outcome per distinct job."""
    times = [o.verdict_s for o in jobs]
    verify = [o.verify_s for o in jobs if o.verify_s is not None]
    values = {
        "verdict_p50_ms": statistics.median(times) * 1e3,
        "jobs_per_s": len(times) / sum(times),
        "verify_p50_ms": statistics.median(verify) * 1e3,
        "report_kb_per_job": sum(o.report_bytes for o in jobs)
        / len(jobs) / 1024,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "setup_s": setup_s,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def verdict_tail(jobs: list[Outcome]) -> dict:
    value, pct = tail([o.verdict_s for o in jobs])
    return {"value": value * 1e3, "unit": "ms", "percentile": pct,
            "samples": len(jobs)}


def _matrix_shape(doc: dict) -> tuple[str, int]:
    nvars = len(doc["ring"]["vars"])
    if "quiver" in doc:
        verts = doc["quiver"]["vertices"]
        size = sum(v["rank"] for v in verts)
        return f"{size}x{size}", nvars + len(verts) ** 2 + len(verts)
    rows = doc["matrix"]
    return f"{len(rows)}x{len(rows[0])}", nvars


def tally(values) -> dict[str, int]:
    counts: dict[str, int] = {}
    for v in values:
        counts[str(v)] = counts.get(str(v), 0) + 1
    return dict(sorted(counts.items()))


def properties(bs, workload: str, outcomes: list[Outcome], jobs_run: int,
               unresolved: int) -> dict:
    """Input-property counts over the distinct jobs that ran, so that a
    claim tied to a property can cite its measured share."""
    distinct = {o.job["id"]: o for o in outcomes}
    props = {"jobs_run": jobs_run, "distinct_jobs": len(distinct)}
    if workload == "local-member":
        cases = [o.job for o in distinct.values()]
        props.update({
            "kinds": tally([c["kind"] for c in cases]),
            "variable_counts": tally([len(c["vars"]) for c in cases]),
            "unit_ideal_share": sum(c["kind"] == "unit-ideal" for c in cases)
            / len(cases),
            "members": sum(bool(o.answer) for o in distinct.values()),
            "local_only_members": sum(o.local_only
                                      for o in distinct.values()),
            "unresolved": unresolved,
        })
        return props
    shapes = [_matrix_shape(o.job["doc"]) for o in distinct.values()]
    unit_targets = 0
    targets = 0
    for o in distinct.values():
        doc = o.job["doc"]
        if "factors" in doc:
            table = bs.VarTable(doc["ring"]["vars"])
            if "quiver" in doc:
                table = table.extend(workloads.kronecker_names(
                    len(doc["quiver"]["vertices"])))
            gens = doc["factors"]
        elif "ideals" in doc:
            table = bs.VarTable(doc["ring"]["vars"])
            gens = doc["ideals"]["J1"] + doc["ideals"]["J2"]
        else:
            continue
        targets += 1
        unit_targets += any(bs.parse_poly(g, table).constant_term() != 0
                            for g in gens)
    props.update({
        "commands": tally([o.job["command"] for o in distinct.values()]),
        "exact_jobs": sum("jet_order" not in o.job["doc"].get("options", {})
                          for o in distinct.values()),
        "jet_jobs": sum("jet_order" in o.job["doc"].get("options", {})
                        for o in distinct.values()),
        "matrix_sizes": tally([s for s, _ in shapes]),
        "variable_counts": tally([v for _, v in shapes]),
        "unit_target_share": unit_targets / targets if targets else 0.0,
        "local_only_inclusions": sum(o.local_only for o in distinct.values()),
        "verdicts": tally([o.answer for o in distinct.values()]),
    })
    return props


def metadata(workload: str, seed: int, seconds: int, trace: int) -> dict:
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "src_lines": src_lines,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "commit": commit}


# ---------------------------------------------------------------------------
# runs


def timed_loop(bs, runner, jobs: list[dict], seconds: int):
    """Warm up for WARMUP_S, then run jobs in order, cycling, for `seconds`,
    probing the machine's speed at least every PROBE_INTERVAL_S between
    jobs.  Returns (warm-up outcomes, Measured, probes)."""
    warm, measured, probes = [], Measured(), []
    k = 0

    def run_one() -> tuple[int, float, float, Outcome]:
        nonlocal k
        now = time.perf_counter()
        if not probes or now - probes[-1][0] >= PROBE_INTERVAL_S:
            probes.append((now, probe()))
        index = k % len(jobs)
        k += 1
        t0 = time.perf_counter()
        out = runner(bs, jobs[index])
        return index, t0, time.perf_counter(), out

    deadline = time.perf_counter() + WARMUP_S
    while not warm or time.perf_counter() < deadline:
        warm.append(run_one()[3])
    deadline = time.perf_counter() + seconds
    while not measured or (time.perf_counter() < deadline
                           and time.perf_counter() - START < HARD_STOP_S):
        measured.add(*run_one())
    probes.append((time.perf_counter(), probe()))
    return warm, measured, probes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("small-jobs", "quiver-sum", "local-member"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args()

    bs = import_blocksplit()
    if args.setup_only:
        prepare(args.workload, args.seed)
        return 0
    setup_s, raw_setup_s = (measure_setup(args.workload, args.seed)
                            if args.trace == 0 else (None, None))
    jobs = prepare(args.workload, args.seed)
    runner = run_member_case if args.workload == "local-member" \
        else run_cli_job

    result = {"metadata": metadata(args.workload, args.seed, args.seconds,
                                   args.trace)}
    if args.trace == 0:
        warm, measured, probes = timed_loop(bs, runner, jobs, args.seconds)
        scaled = per_job(measured, speed_scales(measured, probes))
        raw = per_job(measured)
        metrics = end_to_end(scaled, setup_s)
        raw_metrics = end_to_end(raw, raw_setup_s)
        probe_s = [p for _, p in probes]
        result.update({
            "raw_metrics": {name: raw_metrics[name] for name in SPEED_SCALED},
            "verdict_tail_ms": verdict_tail(scaled),
            "raw_verdict_tail_ms": verdict_tail(raw),
            "probe": {"count": len(probe_s),
                      "median_s": statistics.median(probe_s),
                      "min_s": min(probe_s), "max_s": max(probe_s),
                      "reference_s": PROBE_REFERENCE_S},
        })
        distinct = list(measured.first.values())
        checked = warm + distinct + measured.failed
        attempted = len(warm) + len(measured)
        jobs_run = len(measured)
    else:
        prefix = jobs[:TRACE_JOBS[args.workload]]
        t0 = time.perf_counter()
        plain = [runner(bs, job) for job in prefix]
        plain_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        traced = []
        with Tracer() as tr:
            for job in prefix:
                tr.job = job["id"]
                traced.append(runner(bs, job, tr.span))
        traced_s = time.perf_counter() - t0
        distinct = checked = plain + traced
        attempted = jobs_run = len(checked)
        metrics = tr.layer_metrics()
        metrics["trace.overhead_s"] = {"value": traced_s - plain_s,
                                       "unit": "s"}
        result["tracing"] = {"untraced_s": plain_s, "traced_s": traced_s,
                             "jobs": len(prefix),
                             "spans": tr.span_totals()}
        RESULTS.mkdir(exist_ok=True)
        (RESULTS / f"spans-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(tr.span_records()))
    unresolved = (referee(bs, checked)
                  if args.workload == "local-member" else 0)
    failed = {id(o): o for o in checked if o.failures}
    result.update({
        "properties": properties(bs, args.workload, distinct, jobs_run,
                                 unresolved),
        "fail_ratio": len(failed) / attempted,
        "failures": {o.job["id"]: o.failures for o in failed.values()},
        "metrics": metrics,
    })
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(result, indent=2, sort_keys=True, default=str))

    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    if "verdict_tail_ms" in result:
        for key in ("verdict_tail_ms", "raw_verdict_tail_ms"):
            vt = result[key]
            label = key.replace("_verdict", " verdict")
            print(f"{label} {vt['value']:.6g} ms (p{vt['percentile']:.1f} "
                  f"of {vt['samples']} jobs; not gated)")
        for name, m in result["raw_metrics"].items():
            print(f"raw {name} {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio {result['fail_ratio']:.6g} ratio")
    for job_id, why in result["failures"].items():
        print(f"FAILED {job_id}: {'; '.join(why)}", file=sys.stderr)
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
