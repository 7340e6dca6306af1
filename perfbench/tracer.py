"""Span tracing of blocksplit's layers from outside the package.

Each traced function is replaced by a wrapper that records a span (name,
start, end, parent span, job id).  Modules bind their collaborators with
``from .x import name``, so a wrapper is installed under every name in every
``blocksplit`` module that refers to the original object; patching only the
defining module would miss those calls.  Methods are patched on their class.
Ring arithmetic is far too frequent for spans, so ``Poly`` multiplication
and addition are only counted.

Only work inside a job is recorded: the benchmark opens each job's root
span with ``Tracer.span``, and calls made outside any job (the benchmark
parsing its own inputs) pass straight through.

Spans stay in memory until the run ends.  A span's self time is its
duration minus the durations of its children (children of one span never
overlap: the program is single-threaded).
"""

from __future__ import annotations

import collections
import sys
import time

# (module, attribute, span name)
FUNCTIONS = (
    ("cli", "_load_job", "cli.load_job"),
    ("cli", "_verdict_report", "cli.report"),
    ("cli", "_emit", "cli.report"),
    ("cli", "_cmd_verify_cert", "cli.verify_cert"),
    ("decompose", "check_square_lr", "decompose.check"),
    ("decompose", "check_rect_lr", "decompose.check"),
    ("quiver", "check_quiver", "quiver.check"),
    ("quiver", "check_conj_2x2", "quiver.check"),
    ("quiver", "build_kronecker", "quiver.build_kronecker"),
    ("matrix", "fitting_ideal", "matrix.fitting"),
    ("matrix", "det", "matrix.det"),
    ("matrix", "kernel", "matrix.kernel"),
    ("groebner", "intersect", "groebner.intersect"),
    ("groebner", "colon", "groebner.colon"),
    ("groebner", "member_local", "groebner.member_local"),
    ("oracle", "jet_member_witness", "oracle.jet"),
    ("ring", "divide_exact", "ring.divide_exact"),
    ("ring", "parse_poly", "ring.parse"),
)

# (module, class, method, span name)
METHODS = (
    ("groebner", "Ideal", "basis", "groebner.basis"),
    ("decompose", "Verdict", "verify", "decompose.verdict_verify"),
)

# (module, class, methods sharing one counter, counter name)
COUNTED = (
    ("ring", "Poly", ("__mul__", "__rmul__"), "ring.mul_calls"),
    ("ring", "Poly", ("__add__", "__radd__"), "ring.add_calls"),
)

# per-layer metrics: (metric, unit, how to read it off the spans)
#   ("self", span) -> summed self time, ("calls", span) -> span count,
#   ("count", counter) -> counter value
LAYER_METRICS = (
    ("matrix.fitting_s", "s", ("self", "matrix.fitting")),
    ("matrix.fitting_minors", "count", ("count", "matrix.fitting_minors")),
    ("matrix.fitting_gens", "count", ("count", "matrix.fitting_gens")),
    ("matrix.det_s", "s", ("self", "matrix.det")),
    ("matrix.det_calls", "count", ("calls", "matrix.det")),
    ("matrix.kernel_s", "s", ("self", "matrix.kernel")),
    ("groebner.intersect_s", "s", ("self", "groebner.intersect")),
    ("groebner.intersect_calls", "count", ("calls", "groebner.intersect")),
    ("groebner.colon_calls", "count", ("calls", "groebner.colon")),
    ("groebner.basis_s", "s", ("self", "groebner.basis")),
    ("groebner.basis_calls", "count", ("calls", "groebner.basis")),
    ("groebner.basis_len", "count", ("count", "groebner.basis_len")),
    ("groebner.member_local_s", "s", ("self", "groebner.member_local")),
    ("groebner.member_local_calls", "count",
     ("calls", "groebner.member_local")),
    ("ring.mul_calls", "count", ("count", "ring.mul_calls")),
    ("ring.add_calls", "count", ("count", "ring.add_calls")),
    ("ring.divide_exact_calls", "count", ("calls", "ring.divide_exact")),
    ("ring.divide_exact_s", "s", ("self", "ring.divide_exact")),
    ("ring.parse_calls", "count", ("calls", "ring.parse")),
    ("ring.parse_s", "s", ("self", "ring.parse")),
    ("oracle.jet_s", "s", ("self", "oracle.jet")),
    ("oracle.jet_calls", "count", ("calls", "oracle.jet")),
    ("decompose.check_s", "s", ("self", "decompose.check")),
    ("decompose.verdict_verify_s", "s",
     ("self", "decompose.verdict_verify")),
    ("quiver.check_s", "s", ("self", "quiver.check")),
    ("quiver.build_kronecker_s", "s", ("self", "quiver.build_kronecker")),
    ("cli.load_job_s", "s", ("self", "cli.load_job")),
    ("cli.report_s", "s", ("self", "cli.report")),
    ("cli.verify_cert_s", "s", ("self", "cli.verify_cert")),
)


class Tracer:
    """Installs the wrappers on enter and restores the originals on exit."""

    def __init__(self):
        self.spans: list[tuple] = []      # (id, parent, job, name, t0, t1)
        self.counts: collections.Counter = collections.Counter()
        self.job = None
        self._stack: list[tuple[int, str]] = []
        self._restore: list[tuple[object, str, object]] = []
        self._global_probed: set[int] = set()

    # -- spans -------------------------------------------------------------

    def _call(self, name: str, fn, args, kwargs, root: bool = False):
        if not root and not self._stack:
            return fn(*args, **kwargs)
        sid = len(self.spans)
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append(None)           # reserve the id
        self._stack.append((sid, name))
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, self.job, name, t0, t1)

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn under a span of the benchmark's own (a job's root)."""
        return self._call(name, fn, args, kwargs, root=True)

    def _wrap(self, name: str, fn):
        tracer = self

        if name == "matrix.det":
            def wrapper(*args, **kwargs):
                # minors inside a Fitting ideal are that layer's work
                if tracer._stack and tracer._stack[-1][1] == "matrix.fitting":
                    tracer.counts["matrix.fitting_minors"] += 1
                    return fn(*args, **kwargs)
                return tracer._call(name, fn, args, kwargs)
        elif name == "matrix.fitting":
            def wrapper(*args, **kwargs):
                inside = bool(tracer._stack)
                ideal = tracer._call(name, fn, args, kwargs)
                if inside:
                    tracer.counts["matrix.fitting_gens"] += len(
                        ideal.generators)
                return ideal
        elif name == "groebner.basis":
            def wrapper(*args, **kwargs):
                inside = bool(tracer._stack)
                basis = tracer._call(name, fn, args, kwargs)
                if inside:
                    tracer.counts["groebner.basis_len"] += len(basis)
                return basis
        else:
            def wrapper(*args, **kwargs):
                return tracer._call(name, fn, args, kwargs)
        return wrapper

    def _member_global(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            # member_local tries global membership first; count the calls
            # that this first attempt already settles
            stack = tracer._stack
            if stack and stack[-1][1] == "groebner.member_local":
                sid = stack[-1][0]
                if sid not in tracer._global_probed:
                    tracer._global_probed.add(sid)
                    if result[0]:
                        tracer.counts["groebner.global_hits"] += 1
            return result
        return wrapper

    def _counted(self, counter: str, fn):
        counts = self.counts
        stack = self._stack

        def wrapper(*args, **kwargs):
            if stack:
                counts[counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation --------------------------------------------------------

    def _rebind_everywhere(self, original, wrapper) -> None:
        for modname, module in list(sys.modules.items()):
            if modname.split(".")[0] != "blocksplit":
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def __enter__(self) -> "Tracer":
        mods = {name: sys.modules[f"blocksplit.{name}"]
                for name in ("cli", "decompose", "quiver", "matrix",
                             "groebner", "oracle", "ring")}
        for mod, attr, name in FUNCTIONS:
            original = getattr(mods[mod], attr)
            self._rebind_everywhere(original, self._wrap(name, original))
        original = mods["groebner"].member_global
        self._rebind_everywhere(original, self._member_global(original))
        for mod, cls_name, attr, name in METHODS:
            cls = getattr(mods[mod], cls_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))
        for mod, cls_name, attrs, counter in COUNTED:
            cls = getattr(mods[mod], cls_name)
            wrappers = {}
            for attr in attrs:
                original = cls.__dict__[attr]
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._counted(counter, original)
                self._restore.append((cls, attr, original))
                setattr(cls, attr, wrappers[id(original)])
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        child_time: collections.Counter = collections.Counter()
        for _, parent, _, _, t0, t1 in self.spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        totals: collections.Counter = collections.Counter()
        for sid, _, _, name, t0, t1 in self.spans:
            totals[name] += (t1 - t0) - child_time[sid]
        return dict(totals)

    def span_totals(self) -> dict[str, dict]:
        """Calls, self time and inclusive time per span name."""
        selfs = self.self_times()
        totals: dict[str, dict] = {}
        for _, _, _, name, t0, t1 in self.spans:
            entry = totals.setdefault(name, {"calls": 0, "inclusive_s": 0.0})
            entry["calls"] += 1
            entry["inclusive_s"] += t1 - t0
        for name, entry in totals.items():
            entry["self_s"] = selfs[name]
        return dict(sorted(totals.items()))

    def layer_metrics(self) -> dict[str, dict]:
        selfs = self.self_times()
        calls = collections.Counter(span[3] for span in self.spans)
        out = {}
        for metric, unit, (kind, key) in LAYER_METRICS:
            if kind == "self":
                value = selfs.get(key, 0.0)
            elif kind == "calls":
                value = calls[key]
            else:
                value = self.counts[key]
            out[metric] = {"value": value, "unit": unit}
        member_calls = calls["groebner.member_local"]
        out["groebner.global_hit_ratio"] = {
            "value": (self.counts["groebner.global_hits"] / member_calls
                      if member_calls else 0.0),
            "unit": "ratio"}
        return out

    def span_records(self) -> list[dict]:
        return [{"id": sid, "parent": parent, "job": job, "name": name,
                 "start": t0, "end": t1}
                for sid, parent, job, name, t0, t1 in self.spans]
