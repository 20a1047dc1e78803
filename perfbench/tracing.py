"""Spans around the library's layer boundaries, recorded from outside ``src``.

``traced(tracer)`` installs a wrapper at every name a caller looks up
(``wassrobust.solvers.build_master``, ``wassrobust.convex.solve``, ...)
and restores the originals when it exits.  A wrapper records a span only
while an operation is open (``tracer.operation``), so checks and set-up
leave no spans.  Spans stay in memory until ``write_jsonl``.

A span's self time is its duration minus its children's durations: calls
are single-threaded and nested, so the children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import time

class Span:
    __slots__ = ("id", "name", "parent", "op", "start", "end", "attrs")

    def __init__(self, span_id, name, parent, op):
        self.id, self.name, self.parent, self.op = span_id, name, parent, op
        self.start = self.end = 0.0
        self.attrs = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """In-memory span recorder; one operation is open at a time."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None

    @contextlib.contextmanager
    def operation(self, op_id):
        """Open the root span of one benchmark operation."""
        self._op = op_id
        try:
            with self._span("op"):
                yield
        finally:
            self._op = None

    @contextlib.contextmanager
    def _span(self, name):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self._op)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, describe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            with self._span(name) as span:
                result = fn(*args, **kwargs)
            if describe is not None:
                span.attrs = describe(args, result)
            return result

        return wrapper

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "parent": s.parent,
                                     "op": s.op, "start": s.start, "end": s.end,
                                     "attrs": s.attrs}) + "\n")


def self_times(spans):
    """{span id: duration minus the durations of its direct children}."""
    out = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent in out:
            out[s.parent] -= s.duration
    return out


# ---- what each wrapped call reports --------------------------------------


def _describe_solve(args, report):
    program = args[0]
    return {"steps": report.iterations, "optimal": report.status == "optimal",
            "dim": program.dim, "rows": program.constraint_rows}


def _describe_separation(args, result):
    return {"violated": result.violation > 0.0}


def _describe_semi_infinite(args, result):
    trace = result[1]
    return {"m": args[0].m, "iterations": trace.iterations,
            "cuts_final": trace.cut_count,
            "cuts_added": sum(r.cuts_added for r in trace.records),
            "oracle_calls": trace.oracle_calls,
            "master_s": trace.master_seconds, "wall_s": trace.wall_seconds}


# (owner, attribute, span name, describe).  The owner is the module whose
# globals the caller reads, or the class that holds the method.
TARGETS = (
    ("wassrobust.convex", "solve", "convex.solve", _describe_solve),
    ("wassrobust.solvers", "build_master", "reformulate.build", None),
    ("wassrobust.solvers", "build_exchange_master", "reformulate.build", None),
    ("wassrobust.solvers", "build_nominal", "reformulate.build", None),
    ("wassrobust.solvers", "build_enumeration", "reformulate.build", None),
    ("wassrobust.solvers", "master_interior_point", "reformulate.interior_point", None),
    ("wassrobust.reformulate:ProblemData", "assemble", "reformulate.assemble", None),
    ("wassrobust.solvers", "separate_exact", "separation.separate_exact",
     _describe_separation),
    ("wassrobust.separation", "separate_exact", "separation.separate_exact",
     _describe_separation),
    ("wassrobust.solvers", "best_violation", "separation.best_violation", None),
    ("wassrobust.separation", "best_violation", "separation.best_violation", None),
    ("wassrobust.solvers", "solve_nominal", "solvers.solve_nominal", None),
    ("wassrobust.solvers", "solve_full_enumeration", "solvers.solve_full_enumeration",
     None),
    ("wassrobust.solvers", "solve_cutting_surface", "solvers.solve_cutting_surface",
     _describe_semi_infinite),
    ("wassrobust.solvers", "solve_exchange", "solvers.solve_exchange",
     _describe_semi_infinite),
    ("wassrobust.wrlr", "solve_nominal", "solvers.solve_nominal", None),
    ("wassrobust.wrlr", "solve_cutting_surface", "solvers.solve_cutting_surface",
     _describe_semi_infinite),
    ("wassrobust.wrlr", "solve_exchange", "solvers.solve_exchange",
     _describe_semi_infinite),
    ("wassrobust.wrlr", "fit_wrlr", "wrlr.fit_wrlr", None),
    ("wassrobust.wrlr", "fit_lr", "wrlr.fit_lr", None),
    ("wassrobust.harness", "fit_wrlr", "wrlr.fit_wrlr", None),
    ("wassrobust.harness", "fit_lr", "wrlr.fit_lr", None),
    ("wassrobust.harness", "select_r0", "wrlr.select_r0", None),
    ("wassrobust.harness", "run_experiment", "harness.run_experiment", None),
    ("wassrobust.harness", "_run_repetition", "harness.repetition", None),
)


def _owner(path):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


@contextlib.contextmanager
def traced(tracer):
    """Install the wrappers for the duration of the block; yields the
    (owner, attribute) pairs installed.  A name missing from the library
    is skipped, so the benchmark keeps running when a layer is refactored.
    """
    saved = []
    try:
        for path, attr, name, describe in TARGETS:
            owner = _owner(path)
            original = vars(owner).get(attr)
            if original is None:
                continue
            if isinstance(original, classmethod):
                wrapped = classmethod(tracer.wrap(name, original.__func__, describe))
            else:
                wrapped = tracer.wrap(name, original, describe)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        yield [(owner.__name__, attr) for owner, attr, _ in saved]
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---- per-layer metrics -----------------------------------------------------

# name -> unit, in reporting order; trace_overhead_frac and trace.run_s are
# filled in by the runner, which times traced and untraced passes.
LAYER_METRICS = {
    "convex.solve.calls": "count",
    "convex.solve.s": "s",
    "convex.newton_steps": "count",
    "convex.newton_per_solve": "count",
    "convex.nonoptimal": "count",
    "convex.dim.mean": "count",
    "convex.rows.mean": "count",
    "reformulate.build.calls": "count",
    "reformulate.build.s": "s",
    "reformulate.interior_point.s": "s",
    "reformulate.assemble.s": "s",
    "separation.calls": "count",
    "separation.s": "s",
    "separation.sweeps": "count",
    "separation.violated_frac": "frac",
    "solvers.iterations": "count",
    "solvers.cuts_final": "count",
    "solvers.cuts_added": "count",
    "solvers.cut_yield": "frac",
    "solvers.master_share": "frac",
    "solvers.self_s": "s",
    "wrlr.fit_wrlr.calls": "count",
    "wrlr.fit_wrlr.s": "s",
    "wrlr.fit_lr.s": "s",
    "wrlr.select_r0.s": "s",
    "harness.repetition.s": "s",
    "harness.self_s": "s",
    "wrlr.self_s": "s",
    "trace.run_s": "s",
    "trace_overhead_frac": "frac",
}

# Counts that must repeat exactly between passes and between runs of one seed.
EXACT_COUNTS = ("convex.solve.calls", "convex.newton_steps",
                "solvers.iterations", "solvers.cuts_final")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans):
    """Per-layer counts and seconds over the spans of one pass."""
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    named = lambda name: [s for s in spans if s.name == name]
    total = lambda group: sum(s.duration for s in group)
    self_of = lambda prefix: sum(selfs[s.id] for s in spans
                                 if s.name.startswith(prefix))

    def under_solver(span):
        while span.parent is not None:
            span = by_id[span.parent]
            if span.name.startswith("solvers."):
                return True
        return False

    solves = named("convex.solve")
    per_sample = named("separation.separate_exact")
    semi = [s.attrs for s in spans
            if s.name in ("solvers.solve_cutting_surface", "solvers.solve_exchange")]
    oracle_calls = sum(a["oracle_calls"] for a in semi)
    cuts_added = sum(a["cuts_added"] for a in semi)
    builds = named("reformulate.build")
    steps = sum(s.attrs["steps"] for s in solves)
    return {
        "convex.solve.calls": len(solves),
        "convex.solve.s": total(solves),
        "convex.newton_steps": steps,
        "convex.newton_per_solve": _ratio(steps, len(solves)),
        "convex.nonoptimal": sum(not s.attrs["optimal"] for s in solves),
        "convex.dim.mean": _ratio(sum(s.attrs["dim"] for s in solves), len(solves)),
        "convex.rows.mean": _ratio(sum(s.attrs["rows"] for s in solves), len(solves)),
        "reformulate.build.calls": len(builds),
        "reformulate.build.s": total(builds),
        "reformulate.interior_point.s": total(named("reformulate.interior_point")),
        "reformulate.assemble.s": total(named("reformulate.assemble")),
        "separation.calls": len(per_sample),
        "separation.s": self_of("separation."),
        # exchange sweeps run through best_violation inside the solver and
        # are already in oracle_calls; count only the sweeps made outside
        "separation.sweeps": sum(a["oracle_calls"] / a["m"] for a in semi)
        + sum(not under_solver(s) for s in named("separation.best_violation")),
        "separation.violated_frac": _ratio(
            sum(s.attrs["violated"] for s in per_sample), len(per_sample)),
        "solvers.iterations": sum(a["iterations"] for a in semi),
        "solvers.cuts_final": sum(a["cuts_final"] for a in semi),
        "solvers.cuts_added": cuts_added,
        "solvers.cut_yield": _ratio(cuts_added, oracle_calls),
        "solvers.master_share": _ratio(sum(a["master_s"] for a in semi),
                                       sum(a["wall_s"] for a in semi)),
        "solvers.self_s": self_of("solvers."),
        "wrlr.fit_wrlr.calls": len(named("wrlr.fit_wrlr")),
        "wrlr.fit_wrlr.s": total(named("wrlr.fit_wrlr")),
        "wrlr.fit_lr.s": total(named("wrlr.fit_lr")),
        "wrlr.select_r0.s": total(named("wrlr.select_r0")),
        "harness.repetition.s": total(named("harness.repetition")),
        "harness.self_s": self_of("harness."),
        "wrlr.self_s": self_of("wrlr."),
    }


def median_metrics(per_pass):
    """Median of each metric over passes; a value equal in every pass, as
    counts are, is reported as it is."""
    out = {}
    for key in per_pass[0]:
        values = [p[key] for p in per_pass]
        out[key] = values[0] if len(set(values)) == 1 else statistics.median(values)
    return out
