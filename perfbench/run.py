"""wassrobust benchmark: seeded workloads against the public API.

    python3 perfbench/run.py --workload fit_m200 --seed 7 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the package from
``src``.  Every measurement is closed-loop: one client, one operation at
a time, BLAS pinned to one thread.  A run repeats passes over the same
seeded inputs until the time budget would be exceeded (at least one pass;
a traced run makes at least two traced passes and one untraced pass).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are end to end; with ``--trace 1`` they are per layer, from
wrappers installed around the library's layer boundaries.  The line
before it, ``{"info": ...}``, records the environment, pass and sample
counts, the tail percentile used and the exact counts of the run.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
MAX_ERRORS_SHOWN = 5
ROOT = Path(__file__).resolve().parents[1]
WORKDIR = Path(__file__).resolve().parent / "out"

END_TO_END_UNITS = {"run_s": "s", "op_s.p50": "s", "op_s.tail": "s",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def pin_blas_threads():
    """Pin BLAS to one thread; only possible before NumPy is first imported."""
    if "numpy" in sys.modules:
        raise SystemExit("numpy was imported before the BLAS thread count was pinned")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def import_library():
    """Import wassrobust from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import wassrobust
    except ImportError as exc:
        raise SystemExit(f"cannot import wassrobust from {src}: {exc}")
    if src not in Path(wassrobust.__file__).resolve().parents:
        raise SystemExit(f"wassrobust was imported from {wassrobust.__file__}, not {src}")


def build_plan(workload, seed):
    import workloads

    WORKDIR.mkdir(exist_ok=True)
    return workloads.WORKLOADS[workload](seed, WORKDIR)


def probe_setup(workload, seed):
    """Child-process body: time imports plus input construction from scratch."""
    started = time.perf_counter()
    import_library()
    build_plan(workload, seed)
    print(time.perf_counter() - started)


def measure_setup(workload, seed):
    """Median set-up seconds over fresh processes, so imports are paid each time."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def environment(workload, seed):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {
        "workload": workload, "seed": seed,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(), "commit": commit,
    }


class Runner:
    """Runs passes of a plan and keeps per-operation outcomes."""

    def __init__(self, plan, tracer):
        self.plan = plan
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.op_times = []

    def run_pass(self, traced):
        """One pass; returns (wall seconds, counts, spans recorded)."""
        first_span = len(self.tracer.spans)
        counts = []
        elapsed = 0.0
        for k, op in enumerate(self.plan.ops):
            self.attempted += 1
            scope = (self.tracer.operation(self.attempted) if traced
                     else contextlib.nullcontext())
            started = time.perf_counter()
            try:
                with scope:
                    result = op()
                error = None
            except Exception:
                error = traceback.format_exc(limit=3)
            took = time.perf_counter() - started
            elapsed += took
            self.op_times.append(took)
            if error is None:
                try:
                    self.plan.check(k, result)
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
            if error is None:
                counts.append(self.plan.counts(k, result))
            else:
                counts.append(None)
                self.failed += 1
                if len(self.errors) < MAX_ERRORS_SHOWN:
                    self.errors.append(f"op {k}: {error}")
        return elapsed, counts, self.tracer.spans[first_span:]


def measure(workload, seed, seconds, trace):
    import tracing
    import workloads

    setup_s = None if trace else measure_setup(workload, seed)
    plan = build_plan(workload, seed)
    workloads.warm_up()
    tracer = tracing.Tracer()
    runner = Runner(plan, tracer)

    # traced runs alternate traced and untraced passes, traced first
    min_passes = 3 if trace else 1
    passes = []  # (traced, seconds, counts, spans)
    started = time.perf_counter()
    with tracing.traced(tracer) if trace else contextlib.nullcontext([]) as installed:
        while True:
            traced = bool(trace) and len(passes) % 2 == 0
            pass_s, counts, spans = runner.run_pass(traced)
            passes.append((traced, pass_s, counts, spans))
            spent = time.perf_counter() - started
            typical = statistics.median(p[1] for p in passes)
            if len(passes) >= min_passes and spent + typical > seconds:
                break

    info = {"env": environment(workload, seed), "passes": len(passes),
            "operations": runner.attempted, "errors": runner.errors,
            "failed_frac": {"value": runner.failed / runner.attempted, "unit": "frac"}}
    consistent = all(p[2] == passes[0][2] for p in passes)
    info["result_counts"] = passes[0][2]
    if not consistent:
        runner.errors.append("result counts differ between passes")

    untraced = [p[1] for p in passes if not p[0]]
    if trace:
        traced_passes = [p for p in passes if p[0]]
        per_pass = [tracing.layer_metrics(p[3]) for p in traced_passes]
        exact = [{key: m[key] for key in tracing.EXACT_COUNTS} for m in per_pass]
        if any(e != exact[0] for e in exact):
            consistent = False
            runner.errors.append(f"exact counts differ between traced passes: {exact}")
        info["exact_counts"] = exact[0]
        info["wrappers"] = [f"{owner}.{attr}" for owner, attr in installed]
        values = tracing.median_metrics(per_pass)
        traced_s = statistics.median(p[1] for p in traced_passes)
        values["trace.run_s"] = traced_s
        values["trace_overhead_frac"] = traced_s / statistics.median(untraced) - 1.0
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in tracing.LAYER_METRICS.items()}
        tracer.write_jsonl(WORKDIR / f"trace-{workload}-seed{seed}.jsonl")
    else:
        import numpy as np

        info["tail_percentile"] = plan.tail_pct
        info["op_samples"] = len(runner.op_times)
        values = {
            "run_s": statistics.median(untraced),
            "op_s.p50": statistics.median(runner.op_times),
            "op_s.tail": float(np.percentile(runner.op_times, plan.tail_pct)),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"info": info}))
    return {"correct": runner.failed == 0 and consistent,
            "attempted": runner.attempted, "failed": runner.failed,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    pin_blas_threads()
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0
    import_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
