"""The benchmark's per-layer hooks still find the library's layer boundaries,
and its workloads still run against the library's API.

``perfbench/tracing.py`` skips a target it cannot find, so a refactor that
drops one would only show as a missing span in a benchmark run.  The
modules are imported from their files and left as they are.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from wassrobust import solvers
from wassrobust.reformulate import build_master, master_interior_point

from conftest import box_problem

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# (owner, attribute) of every target behind the convex.*, reformulate.build,
# reformulate.interior_point and separation.* rows that resolves today
REQUIRED = {
    ("wassrobust.convex", "solve"),
    ("wassrobust.solvers", "build_master"),
    ("wassrobust.solvers", "master_interior_point"),
    ("wassrobust.separation", "separate_exact"),
    ("wassrobust.solvers", "best_violation"),
    ("wassrobust.separation", "best_violation"),
}


def test_layer_targets_resolve():
    tracing = load_perfbench("tracing")
    rows = ("convex.", "reformulate.build", "reformulate.interior_point", "separation.")
    behind_rows = {(path, attr) for path, attr, name, _ in tracing.TARGETS
                   if name.startswith(rows)}
    assert REQUIRED <= behind_rows
    with tracing.traced(tracing.Tracer()) as installed:
        assert REQUIRED <= set(installed)


def test_solve_spans_carry_steps_dim_and_rows():
    tracing = load_perfbench("tracing")
    data = box_problem(5, m=6, n=2)
    pool = solvers._atom_pool(data)
    cap = data.derived.objective_cap
    program = build_master(data, pool, cap)
    x0 = master_interior_point(data, pool, cap)
    report = solvers.convex.solve(program, x0)
    assert tracing._describe_solve((program, x0), report) == {
        "steps": report.iterations, "optimal": True,
        "dim": program.dim, "rows": program.constraint_rows}

    tracer = tracing.Tracer()
    with tracing.traced(tracer), tracer.operation(0):
        solvers.solve_cutting_surface(data, 1e-5)
    solves = [s for s in tracer.spans if s.name == "convex.solve"]
    assert solves
    # every master, plain or centered, is built and started through the
    # wrapped names
    for name in ("reformulate.build", "reformulate.interior_point"):
        assert sum(s.name == name for s in tracer.spans) == len(solves)
    for span in solves:
        assert span.attrs["steps"] > 0
        # the plain master [theta, s, beta] or the centered one, with w
        assert span.attrs["dim"] - (data.theta_size + data.m + 1) in (0, 1)
        assert span.attrs["rows"] >= data.m


@pytest.mark.parametrize("workload", ["fit_m200", "certify_m2000", "finite_c1", "experiment_m50"])
def test_workload_runs_and_passes_its_check(workload, tmp_path):
    # every library name a workload calls, through its first operation and
    # that operation's check (certify_m2000's also sweeps each sample alone)
    plan = load_perfbench("workloads").WORKLOADS[workload](0, tmp_path)
    plan.check(0, plan.ops[0]())
