"""Iterative solvers for the semi-infinite dual of the robust problem.

Two algorithms, both driven by the separation oracles:

* ``solve_exchange``: the classical scheme.  Solve the dual restricted
  to the cuts found so far, separate at the minimizer, add the most
  violated constraint, repeat.  Works for any loss the oracle handles,
  but carries no rate guarantee.

* ``solve_cutting_surface``: the centered scheme.  Keep a strict upper
  bound (the cap) on the optimal value and repeatedly maximize the
  feasibility margin ``w`` of the current cut set under that bound.
  Every iterate is swept: each violated constraint found becomes a cut,
  and the master's theta is completed: ``CandidateTables.complete``
  gives the exactly feasible point of least objective with that theta,
  whose objective is the robust value J(theta).  The incumbent is always
  a completion, and its objective the cap.  A completion is adopted only
  when it closes the gap to the best lower bound LB by the rate factor
  rho: f - LB <= rho (cap - LB), which keeps the geometric contraction
  the acceptance tests check.  When the margin vanishes, or a sweep adds
  no cut and adopts nothing, the next master is the plain one over the
  pool, whose bound raises LB.  Both bounds hold at every iteration, so
  the loop stops on any iteration once cap - LB <= eps.  It stops as
  stalled only when a plain master's sweep, too, adds no cut and adopts
  nothing; the budget's last iteration is a plain master too, so every
  exit carries a certified lower bound.  The pool keeps every cut.  Only
  a centered master's center is used, never its value, so it is solved
  to max(1e-8, CENTERED_TOL * (cap - LB)); its margin is then at most
  the optimal one, which can only hand over to the plain master sooner.
  Every other master is solved to 1e-8.

Both take a starting cut pool and grow it in place, so a caller can
carry one solve's cuts to the next: a cut is a (sample, point) pair
whose constraint does not depend on the radius.  The cutting surface
also takes a starting theta; the completion of any theta in the
parameter box is exactly feasible, so its objective is a valid first
cap.  The exchange scheme keeps no cap and takes only the cuts.

Every master, plain or centered, is ``build_master`` over the pool; the
cutting surface starts a plain one next to the last master's point.
A lower bound comes from a plain master over the pool, which relaxes
the dual.  It is that master's weak-duality bound at its final
multipliers (``SolveReport.bound``), not its objective value: the bound
holds however loosely the master was solved, while the value of its
interior-point solution can sit above the master's optimum.

Both return their final point, or None when they have none, together
with a trace of every master solve, the robust value J of the returned
theta and the lower bound the solve certified.  A master that is not
optimal ends the solve, and its report is the trace's ``failed_master``.
The caller writes the trace as JSON lines (``SolveTrace.write_jsonl``).
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import convex
from .model import objective_f
from .reformulate import (
    CutPool,
    build_master,
    enumeration_cuts,
    master_interior_point,
    split_master_solution,
)
from .separation import CandidateTables, best_violation

__all__ = [
    "IterationRecord",
    "SolveTrace",
    "solve_nominal",
    "solve_exchange",
    "solve_cutting_surface",
    "solve_full_enumeration",
]


# version of the JSON-lines layout ``SolveTrace.write_jsonl`` writes
TRACE_SCHEMA = 9


@dataclass
class IterationRecord:
    iteration: int
    margin: float | None
    cap: float | None
    objective: float | None
    violation: float
    # samples with a positive violation in the sweep
    violated: int
    cuts_added: int
    cut_count: int
    best_objective: float | None
    newton_steps: int
    # the tolerance the master was solved to, and its KKT residual
    master_tol: float
    kkt_residual: float
    # Cholesky retries with a ridge in the master solve
    ridges: int
    # line-search trial points the master solve rejected
    backtracks: int
    master_seconds: float
    separation_seconds: float
    # the part of separation_seconds spent completing theta; the candidate
    # tables the completion shares with the sweep are built once and
    # count in separation_seconds only
    completion_seconds: float
    # "completion" when the sweep's completion became the incumbent,
    # else None
    adopted: str | None = None


@dataclass
class SolveTrace:
    """Per-iteration history of a semi-infinite solve."""

    algorithm: str
    status: str = "running"
    records: list = field(default_factory=list)
    final_violation: float | None = None
    # J at the returned theta, and the certified lower bound on the optimum
    robust_value: float | None = None
    lower_bound: float | None = None
    # a master that was not optimal, as ``_master_fields`` gives it, else None
    failed_master: dict | None = None
    oracle_calls: int = 0
    master_seconds: float = 0.0
    separation_seconds: float = 0.0
    # the part of separation_seconds spent completing theta; a candidate
    # table shared with a sweep counts in separation_seconds only
    completion_seconds: float = 0.0
    wall_seconds: float = 0.0

    @property
    def iterations(self):
        return len(self.records)

    @property
    def cut_count(self):
        return self.records[-1].cut_count if self.records else 0

    def summary(self):
        out = asdict(self)
        out.pop("records")
        out["iterations"] = self.iterations
        out["cut_count"] = self.cut_count
        return out

    def write_jsonl(self, path):
        """One JSON object per iteration, then a "done" line; every line
        carries the schema version ``TRACE_SCHEMA``."""
        with open(path, "w") as fh:
            for record in self.records:
                line = {"schema": TRACE_SCHEMA, "event": "iteration", **asdict(record)}
                fh.write(json.dumps(line) + "\n")
            line = {"schema": TRACE_SCHEMA, "event": "done", **self.summary()}
            fh.write(json.dumps(line) + "\n")


# outer iterations before a solver reports ``iteration_limit``
MAX_ITERATIONS = 500
# the tolerance of a plain master; a centered one is solved to the
# fraction CENTERED_TOL of the gap cap - LB, but never tighter
MASTER_TOL = 1e-8
CENTERED_TOL = 1e-2


def _master_fields(report, tol):
    """A master solve's fields in its IterationRecord."""
    return dict(newton_steps=report.iterations, master_tol=tol,
                kkt_residual=report.kkt_residual, ridges=report.ridges,
                backtracks=report.backtracks)


def _atom_pool(data):
    """One zero-cost cut per sample: the observation itself."""
    pool = CutPool(data)
    pool.extend(np.arange(data.m), data.dataset.features)
    return pool


def _solve_plain(data, pool, what):
    """The plain master over ``pool``, solved; RuntimeError if not optimal."""
    report = convex.solve(build_master(data, pool), master_interior_point(data, pool),
                          tol=MASTER_TOL)
    if report.status != convex.OPTIMAL:
        raise RuntimeError(f"{what} failed to solve: {report.status}")
    return report


def solve_nominal(data):
    """Minimize the average training loss; returns (theta, value, report).

    Solves the plain master over the atom cuts alone.  They cost no
    transport, so the budget multiplier is free to sit at zero and the
    optimum is the average loss.  The value is that loss evaluated at
    theta, so the budget multiplier's residue does not enter it.
    """
    report = _solve_plain(data, _atom_pool(data), "nominal problem")
    theta = report.solution[: data.theta_size]
    value = float(np.mean(data.loss.evaluate_many(
        theta, data.dataset.features, data.dataset.labels)))
    return theta, value, report


def solve_full_enumeration(data):
    """Solve the dual with every (sample, point) constraint materialized.

    Only for finite regions within the enumeration budget; serves as the
    ground-truth oracle for the iterative solvers.
    """
    report = _solve_plain(data, enumeration_cuts(data), "enumeration")
    point, _ = split_master_solution(data, report.solution)
    return point, -report.objective


def solve_exchange(data, eps, pool=None, capture_timing=True):
    """Exchange scheme: add the most violated cut until eps/2-feasible.

    Stops when the separation oracle finds no constraint violated by
    more than eps/2 at the restricted minimizer, which makes that point
    eps-optimal for oracles with eps/2 accuracy (the exact oracle is
    better than that).  The restricted master starts from ``pool``, empty
    by default, and the solve grows it in place.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    # a clock that reads zero keeps the trace, and so the results,
    # reproducible byte for byte
    clock = time.perf_counter if capture_timing else (lambda: 0.0)
    start = clock()
    trace = SolveTrace(algorithm="exchange")
    pool = CutPool(data) if pool is None else pool
    point = lower = None
    for k in range(MAX_ITERATIONS + 1):
        t0 = clock()
        report = convex.solve(build_master(data, pool), master_interior_point(data, pool),
                              tol=MASTER_TOL)
        t1 = clock()
        trace.master_seconds += t1 - t0
        if report.status != convex.OPTIMAL:
            trace.status = f"master_{report.status}"
            trace.failed_master = _master_fields(report, MASTER_TOL)
            break
        point, _ = split_master_solution(data, report.solution)
        lower = -report.bound
        # the last sweep's tables also give the closing completion
        tables = CandidateTables(point.theta, data)
        sep = best_violation(point, data, tables)
        t2 = clock()
        trace.separation_seconds += t2 - t1
        trace.oracle_calls += data.m
        added = 0 if sep.violation <= 0.5 * eps else pool.extend(
            [sep.scenario.sample_index], sep.scenario.point[None, :])
        trace.records.append(IterationRecord(
            iteration=k, margin=None, cap=None,
            objective=-report.objective, violation=sep.violation,
            violated=sep.violated, cuts_added=added, cut_count=len(pool),
            best_objective=None, **_master_fields(report, MASTER_TOL),
            master_seconds=t1 - t0, separation_seconds=t2 - t1, completion_seconds=0.0,
        ))
        if not added:
            # no cut was needed, or the oracle re-derived an existing one,
            # and the master cannot move further at this precision
            trace.status = "optimal" if sep.violation <= 0.5 * eps else "stalled"
            trace.final_violation = sep.violation
            break
    else:
        trace.status = "iteration_limit"
    if point is not None:
        t0 = clock()
        trace.robust_value = objective_f(tables.complete(), data.radius)
        spent = clock() - t0
        trace.separation_seconds += spent
        trace.completion_seconds += spent
        # the last restricted master relaxes the dual (see the module notes)
        trace.lower_bound = lower
    trace.wall_seconds = clock() - start
    return point, trace


def solve_cutting_surface(data, eps, pool=None, theta=None, capture_timing=True):
    """Centered cutting scheme that stops on a certified eps gap.

    Every iterate is swept: each violated constraint found becomes a
    cut, and the completion is adopted as the incumbent when it contracts
    the gap at the guaranteed rate (see the module notes).  When the
    margin vanishes, or a sweep adds no cut and adopts nothing, the next
    master solved is the plain one over the pool, whose bound is the
    lower bound; the budget's last iteration solves it too.  The loop
    stops on any iteration once the cap is within eps of the lower bound.
    Centered masters are solved to a fraction of the gap; a record's
    ``master_tol`` says what.  Returns the incumbent, certified by a
    sweep on the tables it was completed from; a solve that adopts none
    returns None as its point and skips that sweep.

    A warm start passes the cuts to begin from as ``pool``, which the
    solve grows in place, and a ``theta`` inside the parameter box: its
    completion is the first incumbent, and its objective the first cap.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if theta is not None:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != data.theta_lower.shape:
            raise ValueError(f"warm-start theta has shape {theta.shape}; the problem "
                             f"needs {data.theta_lower.shape}")
        if np.any(theta < data.theta_lower) or np.any(theta > data.theta_upper):
            raise ValueError("warm-start theta lies outside the parameter box "
                             f"[{data.theta_lower.min()}, {data.theta_upper.max()}]")
    der = data.derived
    # the centered master hands over to the plain one once its margin
    # falls to this
    margin_tol = 1e-9 * (der.objective_cap - der.loss_lower)
    clock = time.perf_counter if capture_timing else (lambda: 0.0)
    start = clock()
    trace = SolveTrace(algorithm="cutting_surface")

    pool = CutPool(data) if pool is None else pool
    # each sample's observation is a zero-cost cut; a carried pool may
    # hold them already
    pool.extend(np.arange(data.m), data.dataset.features)

    # the incumbent and the candidate tables it was completed from
    incumbent = incumbent_tables = None
    cap, lower = der.objective_cap, der.loss_lower
    if theta is not None:
        # the completion is exactly feasible, so its objective bounds the
        # optimum from above; it is the cap unless it is no tighter
        t0 = clock()
        tables = CandidateTables(theta, data)
        t_built = clock()
        completion = tables.complete()
        trace.completion_seconds += clock() - t_built
        trace.separation_seconds += clock() - t0
        completed = objective_f(completion, data.radius)
        if completed < cap:
            incumbent, incumbent_tables, cap = completion, tables, completed
    # solve the plain master next: the loop stalled or the margin vanished;
    # the last master's point
    gap_check, point = False, None

    for k in range(1, MAX_ITERATIONS + 1):
        # the budget's last iteration checks the gap, so that every exit
        # carries a certified lower bound
        gap_check = gap_check or k == MAX_ITERATIONS
        # only a centered master's center is used (see the module notes);
        # a plain one starts next to the last master's point, if any
        level = None if gap_check else cap
        tol = MASTER_TOL if gap_check else max(MASTER_TOL, CENTERED_TOL * (cap - lower))
        t0 = clock()
        report = convex.solve(build_master(data, pool, level),
                              master_interior_point(data, pool, level, near=point), tol=tol)
        t1 = clock()
        trace.master_seconds += t1 - t0
        if report.status != convex.OPTIMAL:
            trace.status = f"master_{report.status}"
            trace.failed_master = _master_fields(report, tol)
            break
        point, margin = split_master_solution(data, report.solution)
        if level is None:
            # the plain master over the pool relaxes the dual (see the
            # module notes)
            lower = max(lower, -report.bound)
        tables = CandidateTables(point.theta, data)
        points, violations = tables.separate(point.multipliers)
        t_swept = clock()
        completion = tables.complete()
        t2 = clock()
        trace.separation_seconds += t2 - t1
        trace.completion_seconds += t2 - t_swept
        trace.oracle_calls += data.m
        violated = np.flatnonzero(violations > 0.0)

        adopted = None
        completed = objective_f(completion, data.radius)
        # a contraction at the guaranteed rate
        if completed - lower <= der.rate_bound * (cap - lower):
            adopted = "completion"
            incumbent, incumbent_tables, cap = completion, tables, completed

        done = cap - lower <= eps
        added = 0 if done else pool.extend(violated, points[violated])
        # no new cut and no lower cap: the centered master cannot move
        # further at this precision, and after the plain one neither can
        # the loop
        stalled = not done and added == 0 and adopted is None

        trace.records.append(IterationRecord(
            iteration=k, margin=margin, cap=cap, objective=objective_f(point, data.radius),
            violation=float(violations.max()), violated=violated.size,
            cuts_added=added, cut_count=len(pool),
            best_objective=None if incumbent is None else cap,
            **_master_fields(report, tol), master_seconds=t1 - t0,
            separation_seconds=t2 - t1, completion_seconds=t2 - t_swept, adopted=adopted,
        ))
        if done:
            trace.status = "optimal"
            break
        if stalled and gap_check:
            trace.status = "stalled"
            break
        gap_check = stalled or (margin is not None and margin <= margin_tol)
    else:
        trace.status = "iteration_limit"

    if incumbent is not None:
        trace.robust_value = cap
        t0 = clock()
        _, final = incumbent_tables.separate(incumbent.multipliers)
        trace.separation_seconds += clock() - t0
        trace.oracle_calls += data.m
        trace.final_violation = float(final.max())
    trace.lower_bound = lower
    if trace.status == "optimal" and (incumbent is None or trace.final_violation > eps):
        trace.status = "uncertified"
    trace.wall_seconds = clock() - start
    return incumbent, trace
