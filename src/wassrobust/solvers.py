"""Iterative solvers for the semi-infinite dual of the robust problem.

Two algorithms, both driven by the separation oracles:

* ``solve_exchange``: the classical scheme.  Solve the dual restricted
  to the cuts found so far, separate at the minimizer, add the most
  violated constraint, repeat.  Works for any loss the oracle handles,
  but carries no rate guarantee.

* ``solve_cutting_surface``: the centered scheme.  Keep a strict upper
  bound on the optimal value and repeatedly maximize the feasibility
  margin ``w`` of the current cut set under that bound.  A positive
  margin either yields a new cut (when separation finds a violated
  constraint) or certifies an improved incumbent (when it does not).
  The margin contracts geometrically, which gives the iteration bound
  the acceptance tests check.

Both return the final iterate together with a trace of every
iteration; the trace can be written as JSON lines for inspection.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import convex
from .model import DualPoint, Scenario, objective_f
from .reformulate import (
    build_enumeration,
    build_exchange_master,
    build_master,
    exchange_interior_point,
    master_interior_point,
    split_dual_solution,
    split_master_solution,
)
from .separation import best_violation, separate_exact

__all__ = [
    "Cut",
    "CutPool",
    "IterationRecord",
    "SolveTrace",
    "solve_nominal",
    "solve_exchange",
    "solve_cutting_surface",
    "solve_full_enumeration",
]


@dataclass
class Cut:
    scenario: Scenario
    birth_iteration: int
    margin_at_birth: float


class CutPool:
    """Ordered cut collection with duplicate detection.

    Two cuts are duplicates when they belong to the same sample and
    their points agree after rounding to ten decimal places.
    """

    def __init__(self):
        self._cuts = []
        self._keys = set()

    @staticmethod
    def _key(scenario):
        rounded = np.round(scenario.point, 10)
        return (scenario.sample_index, tuple(float(v) for v in rounded))

    def add(self, scenario, birth_iteration=0, margin_at_birth=np.inf):
        key = self._key(scenario)
        if key in self._keys:
            return False
        self._keys.add(key)
        self._cuts.append(Cut(scenario, birth_iteration, margin_at_birth))
        return True

    def scenarios(self):
        return [cut.scenario for cut in self._cuts]

    def cuts(self):
        return list(self._cuts)

    def drop_where(self, predicate):
        """Remove cuts for which predicate(cut) holds; returns the count."""
        keep, dropped = [], 0
        for cut in self._cuts:
            if predicate(cut):
                self._keys.discard(self._key(cut.scenario))
                dropped += 1
            else:
                keep.append(cut)
        self._cuts = keep
        return dropped

    def __len__(self):
        return len(self._cuts)


@dataclass
class IterationRecord:
    iteration: int
    margin: float | None
    cap: float | None
    objective: float | None
    violation: float | None
    cuts_added: int
    cuts_dropped: int
    cut_count: int
    best_objective: float | None
    master_seconds: float
    separation_seconds: float


@dataclass
class SolveTrace:
    """Per-iteration history of a semi-infinite solve."""

    algorithm: str
    status: str = "running"
    records: list = field(default_factory=list)
    final_violation: float | None = None
    oracle_calls: int = 0
    master_seconds: float = 0.0
    separation_seconds: float = 0.0
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
        with open(path, "w") as fh:
            for record in self.records:
                fh.write(json.dumps({"event": "iteration", **asdict(record)}) + "\n")
            fh.write(json.dumps({"event": "done", **self.summary()}) + "\n")


class _Clock:
    """Accumulates wall time; a null clock keeps results reproducible."""

    def __init__(self, enabled=True):
        self.enabled = enabled

    def now(self):
        return time.perf_counter() if self.enabled else 0.0


def _atom_scenarios(data):
    """One zero-cost scenario per sample: the observation itself."""
    return [Scenario(data.dataset.features[i], i, int(data.dataset.labels[i]))
            for i in range(data.m)]


def solve_nominal(data, solver_tol=1e-8):
    """Minimize the average training loss; returns (theta, value, report).

    Solves the plain master over the atom cuts alone.  They cost no
    transport, so the budget multiplier is free to sit at zero and the
    optimum is the average loss.  The value is that loss evaluated at
    theta, so the budget multiplier's residue does not enter it.
    """
    program = build_exchange_master(data, _atom_scenarios(data))
    report = convex.solve(program, exchange_interior_point(data), tol=solver_tol)
    if report.status != convex.OPTIMAL:
        raise RuntimeError(f"nominal problem failed to solve: {report.status}")
    theta = report.solution[: data.theta_size]
    value = float(np.mean(data.loss.evaluate_many(
        theta, data.dataset.features, data.dataset.labels)))
    return theta, value, report


def solve_full_enumeration(data, solver_tol=1e-8):
    """Solve the dual with every (sample, point) constraint materialized.

    Only for finite regions within the enumeration budget; serves as the
    ground-truth oracle for the iterative solvers.
    """
    program = build_enumeration(data)
    report = convex.solve(program, exchange_interior_point(data), tol=solver_tol)
    if report.status != convex.OPTIMAL:
        raise RuntimeError(f"enumeration failed to solve: {report.status}")
    point = split_dual_solution(data, report.solution)
    return point, -report.objective


def solve_exchange(data, eps, max_iterations=500, solver_tol=1e-8,
                   trace_path=None, capture_timing=True):
    """Exchange scheme: add the most violated cut until eps/2-feasible.

    Stops when the separation oracle finds no constraint violated by
    more than eps/2 at the restricted minimizer, which makes that point
    eps-optimal for oracles with eps/2 accuracy (the exact oracle is
    better than that).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    clock = _Clock(capture_timing)
    start = clock.now()
    trace = SolveTrace(algorithm="exchange")
    pool = CutPool()
    x0 = exchange_interior_point(data)
    point = None
    for k in range(max_iterations + 1):
        t0 = clock.now()
        program = build_exchange_master(data, pool.scenarios())
        report = convex.solve(program, x0, tol=solver_tol)
        t1 = clock.now()
        if report.status != convex.OPTIMAL:
            trace.status = f"master_{report.status}"
            trace.master_seconds += t1 - t0
            break
        point = split_dual_solution(data, report.solution)
        sep = best_violation(point, data)
        t2 = clock.now()
        trace.master_seconds += t1 - t0
        trace.separation_seconds += t2 - t1
        trace.oracle_calls += data.m
        added = 0
        if sep.violation > 0.5 * eps:
            added = int(pool.add(sep.scenario, birth_iteration=k))
        trace.records.append(IterationRecord(
            iteration=k, margin=None, cap=None,
            objective=-report.objective, violation=sep.violation,
            cuts_added=added, cuts_dropped=0, cut_count=len(pool),
            best_objective=None,
            master_seconds=t1 - t0, separation_seconds=t2 - t1,
        ))
        if sep.violation <= 0.5 * eps:
            trace.status = "optimal"
            trace.final_violation = sep.violation
            break
        if not added:
            # the oracle re-derived an existing cut: the master cannot
            # move further at this precision
            trace.status = "stalled"
            trace.final_violation = sep.violation
            break
    else:
        trace.status = "iteration_limit"
    trace.wall_seconds = clock.now() - start
    if trace_path:
        trace.write_jsonl(trace_path)
    return point, trace


def _sweep(x, data):
    return [separate_exact(x, i, data) for i in range(data.m)]


def solve_cutting_surface(data, eps, w_tol=None, alpha=2.0, drop_cuts=False,
                          max_iterations=500, solver_tol=1e-8, trace_path=None,
                          capture_timing=True):
    """Centered cutting scheme with a certified eps-feasible incumbent.

    Each sweep adds every violated constraint it finds.  Cut dropping,
    when enabled, removes cuts whose birth margin is at least ``alpha``
    times the current margin and whose slack is strictly positive at the
    current iterate.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if alpha <= 1.0:
        raise ValueError("alpha must exceed 1")
    der = data.derived
    if w_tol is None:
        w_tol = 1e-9 * (der.objective_cap - der.loss_lower)
    clock = _Clock(capture_timing)
    start = clock.now()
    trace = SolveTrace(algorithm="cutting_surface")

    t0 = clock.now()
    theta0, _, _ = solve_nominal(data, solver_tol=solver_tol)
    trace.master_seconds += clock.now() - t0

    pool = CutPool()
    for scenario in _atom_scenarios(data):
        pool.add(scenario)

    incumbent = DualPoint(theta0, np.zeros(data.m + 1))
    cap = der.objective_cap
    certified = False

    for k in range(1, max_iterations + 1):
        t0 = clock.now()
        scenarios = pool.scenarios()
        program = build_master(data, scenarios, cap)
        hint = master_interior_point(data, scenarios, cap)
        report = convex.solve(program, hint, tol=solver_tol)
        t1 = clock.now()
        trace.master_seconds += t1 - t0
        if report.status != convex.OPTIMAL:
            trace.status = f"master_{report.status}"
            break
        point, margin, _ = split_master_solution(data, report.solution)
        if margin <= w_tol:
            trace.records.append(IterationRecord(
                iteration=k, margin=margin, cap=cap,
                objective=objective_f(point, data.radius), violation=None,
                cuts_added=0, cuts_dropped=0, cut_count=len(pool),
                best_objective=cap if certified else None,
                master_seconds=t1 - t0, separation_seconds=0.0,
            ))
            trace.status = "optimal"
            break

        results = _sweep(point, data)
        t2 = clock.now()
        trace.separation_seconds += t2 - t1
        trace.oracle_calls += data.m
        worst = max(res.violation for res in results)

        added = 0
        dropped = 0
        stalled = False
        if worst > eps:
            for res in results:
                if res.violation > 0.0:
                    added += int(pool.add(res.scenario, birth_iteration=k,
                                          margin_at_birth=margin))
            # every violated cut already known: the master cannot move
            # further at this precision
            stalled = added == 0
        else:
            # the iterate is eps-feasible: adopt it and tighten the cap
            incumbent = point
            cap = objective_f(point, data.radius)
            certified = True
            # dropping happens only on adopting iterations: no cut was
            # added above, so removing rows that are strictly slack at
            # this iterate cannot enlarge the next margin
            if drop_cuts:
                feats = data.dataset.features
                bound = der.centering_bound

                def stale(cut):
                    if not cut.margin_at_birth >= alpha * margin:
                        return False
                    s = cut.scenario
                    h = data.loss.evaluate(point.theta, s.point, s.label)
                    dist = float(np.sum(np.abs(s.point - feats[s.sample_index])))
                    g = h - point.multipliers[s.sample_index] - point.multipliers[-1] * dist
                    return g + bound * margin < 0.0

                dropped = pool.drop_where(stale)

        trace.records.append(IterationRecord(
            iteration=k, margin=margin, cap=cap,
            objective=objective_f(point, data.radius), violation=worst,
            cuts_added=added, cuts_dropped=dropped, cut_count=len(pool),
            best_objective=cap if certified else None,
            master_seconds=t1 - t0, separation_seconds=t2 - t1,
        ))
        if stalled:
            trace.status = "stalled"
            break
    else:
        trace.status = "iteration_limit"

    # certify whatever we return by a full sweep at the incumbent
    t0 = clock.now()
    final = _sweep(incumbent, data)
    trace.separation_seconds += clock.now() - t0
    trace.oracle_calls += data.m
    trace.final_violation = max(res.violation for res in final)
    if trace.status == "optimal" and trace.final_violation > eps:
        trace.status = "uncertified"
    trace.wall_seconds = clock.now() - start
    if trace_path:
        trace.write_jsonl(trace_path)
    return incumbent, trace
