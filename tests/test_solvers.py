"""The two cutting loops, the enumeration oracle, and the cut pool."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wassrobust import (
    BoxRegion,
    CandidateTables,
    CutPool,
    Dataset,
    DualPoint,
    ProblemData,
    fit_wrlr,
    objective_f,
    solve_cutting_surface,
    solve_exchange,
    solve_full_enumeration,
    solve_nominal,
)
from wassrobust import convex, solvers

from conftest import blob_dataset, box_problem, enumerated_robust_value, finite_problem


def pool_problem():
    """Samples 0 and 1 in class 1, sample 2 in class 0; both regions are
    the box [-2, 2]^2."""
    ds = Dataset.from_arrays(np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]]), [1, 1, 0])
    regions = {label: BoxRegion(np.full(2, -2.0), np.full(2, 2.0), label)
               for label in (0, 1)}
    return ProblemData.assemble(ds, regions, radius=0.5)


def test_cut_pool_deduplicates_by_rounded_point():
    pool = CutPool(pool_problem())
    assert pool.extend([0], [[0.5, 1.0]]) == 1
    assert pool.extend([0], [[0.5, 1.0]]) == 0
    # below the rounding resolution: same cut
    assert pool.extend([0], [[0.5 + 1e-12, 1.0]]) == 0
    # clearly distinct point, and same point for another sample
    assert pool.extend([0, 1], [[0.5 + 1e-3, 1.0], [0.5, 1.0]]) == 2
    # a repeat inside one block counts once, the first copy kept
    assert pool.extend([2, 2, 2], [[0.0, 0.0], [0.0, 1e-12], [0.0, 0.0]]) == 1
    assert len(pool) == 4
    assert pool.samples.tolist() == [0, 0, 1, 2]
    assert np.array_equal(pool.points[-1], [0.0, 0.0])


_POOL_DATA = box_problem(6, m=6, n=2)  # both class boxes have positive width
# a cut picks (sample, grid cell): cell c is the point (c // 3, c % 3) / 2
# of the sample's class box, so repeats are common, within a block too
_POOL_BLOCKS = st.lists(
    st.lists(st.tuples(st.integers(0, _POOL_DATA.m - 1), st.integers(0, 8)), max_size=8),
    max_size=12)


@settings(max_examples=60, deadline=None)
@given(_POOL_BLOCKS)
def test_cut_pool_arrays_stay_aligned(blocks):
    data = _POOL_DATA
    feats = data.dataset.features

    def cut_point(i, cell):
        region = data.region_for_sample(i)
        frac = np.array([cell // 3, cell % 3]) / 2.0
        return region.lower + frac * (region.upper - region.lower)

    pool = CutPool(data)
    rows = []  # (sample, cell) of each pooled cut, in order
    for block in blocks:
        fresh = [cut for cut in dict.fromkeys(block) if cut not in rows]
        points = np.reshape([cut_point(i, cell) for i, cell in block], (len(block), 2))
        assert pool.extend([i for i, _ in block], points) == len(fresh)
        rows += fresh
        k = len(rows)
        assert len(pool) == k
        assert pool.points.shape == (k, 2)
        assert pool.samples.tolist() == [row[0] for row in rows]
        expected = [cut_point(i, cell) for i, cell in rows]
        assert np.array_equal(pool.points, np.reshape(expected, (k, 2)))
        l1 = np.abs(pool.points - feats[pool.samples]).sum(axis=1)
        assert pool.dists.shape == (k,)
        assert np.allclose(pool.dists, l1, rtol=0.0, atol=1e-12)


def test_nominal_on_single_point_instance():
    ds = Dataset.from_arrays(np.array([[1.0]]), [1])
    regions = {1: BoxRegion(np.array([1.0]), np.array([1.0]), 1)}
    data = ProblemData.assemble(ds, regions, radius=0.5, theta_radius=2.0)
    theta, value, report = solve_nominal(data)
    assert value == pytest.approx(np.log1p(np.exp(-4.0)), abs=1e-7)
    assert theta.shape == (2,)


def test_enumeration_equals_nominal_when_region_is_the_sample():
    from wassrobust import FiniteRegion
    ds = Dataset.from_arrays(np.array([[1.0, -0.5]]), [1])
    regions = {1: FiniteRegion(np.array([[1.0, -0.5]]), 1)}
    data = ProblemData.assemble(ds, regions, radius=0.7)
    _, nominal_value, _ = solve_nominal(data)
    point, robust_value = solve_full_enumeration(data)
    # the only admissible move is staying put, so robustness costs nothing
    assert robust_value == pytest.approx(nominal_value, abs=1e-6)
    assert point.multipliers[-1] <= 1e-5


def test_three_solvers_agree_on_finite_instances():
    eps = 1e-6
    for seed in (0, 1, 2, 3):
        data = finite_problem(seed, m=5, n=2, extra_points=3, radius=0.1)
        _, v_enum = solve_full_enumeration(data)
        p_ex, tr_ex = solve_exchange(data, eps)
        p_cs, tr_cs = solve_cutting_surface(data, eps)
        assert tr_ex.status == "optimal"
        assert tr_cs.status == "optimal"
        assert objective_f(p_ex, data.radius) == pytest.approx(v_enum, abs=2 * eps)
        assert objective_f(p_cs, data.radius) == pytest.approx(v_enum, abs=2 * eps)


def test_robust_value_dominates_nominal():
    for seed in (0, 5):
        data = box_problem(seed + 40, m=10, n=2, radius=0.3)
        _, nominal_value, _ = solve_nominal(data)
        point, trace = solve_cutting_surface(data, 1e-6)
        assert trace.status == "optimal"
        assert objective_f(point, data.radius) >= nominal_value - 2e-6


def test_exchange_stops_immediately_when_tolerance_is_huge():
    data = box_problem(7, m=8, n=2)
    der = data.derived
    eps = 4.0 * (der.loss_upper - der.loss_lower)
    point, trace = solve_exchange(data, eps)
    assert trace.status == "optimal"
    assert trace.iterations == 1
    assert trace.cut_count == 0
    assert trace.final_violation <= 0.5 * eps


def test_exchange_terminates_with_certificate_and_distinct_cuts():
    data = box_problem(3, m=12, n=3, radius=0.2)
    eps = 1e-5
    point, trace = solve_exchange(data, eps)
    assert trace.status == "optimal"
    assert trace.final_violation <= 0.5 * eps
    assert trace.iterations < 500
    # one cut per non-final iteration, all distinct by pool construction
    assert trace.cut_count == trace.iterations - 1
    assert point.multipliers[-1] >= 0.0


def test_exchange_tolerance_halving_is_consistent():
    data = box_problem(4, m=10, n=2, radius=0.2)
    v1 = objective_f(solve_exchange(data, 1e-4)[0], data.radius)
    v2 = objective_f(solve_exchange(data, 5e-5)[0], data.radius)
    assert abs(v1 - v2) <= 1e-4


def test_exchange_rejects_bad_eps():
    data = box_problem(5, m=4, n=2)
    with pytest.raises(ValueError):
        solve_exchange(data, 0.0)
    with pytest.raises(ValueError):
        solve_cutting_surface(data, -1.0)


def test_cutting_surface_is_monotone():
    data = box_problem(2, m=12, n=3, radius=0.2)
    point, trace = solve_cutting_surface(data, 1e-6)
    assert trace.status == "optimal"
    # the plain master of the gap check has no margin
    centered = [r for r in trace.records if r.margin is not None]
    margins = [r.margin for r in centered]
    caps = [r.cap for r in trace.records]
    bests = [r.best_objective for r in trace.records if r.best_objective is not None]
    # the optimal margins fall, and a centered master solved to a tolerance
    # reports a margin at most that far below its optimum
    assert all(margins[i + 1] <= margins[i] + centered[i].master_tol
               for i in range(len(margins) - 1))
    assert all(caps[i + 1] <= caps[i] + 1e-12 for i in range(len(caps) - 1))
    assert all(bests[i + 1] <= bests[i] + 1e-12 for i in range(len(bests) - 1))
    assert trace.final_violation <= 1e-6
    # the incumbent's objective matches the last adopted cap
    assert objective_f(point, data.radius) == pytest.approx(bests[-1], abs=1e-12)


def test_cutting_surface_seeds_pool_with_every_sample():
    data = box_problem(6, m=9, n=2)
    point, trace = solve_cutting_surface(data, 1e-5)
    assert trace.records[0].cut_count >= data.m
    assert trace.status == "optimal"


@pytest.mark.parametrize("seed, m, n", [(10, 6, 2), (2, 12, 3)])
def test_every_cutting_surface_record_carries_a_sweep(seed, m, n):
    # a centered master whose margin vanished is swept before the plain
    # master takes over, so no iteration goes without cuts or a completion
    point, trace = solve_cutting_surface(box_problem(seed, m=m, n=n), 1e-5)
    assert trace.status == "optimal"
    assert all(rec.violation is not None for rec in trace.records)


def test_cutting_surface_iteration_cap_reports_honestly(monkeypatch):
    monkeypatch.setattr(solvers, "MAX_ITERATIONS", 3)
    data = box_problem(9, m=12, n=3, radius=0.2)
    point, trace = solve_cutting_surface(data, 1e-8)
    assert trace.status == "iteration_limit"
    assert trace.iterations == 3
    # the last iteration the budget allows solves the plain master
    assert trace.records[-1].margin is None
    assert data.derived.loss_lower < trace.lower_bound <= trace.robust_value


def test_solve_that_adopts_no_iterate_returns_none(monkeypatch):
    # one Newton step per master: the first master ends iteration_limit
    monkeypatch.setattr(convex, "MAX_NEWTON", 1)
    data = box_problem(9, m=12, n=3, radius=0.2)
    for solver in (solve_cutting_surface, solve_exchange):
        point, trace = solver(data, 1e-5)
        assert point is None
        assert trace.status == "master_iteration_limit"
        assert trace.iterations == 0 and trace.oracle_calls == 0
        assert trace.final_violation is None
    with pytest.raises(RuntimeError, match="robust fit failed: master_iteration_limit"):
        fit_wrlr(data.dataset, 0.2)


def test_loose_completions_certify_no_false_gap(monkeypatch):
    # every completion sits 1e-3 above J(theta) but stays exactly
    # feasible: its objective is an upper bound, just not the least one
    complete = CandidateTables.complete

    def loose(tables):
        x = complete(tables)
        return DualPoint(x.theta, np.append(x.multipliers[:-1] + 1e-3, x.multipliers[-1]))

    monkeypatch.setattr(CandidateTables, "complete", loose)
    eps = 1e-6
    data = box_problem(2, m=12, n=3, radius=0.2)
    point, trace = solve_cutting_surface(data, eps)
    if trace.status == "optimal":
        assert trace.robust_value - trace.lower_bound <= eps
    # a stall is declared only after the plain master has certified a bound
    assert data.derived.loss_lower < trace.lower_bound <= trace.robust_value
    assert objective_f(point, data.radius) == trace.robust_value
    caps = [rec.cap for rec in trace.records]
    assert all(new <= old for old, new in zip(caps, caps[1:]))


def test_each_sweep_builds_the_only_candidate_tables(monkeypatch):
    # the incumbent is certified on the tables it was completed from, so a
    # cold solve builds one table set per sweep, and a warm theta one more
    built = []

    def counting(*args, **kwargs):
        built.append(args[0])
        return CandidateTables(*args, **kwargs)

    monkeypatch.setattr(solvers, "CandidateTables", counting)
    data = box_problem(4, m=10, n=3, radius=0.2)
    point, cold = solve_cutting_surface(data, 1e-6)
    assert cold.status == "optimal"
    assert len(built) == cold.iterations > 0
    built.clear()
    # the same training set at another radius
    _, warm = solve_cutting_surface(box_problem(4, m=10, n=3, radius=0.1), 1e-6,
                                    theta=point.theta)
    assert warm.status == "optimal"
    assert len(built) == warm.iterations + 1
    assert np.array_equal(built[0], point.theta)


def test_improvement_ratios_respect_rate_bound():
    eps = 1e-6
    for seed in (0, 1):
        data = finite_problem(seed, m=5, n=2, extra_points=3, radius=0.1)
        _, f_star = solve_full_enumeration(data)
        _, trace = solve_cutting_surface(data, eps)
        bound = data.derived.rate_bound + 1e-6
        bests = []
        for rec in trace.records:
            if rec.best_objective is not None:
                if not bests or rec.best_objective < bests[-1] - 1e-15:
                    bests.append(rec.best_objective)
        gaps = [b - f_star for b in bests if b - f_star > 1e-9]
        for prev, new in zip(gaps, gaps[1:]):
            assert new / prev <= bound


def test_trace_jsonl_round_trip(tmp_path):
    data = box_problem(10, m=6, n=2)
    path = tmp_path / "trace.jsonl"
    point, trace = solve_cutting_surface(data, 1e-5)
    trace.write_jsonl(str(path))
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == trace.iterations + 1
    assert all(line["schema"] == 9 for line in lines)
    assert lines[-1]["failed_master"] is None
    # the lower bound rises only at a gap check, and this solve's only one
    # is its last iteration, so every centered master starts from the
    # derived loss bound and the cap the record before it left
    gap_checks = [rec.margin is None for rec in trace.records]
    assert gap_checks == [False] * (trace.iterations - 1) + [True]
    cap = data.derived.objective_cap
    for rec, line in zip(trace.records, lines):
        assert line["violated"] == rec.violated
        # every violated sample yields a cut, or a duplicate of one
        assert 0 <= rec.violated <= data.m
        assert (rec.violated > 0) == (rec.violation > 0.0)
        assert rec.cuts_added <= rec.violated
        assert line["event"] == "iteration"
        assert line["iteration"] == rec.iteration
        assert line["cut_count"] == rec.cut_count
        assert line["newton_steps"] == rec.newton_steps > 0
        assert line["kkt_residual"] == rec.kkt_residual
        assert line["master_tol"] == rec.master_tol
        # a centered master is solved to a fraction of the gap it starts
        # from, the plain master of a gap check to 1e-8
        if rec.margin is None:
            assert rec.master_tol == 1e-8
        else:
            gap = cap - data.derived.loss_lower
            assert rec.master_tol == max(1e-8, solvers.CENTERED_TOL * gap)
        assert 0.0 <= rec.kkt_residual <= rec.master_tol
        cap = rec.cap
        assert line["ridges"] == rec.ridges >= 0
        assert line["backtracks"] == rec.backtracks >= 0
        assert line["adopted"] == rec.adopted in (None, "completion")
    done = lines[-1]
    assert done["event"] == "done"
    assert done["status"] == trace.status
    assert done["iterations"] == trace.iterations
    assert done["final_violation"] == trace.final_violation
    assert done["robust_value"] == trace.robust_value == objective_f(point, data.radius)
    assert done["lower_bound"] == trace.lower_bound
    assert any(rec.violated for rec in trace.records)


# criterion 3's instances at eps 1e-6, then criterion 4's at eps 1e-7
_GAP_CASES = ([(box_problem(100 + seed, m=20, n=4, radius=1e-6), 1e-6) for seed in range(10)]
              + [(box_problem(200 + seed, m=8, n=2, radius=radius), 1e-7)
                 for seed in range(5) for radius in (0.01, 0.05, 0.1, 0.5, 1.0)])


@pytest.mark.parametrize("data, eps", _GAP_CASES)
def test_stop_certifies_an_eps_gap(data, eps):
    point, trace = solve_cutting_surface(data, eps)
    assert trace.status == "optimal"
    assert trace.robust_value - trace.lower_bound <= eps
    # the returned point is the completion of its own theta
    assert objective_f(point, data.radius) == trace.robust_value
    assert trace.final_violation <= 1e-10


def test_robust_value_never_falls_below_the_certified_bound():
    rng = np.random.default_rng(8)
    for data in (box_problem(21, m=8, n=2, radius=0.2),
                 finite_problem(4, m=5, n=2, extra_points=3, radius=0.1)):
        _, trace = solve_cutting_surface(data, 1e-6)
        assert trace.status == "optimal"
        for _ in range(20):
            theta = rng.uniform(data.theta_lower, data.theta_upper)
            assert enumerated_robust_value(theta, data) >= trace.lower_bound


def test_certified_bound_never_exceeds_the_robust_value():
    # the plain master's interior-point value read 2.7e-10 above the robust
    # value of an exactly feasible point here; its weak-duality bound cannot
    trace = fit_wrlr(blob_dataset(7, 200, 13), 0.1, eps=1e-5).trace
    assert trace.status == "optimal"
    assert trace.lower_bound <= trace.robust_value <= trace.lower_bound + 1e-5


@pytest.mark.parametrize("m", [50, 200])
def test_inexact_centered_masters_keep_the_robust_value(monkeypatch, m):
    # only the centers of the centered masters are used, so solving them
    # to a fraction of the gap moves the certified value by less than eps
    eps = 1e-5
    loose = fit_wrlr(blob_dataset(7, m, 13), 0.1, eps=eps).trace
    monkeypatch.setattr(solvers, "CENTERED_TOL", 0.0)
    exact = fit_wrlr(blob_dataset(7, m, 13), 0.1, eps=eps).trace
    assert loose.status == exact.status == "optimal"
    assert all(rec.master_tol == 1e-8 for rec in exact.records)
    assert any(rec.master_tol > 1e-8 for rec in loose.records)
    assert abs(loose.robust_value - exact.robust_value) <= eps


def test_exchange_reports_robust_value_and_bound():
    eps = 1e-5
    data = box_problem(3, m=12, n=3, radius=0.2)
    point, trace = solve_exchange(data, eps)
    assert trace.status == "optimal"
    # the bound is the last restricted master's weak-duality bound: below
    # the returned point's value, by at most the master's tolerance
    value = objective_f(point, data.radius)
    assert trace.lower_bound <= value <= trace.lower_bound + 1e-8
    # the returned point is eps/2-feasible, so completing it costs at most eps/2
    assert trace.lower_bound <= trace.robust_value <= trace.lower_bound + 0.5 * eps


def test_timing_capture_modes():
    data = box_problem(11, m=8, n=2)
    point, silent = solve_cutting_surface(data, 1e-5, capture_timing=False)
    assert silent.wall_seconds == 0.0
    assert silent.master_seconds == 0.0
    assert silent.separation_seconds == 0.0
    assert silent.completion_seconds == 0.0
    point, timed = solve_cutting_surface(data, 1e-5, capture_timing=True)
    assert timed.wall_seconds > 0.0
    covered = timed.master_seconds + timed.separation_seconds
    assert covered <= timed.wall_seconds + 1e-9
    assert covered >= 0.9 * timed.wall_seconds
    # the completions are part of the separation time, in every record too
    assert 0.0 < timed.completion_seconds < timed.separation_seconds
    assert all(0.0 <= r.completion_seconds <= r.separation_seconds for r in timed.records)
    # a cold solve completes only in its sweeps
    assert sum(r.completion_seconds for r in timed.records) == timed.completion_seconds
    # the exchange loop completes only the point it returns
    point, exchange = solve_exchange(data, 1e-5)
    assert 0.0 < exchange.completion_seconds < exchange.separation_seconds
    assert all(r.completion_seconds == 0.0 for r in exchange.records)


def test_master_seconds_are_the_records_sum():
    # every master solve, and only those, has a record
    data = box_problem(10, m=30, n=3)
    for solve in (solve_cutting_surface, solve_exchange):
        _, trace = solve(data, 1e-5)
        assert trace.status == "optimal"
        assert trace.master_seconds == sum(r.master_seconds for r in trace.records)


def test_repeat_solves_are_bitwise_identical():
    data = box_problem(13, m=9, n=2)
    a, _ = solve_cutting_surface(data, 1e-6, capture_timing=False)
    b, _ = solve_cutting_surface(data, 1e-6, capture_timing=False)
    assert np.array_equal(a.theta, b.theta)
    assert np.array_equal(a.multipliers, b.multipliers)
    c, _ = solve_exchange(data, 1e-6, capture_timing=False)
    d, _ = solve_exchange(data, 1e-6, capture_timing=False)
    assert np.array_equal(c.theta, d.theta)
    assert np.array_equal(c.multipliers, d.multipliers)
