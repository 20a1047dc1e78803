"""The two cutting loops, the enumeration oracle, and the cut pool."""

import json

import numpy as np
import pytest

from wassrobust import (
    BoxRegion,
    CutPool,
    Dataset,
    ProblemData,
    Scenario,
    objective_f,
    solve_cutting_surface,
    solve_exchange,
    solve_full_enumeration,
    solve_nominal,
)

from conftest import box_problem, finite_problem


def test_cut_pool_deduplicates_by_rounded_point():
    pool = CutPool()
    a = Scenario(np.array([0.5, 1.0]), 0, 1)
    assert pool.add(a)
    assert not pool.add(Scenario(np.array([0.5, 1.0]), 0, 1))
    # below the rounding resolution: same cut
    assert not pool.add(Scenario(np.array([0.5 + 1e-12, 1.0]), 0, 1))
    # clearly distinct point, and same point for another sample
    assert pool.add(Scenario(np.array([0.5 + 1e-3, 1.0]), 0, 1))
    assert pool.add(Scenario(np.array([0.5, 1.0]), 1, 1))
    assert len(pool) == 3


def test_cut_pool_drop_allows_readding():
    pool = CutPool()
    s = Scenario(np.array([1.0]), 0, 0)
    pool.add(s, birth_iteration=3, margin_at_birth=0.5)
    assert pool.drop_where(lambda cut: cut.birth_iteration == 3) == 1
    assert len(pool) == 0
    assert pool.add(s, birth_iteration=7)
    assert pool.cuts()[0].birth_iteration == 7


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
    assert point.budget_multiplier <= 1e-5


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
    with pytest.raises(ValueError):
        solve_cutting_surface(data, 1e-5, alpha=1.0)


def test_cutting_surface_monotone_without_drops():
    data = box_problem(2, m=12, n=3, radius=0.2)
    point, trace = solve_cutting_surface(data, 1e-6)
    assert trace.status == "optimal"
    margins = [r.margin for r in trace.records]
    caps = [r.cap for r in trace.records]
    bests = [r.best_objective for r in trace.records if r.best_objective is not None]
    assert all(margins[i + 1] <= margins[i] + 1e-12 for i in range(len(margins) - 1))
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


def test_cutting_surface_drop_variant_agrees():
    for seed in (2, 6):
        data = box_problem(seed, m=12, n=3, radius=0.2)
        eps = 1e-5
        plain, _ = solve_cutting_surface(data, eps)
        dropped, trace = solve_cutting_surface(data, eps, drop_cuts=True)
        assert trace.status == "optimal"
        assert sum(r.cuts_dropped for r in trace.records) > 0
        diff = abs(objective_f(plain, data.radius) - objective_f(dropped, data.radius))
        assert diff <= 2 * eps
        assert trace.final_violation <= eps


def test_cutting_surface_iteration_cap_reports_honestly():
    data = box_problem(9, m=12, n=3, radius=0.2)
    point, trace = solve_cutting_surface(data, 1e-8, max_iterations=3)
    assert trace.status == "iteration_limit"
    assert trace.iterations == 3


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
    point, trace = solve_cutting_surface(data, 1e-5, trace_path=str(path))
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == trace.iterations + 1
    for rec, line in zip(trace.records, lines):
        assert line["event"] == "iteration"
        assert line["iteration"] == rec.iteration
        assert line["cut_count"] == rec.cut_count
    done = lines[-1]
    assert done["event"] == "done"
    assert done["status"] == trace.status
    assert done["iterations"] == trace.iterations
    assert done["final_violation"] == trace.final_violation


def test_timing_capture_modes():
    data = box_problem(11, m=8, n=2)
    point, silent = solve_cutting_surface(data, 1e-5, capture_timing=False)
    assert silent.wall_seconds == 0.0
    assert silent.master_seconds == 0.0
    assert silent.separation_seconds == 0.0
    point, timed = solve_cutting_surface(data, 1e-5, capture_timing=True)
    assert timed.wall_seconds > 0.0
    covered = timed.master_seconds + timed.separation_seconds
    assert covered <= timed.wall_seconds + 1e-9
    assert covered >= 0.9 * timed.wall_seconds


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
