"""Transport profiles and the separation oracles against brute force."""

import math

import numpy as np
import pytest

from wassrobust import (
    BoxRegion,
    Dataset,
    DualPoint,
    FiniteRegion,
    ProblemData,
    constraint_g,
    separate_exact,
    transport_profile,
    best_violation,
)

from conftest import box_problem, finite_problem, grid_max_violation, random_dual_point


def test_profile_single_coordinate_hand_case():
    box = BoxRegion(np.array([-1.0]), np.array([1.0]), 1)
    prof = transport_profile(np.array([0.0, 1.0]), box, np.array([0.0]))
    assert np.allclose(prof.breakpoints, [-1.0, 0.0, 1.0])
    assert np.allclose(prof.costs, [1.0, 0.0, 1.0])
    assert prof.base_cost == 0.0
    assert prof.cost(0.5) == pytest.approx(0.5, abs=1e-15)
    assert prof.cost(0.0) == 0.0
    assert math.isinf(prof.cost(1.5))
    assert prof.score_range == (-1.0, 1.0)


def test_profile_zero_cost_at_own_score():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        lo = rng.normal(size=n)
        hi = lo + rng.uniform(0.2, 2.0, size=n)
        box = BoxRegion(lo, hi, 0)
        ref = rng.uniform(lo, hi)
        theta = rng.normal(size=n + 1)
        prof = transport_profile(theta, box, ref)
        own = theta[0] + ref @ theta[1:]
        assert prof.cost(own) == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(prof.anchor, ref)
        assert prof.base_cost == 0.0


def test_profile_outside_reference_pays_entry_cost():
    box = BoxRegion(np.array([0.0, 0.0]), np.array([1.0, 1.0]), 1)
    ref = np.array([2.0, -0.5])
    theta = np.array([0.0, 1.0, 2.0])
    prof = transport_profile(theta, box, ref)
    assert np.allclose(prof.anchor, [1.0, 0.0])
    assert prof.base_cost == pytest.approx(1.5, abs=1e-15)
    assert prof.cost(prof.breakpoints[0]) >= prof.base_cost - 1e-15
    anchor_score = theta[0] + prof.anchor @ theta[1:]
    assert prof.cost(anchor_score) == pytest.approx(1.5, abs=1e-12)


def test_profile_shape_and_convexity():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        lo = rng.normal(size=n)
        hi = lo + rng.uniform(0.0, 2.0, size=n)
        box = BoxRegion(lo, hi, 0)
        ref = rng.normal(size=n) * 0.5 + 0.5 * (lo + hi)
        theta = rng.normal(size=n + 1)
        theta[1 + rng.integers(0, n)] = 0.0  # a dead coordinate is fine
        prof = transport_profile(theta, box, ref)
        bp, cs = prof.breakpoints, prof.costs
        assert bp.size <= 2 * n + 1
        assert np.all(np.diff(bp) >= -1e-12)
        assert np.all(cs >= -1e-12)
        seg = np.diff(bp) > 1e-12
        slopes = np.diff(cs)[seg] / np.diff(bp)[seg]
        assert np.all(np.diff(slopes) >= -1e-9)  # convex: slopes non-decreasing


def test_witness_achieves_score_and_cost():
    rng = np.random.default_rng(2)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        lo = rng.normal(size=n)
        hi = lo + rng.uniform(0.1, 2.0, size=n)
        box = BoxRegion(lo, hi, 1)
        ref = rng.uniform(lo - 0.5, hi + 0.5)
        theta = rng.normal(size=n + 1)
        prof = transport_profile(theta, box, ref)
        lo_u, hi_u = prof.score_range
        for u in np.linspace(lo_u, hi_u, 9):
            x = prof.witness(u)
            assert box.contains(x, tol=1e-9)
            score = theta[0] + x @ theta[1:]
            assert score == pytest.approx(u, abs=1e-9 * (1 + abs(u)))
            assert np.abs(x - ref).sum() == pytest.approx(prof.cost(u), abs=1e-9)
        with pytest.raises(ValueError):
            prof.witness(hi_u + 1.0 + 0.1 * abs(hi_u))


def test_profile_constant_score_when_weights_vanish():
    box = BoxRegion(np.array([-1.0, 0.0]), np.array([1.0, 2.0]), 0)
    theta = np.array([0.7, 0.0, 0.0])
    prof = transport_profile(theta, box, np.array([0.5, 1.0]))
    assert prof.breakpoints.size == 1
    assert prof.breakpoints[0] == pytest.approx(0.7)
    assert prof.costs[0] == 0.0
    assert np.allclose(prof.witness(0.7), [0.5, 1.0])


def test_exact_matches_grid_oracle():
    for seed in range(25):
        rng = np.random.default_rng(seed + 400)
        n = int(rng.integers(1, 4))
        data = box_problem(seed + 400, m=6, n=n, radius=0.3)
        x = random_dual_point(data, seed)
        for i in range(data.m):
            res = separate_exact(x, i, data)
            grid_val, _ = grid_max_violation(x, i, data, points_per_dim=41)
            region = data.region_for_sample(i)
            spacing = (region.upper - region.lower) / 40.0
            lip = np.abs(x.theta[1:]) + x.multipliers[-1]
            slack = float(lip @ spacing) + 1e-9
            assert res.violation >= grid_val - 1e-12
            assert res.violation <= grid_val + slack


def test_exact_result_is_consistent_with_evaluator():
    for seed in range(10):
        data = box_problem(seed + 500, m=5, n=3, radius=0.2)
        x = random_dual_point(data, seed)
        for i in range(data.m):
            res = separate_exact(x, i, data)
            again = constraint_g(x, i, res.scenario, data.loss, data.dataset)
            assert res.violation == pytest.approx(again, abs=1e-10)
            assert res.scenario.sample_index == i
            assert res.scenario.label == int(data.dataset.labels[i])


def test_huge_budget_pins_the_scenario_to_the_sample():
    data = box_problem(7, m=6, n=2, radius=0.2)
    lower, upper = data.multiplier_box()
    mult = np.concatenate([np.full(data.m, data.derived.loss_lower + 0.1),
                           [min(upper[-1], 1e6)]])
    theta = np.full(data.theta_size, 0.5)
    x = DualPoint(theta, mult)
    for i in range(data.m):
        res = separate_exact(x, i, data)
        atom = data.dataset.features[i]
        expected = (data.loss.evaluate(theta, atom, int(data.dataset.labels[i]))
                    - mult[i])
        assert res.violation == pytest.approx(expected, abs=1e-9)
        assert np.abs(res.scenario.point - atom).sum() <= 1e-9


def test_own_sample_is_candidate_even_outside_its_region():
    # region far from the observed sample: zero-cost atom must still win
    # when the transport budget is expensive
    ds = Dataset.from_arrays(np.array([[0.0], [10.0]]), [1, 1])
    regions = {1: BoxRegion(np.array([4.0]), np.array([5.0]), 1)}
    data = ProblemData.assemble(ds, regions, radius=0.5, theta_radius=1.0)
    theta = np.array([0.0, -1.0])  # loss decreases with x for label 1
    mult = np.array([0.0, 0.0, 0.9])
    x = DualPoint(theta, mult)
    res = separate_exact(x, 0, data)
    # region candidates pay >= 4 of transport at budget 0.9; the atom is free
    atom_value = data.loss.evaluate(theta, np.array([0.0]), 1)
    assert res.violation == pytest.approx(atom_value, abs=1e-12)
    assert np.allclose(res.scenario.point, [0.0])


def test_finite_region_separation_enumerates():
    data = finite_problem(3, m=4, n=2, extra_points=3)
    x = random_dual_point(data, 3)
    for i in range(data.m):
        res = separate_exact(x, i, data)
        region = data.region_for_sample(i)
        pts = [region.points[j] for j in range(region.points.shape[0])]
        pts.append(data.dataset.features[i])
        best = max(
            constraint_g(x, i,
                         type(res.scenario)(p, i, int(data.dataset.labels[i])),
                         data.loss, data.dataset)
            for p in pts
        )
        assert res.violation == pytest.approx(best, abs=1e-12)


def test_best_violation_matches_per_sample_scan():
    for seed in range(8):
        data = box_problem(seed + 700, m=7, n=2, radius=0.2)
        x = random_dual_point(data, seed)
        per = [separate_exact(x, i, data) for i in range(data.m)]
        want = max(range(data.m), key=lambda i: per[i].violation)
        got = best_violation(x, data)
        assert got.scenario.sample_index == want
        assert got.violation == per[want].violation


def test_best_violation_breaks_ties_by_lowest_index():
    X = np.array([[1.0, 0.0], [1.0, 0.0], [0.5, 0.5]])
    ds = Dataset.from_arrays(X, [1, 1, 1])
    regions = {1: BoxRegion(np.array([-2.0, -2.0]), np.array([2.0, 2.0]), 1)}
    data = ProblemData.assemble(ds, regions, radius=0.3)
    x = DualPoint(np.array([0.1, 0.2, -0.3]),
                  np.array([0.2, 0.2, 5.0, 0.05]))
    res = best_violation(x, data)
    # samples 0 and 1 coincide (their separations tie exactly) and the
    # third sample's huge multiplier keeps it out of the running
    assert res.scenario.sample_index == 0


def test_best_violation_nonpositive_when_everything_is_covered():
    data = box_problem(11, m=5, n=2)
    mult = np.concatenate([np.full(data.m, data.derived.loss_upper + 0.5), [0.0]])
    x = DualPoint(np.zeros(data.theta_size), mult)
    assert best_violation(x, data).violation <= 0.0
    low = DualPoint(np.zeros(data.theta_size),
                    np.concatenate([np.full(data.m, data.derived.loss_lower - 1.0
                                            if data.derived.loss_lower > 1.0 else -1.0),
                                    [0.0]]))
    assert best_violation(low, data).violation > 0.0
