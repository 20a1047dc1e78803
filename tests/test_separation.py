"""Transport profiles and the separation oracles against brute force."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wassrobust import (
    BoxRegion,
    Dataset,
    DualPoint,
    FiniteRegion,
    ProblemData,
    Scenario,
    constraint_g,
    separate,
    separate_exact,
    transport_profile,
    best_violation,
    objective_f,
)
from wassrobust.separation import complete

from conftest import (
    box_problem,
    enumerated_robust_value,
    finite_problem,
    grid_max_violation,
    random_dual_point,
    vertex_max_violation,
)


def test_profile_single_coordinate_hand_case():
    box = BoxRegion(np.array([-1.0]), np.array([1.0]), 1)
    prof = transport_profile(np.array([0.0, 1.0]), box, np.array([[0.0], [0.5]]))
    assert np.array_equal(prof.breakpoints, [[-1.0, 0.0, 1.0], [-1.0, 0.5, 1.0]])
    assert np.array_equal(prof.costs, [[1.0, 0.0, 1.0], [1.5, 0.0, 0.5]])
    assert np.array_equal(prof.base_cost, [0.0, 0.0])
    assert np.array_equal(prof.witness([0, 2]), [[-1.0], [1.0]])
    assert np.array_equal(prof.witness([1, 1]), [[0.0], [0.5]])


def test_profile_zero_cost_at_own_score():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        lo = rng.normal(size=n)
        hi = lo + rng.uniform(0.2, 2.0, size=n)
        box = BoxRegion(lo, hi, 0)
        refs = rng.uniform(lo, hi, size=(4, n))
        theta = rng.normal(size=n + 1)
        prof = transport_profile(theta, box, refs)
        middle = prof.breakpoints.shape[1] // 2
        own = theta[0] + refs @ theta[1:]
        assert np.allclose(prof.breakpoints[:, middle], own, rtol=0, atol=1e-12)
        assert np.array_equal(prof.costs[:, middle], np.zeros(4))
        assert np.array_equal(prof.anchor, refs)
        assert np.array_equal(prof.base_cost, np.zeros(4))


def test_profile_outside_reference_pays_entry_cost():
    box = BoxRegion(np.array([0.0, 0.0]), np.array([1.0, 1.0]), 1)
    ref = np.array([[2.0, -0.5]])
    theta = np.array([0.0, 1.0, 2.0])
    prof = transport_profile(theta, box, ref)
    assert np.array_equal(prof.anchor, [[1.0, 0.0]])
    assert prof.base_cost[0] == pytest.approx(1.5, abs=1e-15)
    assert np.all(prof.costs >= prof.base_cost[0] - 1e-15)
    anchor_score = theta[0] + prof.anchor[0] @ theta[1:]
    assert prof.breakpoints[0, 2] == pytest.approx(anchor_score, abs=1e-15)
    assert prof.costs[0, 2] == pytest.approx(1.5, abs=1e-12)


def test_profile_shape_and_convexity():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        lo = rng.normal(size=n)
        hi = lo + rng.uniform(0.0, 2.0, size=n)
        box = BoxRegion(lo, hi, 0)
        refs = rng.normal(size=(3, n)) * 0.5 + 0.5 * (lo + hi)
        theta = rng.normal(size=n + 1)
        theta[1 + rng.integers(0, n)] = 0.0  # a dead coordinate is fine
        prof = transport_profile(theta, box, refs)
        live = int(np.count_nonzero(theta[1:]))
        assert prof.breakpoints.shape == prof.costs.shape == (3, 2 * live + 1)
        for bp, cs in zip(prof.breakpoints, prof.costs):
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
        refs = rng.uniform(lo - 0.5, hi + 0.5, size=(3, n))
        theta = rng.normal(size=n + 1)
        prof = transport_profile(theta, box, refs)
        for column in range(prof.breakpoints.shape[1]):
            points = prof.witness(np.full(3, column))
            for k, point in enumerate(points):
                assert box.contains(point, tol=0.0)
                u = prof.breakpoints[k, column]
                score = theta[0] + point @ theta[1:]
                assert score == pytest.approx(u, abs=1e-9 * (1 + abs(u)))
                cost = np.abs(point - refs[k]).sum()
                assert cost == pytest.approx(prof.costs[k, column], abs=1e-9)


def test_profile_constant_score_when_weights_vanish():
    box = BoxRegion(np.array([-1.0, 0.0]), np.array([1.0, 2.0]), 0)
    theta = np.array([0.7, 0.0, 0.0])
    prof = transport_profile(theta, box, np.array([[0.5, 1.0]]))
    assert prof.breakpoints.shape == (1, 1)
    assert prof.breakpoints[0, 0] == pytest.approx(0.7)
    assert prof.costs[0, 0] == 0.0
    assert np.array_equal(prof.witness([0]), [[0.5, 1.0]])


@st.composite
def box_instances(draw):
    """Up to five samples in up to four dimensions, with class boxes that
    need not hold the samples, and a dual point with some zero weights."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 5))

    def vector(size, values):
        return np.array(draw(st.lists(values, min_size=size, max_size=size)))

    features = vector(m * n, st.floats(-3.0, 3.0)).reshape(m, n)
    labels = vector(m, st.integers(0, 1))
    regions = {}
    for label in (0, 1):
        lower = vector(n, st.floats(-2.0, 2.0))
        regions[label] = BoxRegion(lower, lower + vector(n, st.floats(0.0, 2.0)), label)
    theta = vector(n + 1, st.just(0.0) | st.floats(-3.0, 3.0))
    mult = np.append(vector(m, st.floats(-2.0, 5.0)), draw(st.floats(0.0, 3.0)))
    data = ProblemData.assemble(Dataset.from_arrays(features, labels), regions, radius=0.1)
    return data, DualPoint(theta, mult)


def assert_matches_oracle(x, data, points, violations, oracle):
    for i in range(data.m):
        best, _ = oracle(x, i, data)
        assert abs(violations[i] - best) <= 1e-12
        scenario = Scenario(points[i], i, int(data.dataset.labels[i]))
        again = constraint_g(x, i, scenario, data.loss, data.dataset)
        assert abs(violations[i] - again) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(box_instances())
def test_sweep_matches_vertex_enumeration(instance):
    data, x = instance
    points, violations = separate(x, data, np.arange(data.m))
    assert points.shape == (data.m, data.dataset.n)
    for i in range(data.m):
        assert data.region_for_sample(i).contains(points[i], tol=0.0) \
            or np.array_equal(points[i], data.dataset.features[i])
    assert_matches_oracle(x, data, points, violations, vertex_max_violation)


def test_sweep_mixes_a_finite_and_a_box_region():
    rng = np.random.default_rng(5)
    features = rng.normal(size=(8, 3))
    labels = np.array([0, 1, 0, 1, 1, 0, 0, 1])
    regions = {0: FiniteRegion(features[labels == 0][:2] + rng.normal(size=(2, 3)), 0),
               1: BoxRegion(np.full(3, -1.0), np.full(3, 1.5), 1)}
    data = ProblemData.assemble(Dataset.from_arrays(features, labels), regions, radius=0.2)

    def enumerate_finite(x, i, data):
        pts = list(data.region_for_sample(i).points) + [data.dataset.features[i]]
        return max(constraint_g(x, i, Scenario(p, i, int(data.dataset.labels[i])),
                                data.loss, data.dataset) for p in pts), None

    def oracle(x, i, data):
        if isinstance(data.region_for_sample(i), FiniteRegion):
            return enumerate_finite(x, i, data)
        return vertex_max_violation(x, i, data)

    for seed in range(10):
        x = random_dual_point(data, seed)
        points, violations = separate(x, data, np.arange(data.m))
        assert_matches_oracle(x, data, points, violations, oracle)
        # a row's bits do not depend on the block it is separated in
        for i in range(data.m):
            alone = separate(x, data, [i])
            assert np.array_equal(alone[0][0], points[i])
            assert alone[1][0] == violations[i]


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
        assert got.violated == sum(r.violation > 0.0 for r in per)
        assert all(r.violated == int(r.violation > 0.0) for r in per)


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


def test_completion_matches_enumerated_robust_value():
    rng = np.random.default_rng(31)
    instances = [box_problem(s, m=5, n=1 + s % 2, radius=0.2) for s in range(50)]
    instances += [finite_problem(s, m=5, n=2, extra_points=3, radius=0.1)
                  for s in range(10)]
    for data in instances:
        theta = rng.uniform(-3.0, 3.0, size=data.theta_size)
        x = complete(theta, data)
        assert np.array_equal(x.theta, theta)
        assert 0.0 <= x.multipliers[-1] <= data.derived.budget_upper
        assert abs(objective_f(x, data.radius) - enumerated_robust_value(theta, data)) <= 1e-12
        # exactly feasible: no sample's constraint is violated anywhere
        for i in range(data.m):
            assert vertex_max_violation(x, i, data)[0] <= 1e-12
