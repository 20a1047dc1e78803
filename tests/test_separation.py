"""Transport profiles and the separation oracles against brute force."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wassrobust import (
    BoxRegion,
    CandidateTables,
    Dataset,
    DualPoint,
    FiniteRegion,
    ProblemData,
    Scenario,
    constraint_g,
    separate_exact,
    transport_profile,
    best_violation,
    objective_f,
)

from conftest import (
    box_problem,
    enumerated_robust_value,
    finite_problem,
    grid_max_violation,
    random_dual_point,
    vertex_max_violation,
)


def test_profile_single_coordinate_hand_case():
    # label 1's loss rises as the score falls, label 0's as it rises
    refs = np.array([[0.0], [0.5]])
    theta = np.array([0.0, 1.0])
    down = transport_profile(theta, BoxRegion(np.array([-1.0]), np.array([1.0]), 1), refs)
    assert np.array_equal(down.breakpoints, [[0.0, -1.0], [0.5, -1.0]])
    assert np.array_equal(down.costs, [[0.0, 1.0], [0.0, 1.5]])
    assert np.array_equal(down.base_cost, [0.0, 0.0])
    assert np.array_equal(down.witness([1, 1]), [[-1.0], [-1.0]])
    assert np.array_equal(down.witness([0, 0]), [[0.0], [0.5]])
    up = transport_profile(theta, BoxRegion(np.array([-1.0]), np.array([1.0]), 0), refs)
    assert np.array_equal(up.breakpoints, [[0.0, 1.0], [0.5, 1.0]])
    assert np.array_equal(up.costs, [[0.0, 1.0], [0.0, 0.5]])
    assert np.array_equal(up.base_cost, [0.0, 0.0])
    assert np.array_equal(up.witness([1, 1]), [[1.0], [1.0]])
    assert np.array_equal(up.witness([0, 1]), [[0.0], [1.0]])


def test_profile_zero_cost_at_own_score():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        lo = rng.normal(size=n)
        hi = lo + rng.uniform(0.2, 2.0, size=n)
        refs = rng.uniform(lo, hi, size=(4, n))
        theta = rng.normal(size=n + 1)
        own = theta[0] + refs @ theta[1:]
        for label in (0, 1):
            prof = transport_profile(theta, BoxRegion(lo, hi, label), refs)
            # the anchor is the first column
            assert np.allclose(prof.breakpoints[:, 0], own, rtol=0, atol=1e-12)
            assert np.array_equal(prof.costs[:, 0], np.zeros(4))
            assert np.array_equal(prof.anchor, refs)
            assert np.array_equal(prof.base_cost, np.zeros(4))


def test_profile_outside_reference_pays_entry_cost():
    ref = np.array([[2.0, -0.5]])
    theta = np.array([0.0, 1.0, 2.0])
    for label in (0, 1):
        box = BoxRegion(np.array([0.0, 0.0]), np.array([1.0, 1.0]), label)
        prof = transport_profile(theta, box, ref)
        assert np.array_equal(prof.anchor, [[1.0, 0.0]])
        assert prof.base_cost[0] == pytest.approx(1.5, abs=1e-15)
        assert np.all(prof.costs >= prof.base_cost[0] - 1e-15)
        anchor_score = theta[0] + prof.anchor[0] @ theta[1:]
        assert prof.breakpoints[0, 0] == pytest.approx(anchor_score, abs=1e-15)
        assert prof.costs[0, 0] == pytest.approx(1.5, abs=1e-12)


def test_profile_shape_and_convexity():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        lo = rng.normal(size=n)
        hi = lo + rng.uniform(0.0, 2.0, size=n)
        refs = rng.normal(size=(3, n)) * 0.5 + 0.5 * (lo + hi)
        theta = rng.normal(size=n + 1)
        theta[1 + rng.integers(0, n)] = 0.0  # a dead coordinate is fine
        up = transport_profile(theta, BoxRegion(lo, hi, 0), refs)
        down = transport_profile(theta, BoxRegion(lo, hi, 1), refs)
        live = int(np.count_nonzero(theta[1:]))
        for half, rises in ((up, 1.0), (down, -1.0)):
            assert half.breakpoints.shape == half.costs.shape == (3, live + 1)
            # the score moves one way and the cost rises, column by column
            assert np.all(rises * np.diff(half.breakpoints, axis=1) >= -1e-12)
            assert np.all(np.diff(half.costs, axis=1) >= 0.0)
        # both halves, joined at the anchor, make the whole convex profile
        for k in range(3):
            bp = np.concatenate([down.breakpoints[k, :0:-1], up.breakpoints[k]])
            cs = np.concatenate([down.costs[k, :0:-1], up.costs[k]])
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
    points, violations = CandidateTables(x.theta, data).separate(x.multipliers)
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
        points, violations = CandidateTables(x.theta, data).separate(x.multipliers)
        assert_matches_oracle(x, data, points, violations, oracle)
        # a row's bits do not depend on the block it is separated in
        for i in range(data.m):
            alone = CandidateTables(x.theta, data, [i]).separate(x.multipliers)
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
        x = CandidateTables(theta, data).complete()
        assert np.array_equal(x.theta, theta)
        assert 0.0 <= x.multipliers[-1] <= data.derived.budget_upper
        assert abs(objective_f(x, data.radius) - enumerated_robust_value(theta, data)) <= 1e-12
        # exactly feasible: no sample's constraint is violated anywhere
        for i in range(data.m):
            assert vertex_max_violation(x, i, data)[0] <= 1e-12


def two_sided_profile(theta, region, ref):
    """One sample's whole transport profile, both directions: the scores,
    costs and box points of its n' moves down (farthest first), the
    anchor, then its n' moves up, and the slice of the moves that lower
    the loss.  Written coordinate by coordinate; it shares no code with
    ``transport_profile``, but sums in the same order, so its bits match.
    """
    w = theta[1:]
    anchor = np.clip(ref, region.lower, region.upper)
    base = float(np.sum(np.abs(anchor - ref)))
    score = theta[0] + np.einsum("ij,j->i", anchor[None, :], w)[0]
    order = sorted(np.flatnonzero(w), key=lambda j: -abs(w[j]))
    sides = {}
    for way in (1.0, -1.0):
        u, c, z = score, base, anchor.copy()
        column = []
        for j in order:
            face = region.upper[j] if (w[j] > 0.0) == (way > 0.0) else region.lower[j]
            move = abs(face - anchor[j])
            u, c = u + way * (abs(w[j]) * move), c + move
            z[j] = face
            column.append((u, c, z.copy()))
        sides[way] = column
    columns = sides[-1.0][::-1] + [(score, base, anchor)] + sides[1.0]
    scores, costs, points = (np.array(part) for part in zip(*columns))
    lowering = slice(len(order) + 1, None) if region.label == 1 else slice(0, len(order))
    return scores, costs, points, lowering


@pytest.mark.parametrize("m", [50, 200])
def test_half_profiles_drop_only_columns_that_cannot_win(m):
    rng = np.random.default_rng(m)
    for seed in range(3):
        # mean +/- one sd class boxes: most samples lie outside their box
        data = box_problem(seed + 900, m=m, n=13, radius=0.1)
        x = random_dual_point(data, seed)
        theta = x.theta.copy()
        theta[1 + rng.choice(13, size=3, replace=False)] = 0.0
        refs, labels = data.dataset.features, data.dataset.labels
        tables = CandidateTables(theta, data)
        completion = tables.complete()
        beta = completion.multipliers[-1]
        atoms = data.loss.link_loss(theta[0] + np.einsum("ij,j->i", refs, theta[1:]), labels)
        mult = x.multipliers
        points, violations = tables.separate(mult)
        want_points = np.empty_like(points)
        envelope = np.empty(m)
        lowest, highest = np.empty(m), np.empty(m)
        for i in range(m):
            region, label = data.region_for_sample(i), int(labels[i])
            scores, costs, pts, lowering = two_sided_profile(theta, region, refs[i])
            values = data.loss.link_loss(scores, label)
            anchor = scores.size // 2
            for budget in (0.0, beta, mult[-1]):
                g = values - mult[i] - budget * costs
                assert np.all(g[lowering] <= g[anchor])
            want_points[i] = pts[np.argmax(values - mult[i] - mult[-1] * costs)]
            g = np.append(values, atoms[i]) - beta * np.append(costs, 0.0)
            envelope[i] = g.max()
            near = g >= envelope[i] - 1e-12
            lowest[i] = np.append(costs, 0.0)[near].min()
            highest[i] = np.append(costs, 0.0)[near].max()

        want = (data.loss.link_loss(theta[0] + np.einsum("ij,j->i", want_points, theta[1:]),
                                    labels)
                - mult[:-1] - mult[-1] * np.sum(np.abs(want_points - refs), axis=1))
        stay = atoms - mult[:-1] > want
        want_points[stay] = refs[stay]
        assert np.array_equal(points, want_points)
        assert np.array_equal(violations, np.where(stay, atoms - mult[:-1], want))
        assert np.array_equal(completion.multipliers[:-1], envelope)
        # beta minimizes J: its slope, radius minus the mean active cost,
        # changes sign at beta over the whole table
        if beta > 0.0:
            assert data.radius - highest.mean() <= 1e-12
        if beta < data.derived.budget_upper:
            assert data.radius - lowest.mean() >= -1e-12
