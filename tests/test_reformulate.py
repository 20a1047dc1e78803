"""Derived constants, the cut pool and the program builders."""

import math

import numpy as np
import pytest
import scipy.optimize

from wassrobust import (
    BoxRegion,
    CutPool,
    Dataset,
    DualPoint,
    FiniteRegion,
    LogisticLoss,
    ProblemData,
    Scenario,
    constraint_g,
    derive_constants,
    objective_f,
)
from wassrobust import convex
from wassrobust.solvers import solve_nominal
from wassrobust.reformulate import (
    build_master,
    enumeration_cuts,
    master_interior_point,
    split_master_solution,
)

from conftest import box_problem, cut_pool, random_dual_point


def one_point_problem(radius=1.0, theta_radius=10.0):
    """Single 1-D sample at the origin whose region is the origin itself."""
    ds = Dataset.from_arrays(np.array([[0.0]]), [1])
    regions = {1: BoxRegion(np.array([0.0]), np.array([0.0]), 1)}
    return ProblemData.assemble(ds, regions, radius=radius,
                                theta_radius=theta_radius)


def test_derived_constants_hand_instance():
    data = one_point_problem()
    der = data.derived
    c1 = math.log1p(math.exp(-10.0))
    c2 = 10.0 + math.log1p(math.exp(-10.0))
    assert der.loss_lower == pytest.approx(c1, abs=1e-15)
    assert der.loss_upper == pytest.approx(c2, abs=1e-15)
    assert der.grad_bound == pytest.approx(1.0 + 1e-6, abs=1e-12)
    assert data.regions[1].max_l1_distance_from(data.dataset.features[0]) == 0.0
    # radius branch wins: sqrt(1 + 1 + 1) over sqrt(grad^2 + 0 + 1)
    assert der.centering_bound == pytest.approx(math.sqrt(3.0), abs=1e-12)
    assert der.objective_cap == pytest.approx(c2 + 1.0, abs=1e-12)
    assert der.multiplier_upper == pytest.approx(2.0 * c2 - c1, abs=1e-12)
    assert der.budget_upper == pytest.approx(c2 - c1, abs=1e-12)
    assert der.rate_bound == pytest.approx(1.0 - 1.0 / (2.0 * math.sqrt(3.0) + 1.0),
                                           abs=1e-15)


def test_centering_bound_takes_the_larger_branch():
    # wide region: the gradient/diameter branch dominates the radius branch
    ds = Dataset.from_arrays(np.array([[0.0], [4.0]]), [1, 1])
    regions = {1: BoxRegion(np.array([-4.0]), np.array([4.0]), 1)}
    data = ProblemData.assemble(ds, regions, radius=0.1)
    der = data.derived
    grad = math.sqrt(1.0 + 16.0) + 1e-6
    diam = 8.0  # farthest box point from the sample at 0
    assert max(regions[1].max_l1_distance_from(x) for x in ds.features) == diam
    assert der.centering_bound == pytest.approx(math.sqrt(grad**2 + diam**2 + 1.0),
                                                abs=1e-12)


def test_derive_constants_validation():
    ds = Dataset.from_arrays(np.array([[0.0]]), [1])
    regions = {1: BoxRegion(np.array([0.0]), np.array([0.0]), 1)}
    loss = LogisticLoss()
    with pytest.raises(ValueError, match="radius"):
        derive_constants(ds, regions, loss, 0.0, np.full(2, -1.0), np.full(2, 1.0))
    with pytest.raises(ValueError, match="no region"):
        derive_constants(ds, {0: regions[1]}, loss, 0.5,
                         np.full(2, -1.0), np.full(2, 1.0))


def test_region_filed_under_another_label_is_rejected():
    ds = Dataset.from_arrays(np.array([[0.0], [1.0]]), [0, 1])
    box = BoxRegion(np.array([-1.0]), np.array([2.0]), 1)
    with pytest.raises(ValueError, match="the region for label 0 carries label 1"):
        ProblemData.assemble(ds, {0: box, 1: box}, radius=0.5)


def test_assemble_validation():
    ds = Dataset.from_arrays(np.array([[0.0]]), [1])
    regions = {1: BoxRegion(np.array([0.0]), np.array([0.0]), 1)}
    for theta_radius in (0.0, -1.0):
        with pytest.raises(ValueError, match=f"theta_radius must be positive, got {theta_radius}"):
            ProblemData.assemble(ds, regions, radius=0.5, theta_radius=theta_radius)
    with pytest.raises(ValueError, match="dimension"):
        bad = {1: BoxRegion(np.zeros(2), np.ones(2), 1)}
        ProblemData.assemble(ds, bad, radius=0.5)


def test_multiplier_box_layout():
    data = box_problem(1, m=6, n=2)
    lower, upper = data.multiplier_box()
    der = data.derived
    assert lower.shape == upper.shape == (7,)
    assert np.all(lower[:-1] == der.loss_lower)
    assert lower[-1] == 0.0
    assert np.all(upper[:-1] == der.multiplier_upper)
    assert upper[-1] == der.budget_upper
    coeffs = data.objective_coefficients()
    assert np.allclose(coeffs[:-1], 1.0 / 6.0)
    assert coeffs[-1] == data.radius


def test_master_hand_optimum_single_atom_cut():
    """With one zero-cost cut the centered master has a closed form.

    Rows: softplus(-t0) - v1 + Bw <= 0, f + (1 + B) w <= cap.
    Pushing theta0 to its box top and balancing the rows gives
    w* = (cap - C1) / (1 + 2B).
    """
    data = one_point_problem()
    der = data.derived
    pool = cut_pool(data, [Scenario(np.array([0.0]), 0, 1)])
    cap = der.objective_cap
    program = build_master(data, pool, cap)
    report = convex.solve(program, x0=master_interior_point(data, pool, cap))
    assert report.status == convex.OPTIMAL
    expected = (cap - der.loss_lower) / (1.0 + 2.0 * der.centering_bound)
    assert report.objective == pytest.approx(expected, rel=1e-6)
    point, margin = split_master_solution(data, report.solution)
    assert margin == pytest.approx(report.objective, abs=1e-12)
    assert point.theta.size == 2 and point.multipliers.size == 2


def test_exchange_hand_optimum_single_atom_cut():
    data = one_point_problem()
    pool = cut_pool(data, [Scenario(np.array([0.0]), 0, 1)])
    program = build_master(data, pool)
    report = convex.solve(program, x0=master_interior_point(data, pool))
    assert report.status == convex.OPTIMAL
    point, margin = split_master_solution(data, report.solution)
    assert margin is None
    # best play: push theta0 up, pay v1 = softplus(-10), spend no budget
    assert objective_f(point, data.radius) == pytest.approx(
        data.derived.loss_lower, abs=1e-6)
    assert point.multipliers[-1] == pytest.approx(0.0, abs=1e-5)


def test_master_cap_validation():
    data = one_point_problem()
    pool = cut_pool(data, [Scenario(np.array([0.0]), 0, 1)])
    with pytest.raises(ValueError, match="below the loss lower bound"):
        build_master(data, pool, data.derived.loss_lower - 0.5)
    with pytest.raises(ValueError, match="exceeds"):
        build_master(data, pool, data.derived.objective_cap + 0.5)


def test_cut_validation_and_anchor_exemption():
    data = box_problem(4, m=6, n=2)
    feats = data.dataset.features
    i = 0
    region = data.region_for_sample(i)
    pool = CutPool(data)
    assert pool.extend([i], [region.clip(feats[i] + 100.0)]) == 1
    with pytest.raises(ValueError, match="outside"):
        pool.extend([i], [region.upper + 1.0])
    for bad in (99, data.m, -1):
        with pytest.raises(ValueError, match=f"index {bad} out of range"):
            pool.extend([bad], [np.zeros(2)])
    with pytest.raises(ValueError, match="shape"):
        pool.extend([i], [np.zeros(3)])
    with pytest.raises(ValueError, match="shape"):
        pool.extend([i, i], [np.zeros(2)])
    assert len(pool) == 1
    # the observed sample itself is fine even when it sits outside its box
    assert pool.extend(np.arange(data.m), feats) == data.m
    assert len(pool) == 1 + data.m


def test_a_bad_cut_anywhere_in_a_block_adds_nothing():
    data = box_problem(4, m=6, n=2)
    feats = data.dataset.features
    pool = cut_pool(data, [Scenario(feats[0], 0, int(data.dataset.labels[0]))])
    before = [pool.samples.copy(), pool.points.copy(), pool.dists.copy()]
    # two admissible new cuts, and one that is not
    fresh = np.array([data.region_for_sample(i).upper for i in (1, 2)])
    outside = data.region_for_sample(3).upper + 1.0
    blocks = [([1, 2, 3], [*fresh, outside]), ([3, 1, 2], [outside, *fresh]),
              ([1, 2, data.m], [*fresh, feats[0]]), ([1, -1, 2], [fresh[0], feats[0], fresh[1]])]
    for samples, points in blocks:
        with pytest.raises(ValueError, match="outside its class region|out of range"):
            pool.extend(samples, np.array(points))
        assert all(np.array_equal(a, b)
                   for a, b in zip(before, [pool.samples, pool.points, pool.dists]))
    # no refused block left its cuts behind as seen
    assert pool.extend([1, 2], fresh) == 2
    assert len(pool) == 3


def test_nominal_hand_instances():
    # single sample at x=1 with label 1: best score is theta0 + theta1 = 4
    ds = Dataset.from_arrays(np.array([[1.0]]), [1])
    regions = {1: BoxRegion(np.array([0.0]), np.array([2.0]), 1)}
    data = ProblemData.assemble(ds, regions, radius=0.5, theta_radius=2.0)
    _, value, report = solve_nominal(data)
    assert report.status == convex.OPTIMAL
    assert value == pytest.approx(math.log1p(math.exp(-4.0)), abs=1e-7)

    # opposing labels at the same point: nothing beats log 2
    ds2 = Dataset.from_arrays(np.array([[0.0], [0.0]]), [1, 0])
    regions2 = {0: BoxRegion(np.array([-1.0]), np.array([1.0]), 0),
                1: BoxRegion(np.array([-1.0]), np.array([1.0]), 1)}
    data2 = ProblemData.assemble(ds2, regions2, radius=0.5, theta_radius=2.0)
    _, value2, _ = solve_nominal(data2)
    assert value2 == pytest.approx(math.log(2.0), abs=1e-7)


def test_nominal_matches_projected_solver_oracle():
    for seed in (0, 1, 2):
        data = box_problem(seed + 30, m=15, n=3)
        feats = data.dataset.features
        signs = 2.0 * data.dataset.labels - 1.0

        def mean_loss(theta):
            u = theta[0] + feats @ theta[1:]
            return float(np.mean(np.logaddexp(0.0, -signs * u)))

        def grad(theta):
            u = theta[0] + feats @ theta[1:]
            coeff = -signs * (1.0 / (1.0 + np.exp(signs * u))) / len(signs)
            return np.concatenate([[coeff.sum()], coeff @ feats])

        bounds = list(zip(data.theta_lower, data.theta_upper))
        ref = scipy.optimize.minimize(mean_loss, np.zeros(data.theta_size),
                                      jac=grad, method="L-BFGS-B",
                                      bounds=bounds, tol=1e-12)
        _, value, report = solve_nominal(data)
        assert report.status == convex.OPTIMAL
        assert value == pytest.approx(ref.fun, abs=1e-5)


def test_interior_points_are_strictly_feasible():
    for seed in range(5):
        data = box_problem(seed + 60, m=10, n=2)
        feats = data.dataset.features
        labels = data.dataset.labels
        pool = cut_pool(data, [Scenario(feats[i], i, int(labels[i]))
                               for i in range(data.m)])

        for cap in (None, data.derived.objective_cap):
            prog = build_master(data, pool, cap)
            x0 = master_interior_point(data, pool, cap)
            assert np.max(prog.evaluate(x0)[0]) < 0
            # the centered master's w is unbounded
            assert np.all(x0 > prog.lower) and np.all(x0 < prog.upper)


def test_plain_start_near_a_point_is_strictly_feasible():
    for seed in range(5):
        data = box_problem(seed + 65, m=10, n=2)
        feats, labels = data.dataset.features, data.dataset.labels
        cuts = [Scenario(feats[i], i, int(labels[i])) for i in range(data.m)]
        cuts += [Scenario(data.region_for_sample(i).upper, i, int(labels[i]))
                 for i in range(0, data.m, 2)]
        pool = cut_pool(data, cuts)
        prog = build_master(data, pool)
        drawn = random_dual_point(data, seed)
        # a theta on the box's face and a budget multiplier at zero are
        # moved inside
        near = DualPoint(np.append(data.theta_upper[0], drawn.theta[1:]),
                         np.append(drawn.multipliers[:-1], 0.0))
        x0 = master_interior_point(data, pool, near=near)
        assert np.max(prog.evaluate(x0)[0]) < 0
        assert np.all(x0 > prog.lower) and np.all(x0 < prog.upper)
        assert np.array_equal(x0[1:data.theta_size], near.theta[1:])
        assert not np.array_equal(x0, master_interior_point(data, pool))
        # the centered start ignores the point
        cap = data.derived.objective_cap
        assert np.array_equal(master_interior_point(data, pool, cap, near=near),
                              master_interior_point(data, pool, cap))


def test_plain_start_near_a_point_falls_back_to_cold():
    # the observation at -1000 lies far outside its region [-1, 1]: at
    # theta = (0, 5) its cut value is about 5000, far above the sample
    # multiplier's upper bound, so the start is the cold one
    ds = Dataset.from_arrays(np.array([[-1000.0]]), [1])
    regions = {1: BoxRegion(np.array([-1.0]), np.array([1.0]), 1)}
    data = ProblemData.assemble(ds, regions, radius=0.1)
    pool = cut_pool(data, [Scenario(np.array([-1000.0]), 0, 1)])
    near = DualPoint(np.array([0.0, 5.0]), np.array([1.0, 1.0]))
    assert np.array_equal(master_interior_point(data, pool, near=near),
                          master_interior_point(data, pool))


def test_enumeration_cuts_cover_atoms_and_respect_budget():
    ds = Dataset.from_arrays(np.array([[0.0], [1.0]]), [0, 1])
    regions = {0: FiniteRegion(np.array([[0.5]]), 0),
               1: FiniteRegion(np.array([[1.0], [2.0]]), 1)}
    data = ProblemData.assemble(ds, regions, radius=0.1)
    pool = enumeration_cuts(data)
    # sample 0: region point 0.5 plus its own atom 0.0; sample 1: region only
    got = sorted(zip(pool.samples.tolist(), pool.points[:, 0].tolist(),
                     pool.dists.tolist()))
    assert got == [(0, 0.0, 0.0), (0, 0.5, 0.5), (1, 1.0, 0.0), (1, 2.0, 1.0)]
    build_master(data, pool)

    big = {0: FiniteRegion(np.ones((10001, 1)) * 0.5, 0),
           1: FiniteRegion(np.array([[1.0]]), 1)}
    data_big = ProblemData.assemble(ds, big, radius=0.1)
    # 10,001 + 1 region points and sample 0's atom, counted before any cut is built
    with pytest.raises(ValueError, match="create 10003 constraints, budget is 10000"):
        enumeration_cuts(data_big)


def test_master_rows_match_constraint_g():
    """Each cut row of both masters, at random points, against
    ``constraint_g``, which shares no code with the row builder."""
    rng = np.random.default_rng(5)
    for seed in range(4):
        data = box_problem(seed + 70, m=8, n=3)
        feats, labels = data.dataset.features, data.dataset.labels
        cuts = []
        for i in range(data.m):
            region = data.region_for_sample(i)
            corner = np.where(rng.random(data.dataset.n) < 0.5, region.lower, region.upper)
            inside = rng.uniform(region.lower, region.upper)
            cuts += [Scenario(p, i, int(labels[i])) for p in (feats[i], corner, inside)]
        pool = cut_pool(data, cuts)
        assert len(pool) == len(cuts)
        plain = build_master(data, pool)
        master = build_master(data, pool, data.derived.objective_cap)
        for k in range(5):
            x = random_dual_point(data, 100 * seed + k)
            w = rng.normal()
            g = np.array([constraint_g(x, c.sample_index, c, data.loss, data.dataset)
                          for c in cuts])
            assert np.allclose(pool.values(x.theta, x.multipliers), g, rtol=0.0, atol=1e-12)
            vec = np.concatenate([x.theta, x.multipliers])
            assert np.allclose(plain.evaluate(vec)[0], g, rtol=0.0, atol=1e-12)
            # the centered master's level row comes first
            got = master.evaluate(np.concatenate([vec, [w]]))[0][1:]
            assert np.allclose(got, g + data.derived.centering_bound * w,
                               rtol=0.0, atol=1e-12)


def test_split_round_trips():
    data = box_problem(8, m=5, n=2)
    dim = data.theta_size + data.m + 1
    vec = np.arange(dim, dtype=float)
    vec[-1] = abs(vec[-1])
    for w, full in ((None, vec), (2.5, np.concatenate([vec, [2.5]]))):
        point, margin = split_master_solution(data, full)
        assert np.array_equal(point.theta, vec[:data.theta_size])
        assert np.array_equal(point.multipliers, vec[data.theta_size:])
        assert margin == w
