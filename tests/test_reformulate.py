"""Derived constants and the three program builders."""

import math

import numpy as np
import pytest
import scipy.optimize

from wassrobust import (
    BoxRegion,
    Dataset,
    FiniteRegion,
    LogisticLoss,
    ProblemData,
    Scenario,
    derive_constants,
    objective_f,
)
from wassrobust import convex
from wassrobust.solvers import solve_nominal
from wassrobust.reformulate import (
    build_enumeration,
    build_exchange_master,
    build_master,
    enumeration_cuts,
    exchange_interior_point,
    master_interior_point,
    split_dual_solution,
    split_master_solution,
)

from conftest import box_problem


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
    assert der.transport_diameter == 0.0
    # radius branch wins: sqrt(1 + 1 + 1) over sqrt(grad^2 + 0 + 1)
    assert der.centering_bound == pytest.approx(math.sqrt(3.0), abs=1e-12)
    assert der.objective_cap == pytest.approx(c2 + 1.0, abs=1e-12)
    assert der.multiplier_upper == pytest.approx(2.0 * c2 - c1, abs=1e-12)
    assert der.budget_upper == pytest.approx(c2 - c1, abs=1e-12)
    assert der.rate_bound == pytest.approx(1.0 - 1.0 / (2.0 * math.sqrt(3.0) + 1.0),
                                           abs=1e-15)
    assert der.feature_lipschitz == 10.0


def test_centering_bound_takes_the_larger_branch():
    # wide region: the gradient/diameter branch dominates the radius branch
    ds = Dataset.from_arrays(np.array([[0.0], [4.0]]), [1, 1])
    regions = {1: BoxRegion(np.array([-4.0]), np.array([4.0]), 1)}
    data = ProblemData.assemble(ds, regions, radius=0.1)
    der = data.derived
    grad = math.sqrt(1.0 + 16.0) + 1e-6
    diam = 8.0  # farthest box point from the sample at 0
    assert der.transport_diameter == diam
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


def test_assemble_validation():
    ds = Dataset.from_arrays(np.array([[0.0]]), [1])
    regions = {1: BoxRegion(np.array([0.0]), np.array([0.0]), 1)}
    with pytest.raises(ValueError, match="positive width"):
        ProblemData.assemble(ds, regions, radius=0.5,
                             theta_lower=np.zeros(2), theta_upper=np.zeros(2))
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

    Rows: softplus(-t0) - v1 + Bw <= 0, f - t + Bw <= 0, t + w <= cap.
    Pushing theta0 to its box top and balancing the rows gives
    w* = (cap - C1) / (1 + 2B).
    """
    data = one_point_problem()
    der = data.derived
    cut = Scenario(np.array([0.0]), 0, 1)
    cap = der.objective_cap
    program = build_master(data, [cut], cap)
    report = convex.solve(program, x0=master_interior_point(data, [cut], cap))
    assert report.status == convex.OPTIMAL
    expected = (cap - der.loss_lower) / (1.0 + 2.0 * der.centering_bound)
    assert report.objective == pytest.approx(expected, rel=1e-6)
    point, margin, level = split_master_solution(data, report.solution)
    assert margin == pytest.approx(report.objective, abs=1e-12)
    assert point.theta.size == 2 and point.multipliers.size == 2


def test_exchange_hand_optimum_single_atom_cut():
    data = one_point_problem()
    cut = Scenario(np.array([0.0]), 0, 1)
    program = build_exchange_master(data, [cut])
    report = convex.solve(program, x0=exchange_interior_point(data))
    assert report.status == convex.OPTIMAL
    point = split_dual_solution(data, report.solution)
    # best play: push theta0 up, pay v1 = softplus(-10), spend no budget
    assert objective_f(point, data.radius) == pytest.approx(
        data.derived.loss_lower, abs=1e-6)
    assert point.budget_multiplier == pytest.approx(0.0, abs=1e-5)


def test_master_cap_validation():
    data = one_point_problem()
    cut = Scenario(np.array([0.0]), 0, 1)
    with pytest.raises(ValueError, match="below the loss lower bound"):
        build_master(data, [cut], data.derived.loss_lower - 0.5)
    with pytest.raises(ValueError, match="exceeds"):
        build_master(data, [cut], data.derived.objective_cap + 0.5)


def test_cut_validation_and_anchor_exemption():
    data = box_problem(4, m=6, n=2)
    labels = data.dataset.labels
    i = 0
    region = data.region_for_sample(i)
    good = Scenario(region.clip(data.dataset.features[i] + 100.0), i, int(labels[i]))
    build_exchange_master(data, [good])
    outside = Scenario(region.upper + 1.0, i, int(labels[i]))
    with pytest.raises(ValueError, match="outside"):
        build_exchange_master(data, [outside])
    wrong_label = Scenario(region.clip(np.zeros(2)), i, 1 - int(labels[i]))
    with pytest.raises(ValueError, match="label"):
        build_exchange_master(data, [wrong_label])
    with pytest.raises(ValueError, match="out of range"):
        build_exchange_master(data, [Scenario(np.zeros(2), 99, 0)])
    # the observed sample itself is fine even when it sits outside its box
    feats = data.dataset.features
    for i in range(data.m):
        anchor = Scenario(feats[i], i, int(labels[i]))
        build_exchange_master(data, [anchor])


def test_duplicate_cut_changes_nothing():
    data = box_problem(5, m=8, n=2)
    feats = data.dataset.features
    labels = data.dataset.labels
    cuts = [Scenario(feats[i], i, int(labels[i])) for i in range(4)]
    base = convex.solve(build_exchange_master(data, cuts),
                        x0=exchange_interior_point(data))
    doubled = convex.solve(build_exchange_master(data, cuts + [cuts[0]]),
                           x0=exchange_interior_point(data))
    assert base.status == doubled.status == convex.OPTIMAL
    assert abs(base.objective - doubled.objective) <= 1e-9


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
        cuts = [Scenario(feats[i], i, int(labels[i])) for i in range(data.m)]

        prog = build_exchange_master(data, cuts)
        x0 = exchange_interior_point(data)
        assert np.max(prog.constraint_values(x0)) < 0
        assert np.all(x0 > prog.lower) and np.all(x0 < prog.upper)

        cap = data.derived.objective_cap
        progm = build_master(data, cuts, cap)
        xm = master_interior_point(data, cuts, cap)
        assert np.max(progm.constraint_values(xm)) < 0
        finite_lo = np.isfinite(progm.lower)
        finite_hi = np.isfinite(progm.upper)
        assert np.all(xm[finite_lo] > progm.lower[finite_lo])
        assert np.all(xm[finite_hi] < progm.upper[finite_hi])


def test_enumeration_cuts_cover_atoms_and_respect_budget():
    ds = Dataset.from_arrays(np.array([[0.0], [1.0]]), [0, 1])
    regions = {0: FiniteRegion(np.array([[0.5]]), 0),
               1: FiniteRegion(np.array([[1.0], [2.0]]), 1)}
    data = ProblemData.assemble(ds, regions, radius=0.1)
    cuts = enumeration_cuts(data)
    # sample 0: region point 0.5 plus its own atom 0.0; sample 1: region only
    got = sorted((c.sample_index, float(c.point[0])) for c in cuts)
    assert got == [(0, 0.0), (0, 0.5), (1, 1.0), (1, 2.0)]
    build_enumeration(data)

    big = {0: FiniteRegion(np.ones((10001, 1)) * 0.5, 0),
           1: FiniteRegion(np.array([[1.0]]), 1)}
    data_big = ProblemData.assemble(ds, big, radius=0.1)
    with pytest.raises(ValueError, match="budget|enumeration"):
        enumeration_cuts(data_big)


def test_split_round_trips():
    data = box_problem(8, m=5, n=2)
    dim = data.theta_size + data.m + 1
    vec = np.arange(dim, dtype=float)
    vec[-1] = abs(vec[-1])
    point = split_dual_solution(data, vec)
    assert np.array_equal(point.theta, vec[:data.theta_size])
    assert np.array_equal(point.multipliers, vec[data.theta_size:])

    mvec = np.concatenate([vec, [2.5, -1.25]])
    pt, margin, level = split_master_solution(data, mvec)
    assert np.array_equal(pt.theta, vec[:data.theta_size])
    assert np.array_equal(pt.multipliers, vec[data.theta_size:])
    assert margin == 2.5
    assert level == -1.25
