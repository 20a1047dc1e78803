"""Logistic loss: values, derivatives, and box bounds."""

import math

import numpy as np
import pytest

from wassrobust import BoxRegion, FiniteRegion, LogisticLoss
from wassrobust.losses import sigmoid, softplus


def test_softplus_matches_naive_in_safe_range():
    z = np.linspace(-30, 30, 201)
    naive = np.log1p(np.exp(z))
    assert np.allclose(softplus(z), naive, rtol=0, atol=1e-12)


def test_softplus_and_sigmoid_extremes_do_not_overflow():
    with np.errstate(over="raise"):
        assert softplus(1000.0) == 1000.0
        assert softplus(-1000.0) == 0.0
        assert sigmoid(np.array(1000.0)) == 1.0
        assert sigmoid(np.array(-1000.0)) == 0.0
        assert sigmoid(np.array(0.0)) == 0.5


def test_loss_value_hand_cases():
    loss = LogisticLoss()
    theta = np.array([0.5, 1.0, -2.0])
    x = np.array([1.0, 0.25])
    # u = 0.5 + 1 - 0.5 = 1
    assert loss.link(theta, x) == pytest.approx(1.0, abs=1e-15)
    assert loss.evaluate(theta, x, 1) == pytest.approx(math.log1p(math.exp(-1.0)), abs=1e-15)
    assert loss.evaluate(theta, x, 0) == pytest.approx(math.log1p(math.exp(1.0)), abs=1e-15)
    # zero score: both labels cost log 2
    assert loss.evaluate(np.zeros(3), x, 1) == pytest.approx(math.log(2.0), abs=1e-15)


def test_evaluate_many_matches_scalar_loop():
    rng = np.random.default_rng(0)
    loss = LogisticLoss()
    theta = rng.normal(size=4)
    pts = rng.normal(size=(20, 3))
    labels = rng.integers(0, 2, size=20)
    batch = loss.evaluate_many(theta, pts, labels)
    for i in range(20):
        assert batch[i] == pytest.approx(loss.evaluate(theta, pts[i], labels[i]), abs=1e-14)


def test_theta_dim_counts_intercept():
    assert LogisticLoss().theta_dim(4) == 5


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(1)
    loss = LogisticLoss()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        theta = rng.normal(size=n + 1) * 2.0
        x = rng.normal(size=n)
        label = int(rng.integers(0, 2))
        grad = loss.subgradient_theta(theta, x, label)
        step = 1e-6
        fd = np.empty(n + 1)
        for j in range(n + 1):
            e = np.zeros(n + 1)
            e[j] = step
            fd[j] = (loss.evaluate(theta + e, x, label)
                     - loss.evaluate(theta - e, x, label)) / (2 * step)
        scale = max(1.0, float(np.linalg.norm(grad)))
        worst = max(worst, float(np.linalg.norm(grad - fd)) / scale)
    assert worst <= 1e-6


def test_bounds_over_hand_value():
    loss = LogisticLoss()
    box = BoxRegion(np.array([-1.0, 0.0]), np.array([1.0, 2.0]), 1)
    lo, hi = loss.bounds_over(np.full(3, -0.5), np.full(3, 0.5), [box])
    # largest coefficient 0.5, farthest box point L1 norm 3 -> |u| <= 2
    assert lo == pytest.approx(math.log1p(math.exp(-2.0)), abs=1e-12)
    assert hi == pytest.approx(math.log1p(math.exp(2.0)), abs=1e-12)


def test_bounds_and_gradient_norm_hold_over_random_draws():
    rng = np.random.default_rng(4)
    loss = LogisticLoss()
    box0 = BoxRegion(np.array([-1.0, -2.0]), np.array([0.5, 0.0]), 0)
    box1 = BoxRegion(np.array([0.0, -0.5]), np.array([2.0, 1.5]), 1)
    lower = np.full(3, -3.0)
    upper = np.full(3, 3.0)
    lo, hi = loss.bounds_over(lower, upper, [box0, box1])
    grad_bound = loss.subgradient_norm_bound(lower, upper, [box0, box1])
    for _ in range(1000):
        theta = rng.uniform(lower, upper)
        label = int(rng.integers(0, 2))
        box = box1 if label else box0
        x = rng.uniform(box.lower, box.upper)
        h = loss.evaluate(theta, x, label)
        assert lo - 1e-12 <= h <= hi + 1e-12
        assert np.linalg.norm(loss.subgradient_theta(theta, x, label)) < grad_bound


def test_bounds_over_accepts_finite_regions():
    loss = LogisticLoss()
    reg = FiniteRegion(np.array([[3.0], [-1.0]]), 0)
    lo, hi = loss.bounds_over(np.full(2, -1.0), np.full(2, 1.0), [reg])
    assert hi == pytest.approx(math.log1p(math.exp(4.0)), abs=1e-12)
    assert lo == pytest.approx(math.log1p(math.exp(-4.0)), abs=1e-12)


def test_feature_lipschitz_bounds_point_perturbations():
    loss = LogisticLoss()
    lower = np.array([-2.0, -0.5, -3.0])
    upper = np.array([2.0, 1.0, 0.25])
    lam = loss.feature_lipschitz(lower, upper)
    assert lam == 3.0  # largest non-intercept coefficient magnitude
    rng = np.random.default_rng(5)
    for _ in range(200):
        theta = rng.uniform(lower, upper)
        a = rng.normal(size=2)
        b = rng.normal(size=2)
        label = int(rng.integers(0, 2))
        gap = abs(loss.evaluate(theta, a, label) - loss.evaluate(theta, b, label))
        assert gap <= lam * np.abs(a - b).sum() + 1e-12


def test_link_loss_derivative_bounded_by_one():
    loss = LogisticLoss()
    u = np.linspace(-50, 50, 1001)
    for label in (0, 1):
        d = loss.link_loss_derivative(u, label)
        # the strict bound saturates to 1.0 in floating point at |u| ~ 40
        assert np.all(np.abs(d) <= 1.0)
        mid = np.abs(u) <= 30
        assert np.all(np.abs(d[mid]) < 1.0)
