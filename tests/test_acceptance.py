"""Acceptance gate: one test per shipping criterion.

Run ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion.  Criterion 9 needs the user-supplied Breast Cancer Wisconsin
CSV at ``data/breast_cancer_wisconsin.csv`` (see the README) and is
skipped when the file is absent; criteria 1-8 and 10 are self-contained.
"""

import functools
import time
from pathlib import Path

import numpy as np
import pytest

import wassrobust as wr
from wassrobust import (
    ExperimentConfig,
    constraint_g,
    emit_results,
    objective_f,
    run_experiment,
)
from wassrobust.losses import softplus, softplus_and_sigmoid
from wassrobust.reformulate import build_master, enumeration_cuts

from conftest import (
    blob_dataset,
    box_problem,
    finite_problem,
    grid_max_violation,
    random_dual_point,
    write_csv,
)

BCW_PATH = Path(__file__).resolve().parents[1] / "data" / "breast_cancer_wisconsin.csv"


@functools.lru_cache(maxsize=1)
def finite_benchmark():
    """Twenty small finite-support instances solved three ways at eps=1e-6.

    Per-class support stays at six points or fewer: at most m-1 = 4 class
    atoms (both labels always occur) plus at most 2 perturbed copies.
    Shared by criteria 1, 5 and 6.
    """
    eps = 1e-6
    out = []
    started = time.perf_counter()
    for seed in range(20):
        m = 3 + seed % 3
        n = 1 + seed % 3
        extra = 1 + (seed // 3) % 2
        data = finite_problem(seed, m=m, n=n, extra_points=extra, radius=0.1)
        _, f_star = wr.solve_full_enumeration(data)
        point_c, trace_c = wr.solve_cutting_surface(data, eps)
        point_e, trace_e = wr.solve_exchange(data, eps)
        out.append((data, f_star, point_c, trace_c, point_e, trace_e))
    elapsed = time.perf_counter() - started
    return out, elapsed, eps


def test_criterion_01_finite_support_equivalence():
    instances, elapsed, eps = finite_benchmark()
    assert len(instances) == 20
    for data, f_star, point_c, trace_c, point_e, trace_e in instances:
        assert trace_c.status == "optimal"
        assert abs(objective_f(point_c, data.radius) - f_star) <= 2 * eps
        assert abs(objective_f(point_e, data.radius) - f_star) <= 2 * eps
    assert elapsed < 120.0
    # Newton steps per master, over both solvers' masters: 22.1 with the
    # adaptive barrier target, 37.5 when it is cut tenfold after every step
    steps = [rec.newton_steps for instance in instances
             for trace in (instance[3], instance[5]) for rec in trace.records]
    assert sum(steps) / len(steps) <= 23.0


def test_criterion_02_separation_matches_grid_oracle():
    started = time.perf_counter()
    for s in range(200):
        n = 1 + s % 3
        data = box_problem(s, m=6, n=n, radius=0.2)
        x = random_dual_point(data, 1000 + s)
        i = s % data.dataset.m
        res = wr.separate_exact(x, i, data)
        grid_val, _ = grid_max_violation(x, i, data, points_per_dim=101)
        region = data.region_for_sample(i)
        spacing = max((region.upper[j] - region.lower[j]) / 100.0
                      for j in range(region.dimension))
        # the objective of the inner maximization is Lipschitz with
        # constant |theta_1:|_1 + budget, so the grid max can trail the
        # true max by at most that constant times the grid spacing
        slack = (np.abs(x.theta[1:]).sum() + x.multipliers[-1]) * spacing + 1e-9
        assert res.violation >= grid_val - 1e-12
        assert res.violation <= grid_val + slack
        witness = constraint_g(x, i, res.scenario, data.loss, data.dataset)
        assert abs(witness - res.violation) <= 1e-10
    assert time.perf_counter() - started < 60.0


def test_criterion_03_vanishing_radius_recovers_empirical_fit():
    started = time.perf_counter()
    for seed in range(10):
        data = box_problem(100 + seed, m=20, n=4, radius=1e-6)
        _, empirical_value, _ = wr.solve_nominal(data)
        point, trace = wr.solve_cutting_surface(data, 1e-6)
        assert trace.status == "optimal"
        robust_value = objective_f(point, data.radius)
        # the loss is Lipschitz in the point, under the L1 ground metric,
        # with constant |theta_1:|_inf, at most the parameter box's radius
        theta_radius = np.maximum(np.abs(data.theta_lower[1:]),
                                  np.abs(data.theta_upper[1:])).max()
        tol = theta_radius * 1e-6 + 2e-6
        assert abs(robust_value - empirical_value) <= tol
    assert time.perf_counter() - started < 120.0


def test_criterion_04_objective_monotone_in_radius():
    grid = (0.01, 0.05, 0.1, 0.5, 1.0)
    for seed in range(5):
        values = []
        for radius in grid:
            data = box_problem(200 + seed, m=8, n=2, radius=radius)
            point, trace = wr.solve_cutting_surface(data, 1e-7)
            assert trace.status == "optimal"
            values.append(objective_f(point, data.radius))
        for smaller, larger in zip(values, values[1:]):
            assert larger >= smaller - 1e-6


def test_criterion_05_gap_contraction_rate():
    instances, _, _ = finite_benchmark()
    for data, f_star, _, trace_c, _, _ in instances:
        bound = data.derived.rate_bound + 1e-6
        bests = []
        for rec in trace_c.records:
            if rec.best_objective is not None:
                if not bests or rec.best_objective < bests[-1] - 1e-15:
                    bests.append(rec.best_objective)
        gaps = [b - f_star for b in bests if b - f_star > 1e-9]
        for prev, new in zip(gaps, gaps[1:]):
            assert new / prev <= bound


def test_criterion_06_exchange_finite_termination():
    instances, _, eps = finite_benchmark()
    for _, _, _, _, _, trace_e in instances:
        assert trace_e.status != "iteration_limit"
        assert trace_e.final_violation is not None
        assert trace_e.final_violation <= eps


def fd_jacobian(values, x, h=1e-6):
    rows = values(x).size
    jac = np.zeros((rows, x.size))
    for j in range(x.size):
        step = np.zeros(x.size)
        step[j] = h
        jac[:, j] = (values(x + step) - values(x - step)) / (2 * h)
    return jac


def test_criterion_07_gradients_match_finite_differences():
    rng = np.random.default_rng(12)
    loss = wr.LogisticLoss()

    # the loss's derivative as the masters take it, the sigmoid from
    # softplus_and_sigmoid, against differences of softplus at the cut
    # scores of 100 random (theta, point, label) draws
    for _ in range(100):
        n = int(rng.integers(1, 5))
        theta = rng.normal(size=n + 1)
        point = rng.normal(size=n)
        label = int(rng.integers(0, 2))
        score = -(2.0 * label - 1.0) * loss.link(theta, point)
        _, sig = softplus_and_sigmoid(score)
        fd = fd_jacobian(softplus, np.array([score]))[0, 0]
        assert abs(fd - sig) <= 1e-6

    # J dx of both master programs against differences of their row
    # values, at interior points along every coordinate
    data = finite_problem(3, m=4, n=2, extra_points=2, radius=0.1)
    cuts = enumeration_cuts(data)
    programs = [build_master(data, cuts, cap) for cap in (data.derived.objective_cap, None)]
    checks = 0
    for program in programs:
        lower = np.where(np.isfinite(program.lower), program.lower, -5.0)
        upper = np.minimum(
            np.where(np.isfinite(program.upper), program.upper, lower + 10.0),
            lower + 30.0,
        )
        for _ in range(10):
            x = lower + rng.uniform(0.2, 0.8, size=lower.size) * (upper - lower)
            _, sig = program.evaluate(x)
            jac = np.array([program.times(sig, e) for e in np.eye(x.size)]).T
            fd = fd_jacobian(lambda v: program.evaluate(v)[0], x)
            rel = np.abs(fd - jac).max() / max(1.0, np.abs(jac).max())
            assert rel <= 1e-6
            checks += 1
    assert checks >= 20


def test_criterion_08_desk_scale_iteration_counts():
    for n in (4, 13):
        train = blob_dataset(7 + n, 50, n)
        started = time.perf_counter()
        model = wr.fit_wrlr(train, 0.1, eps=1e-5)
        elapsed = time.perf_counter() - started
        trace = model.trace
        assert trace.status == "optimal"
        assert 4 <= trace.iterations <= 100
        assert 50 <= trace.cut_count <= 60 * 50
        assert elapsed < 120.0


def test_criterion_09_breast_cancer_benchmark():
    if not BCW_PATH.exists():
        pytest.skip(f"user-supplied dataset not found at {BCW_PATH}")
    config = ExperimentConfig(
        dataset_csv=str(BCW_PATH),
        label_column="label",
        train_size=50,
        repetitions=30,
        seed=0,
    )
    result = run_experiment(config)
    agg = result.aggregate
    assert 0.94 <= agg["mean_auc_lr"] <= 0.995
    assert agg["mean_diff"] > 0.0
    assert agg["p_value_paired"] < 0.05


def test_criterion_10_seeded_runs_reproduce_files(tmp_path):
    train = blob_dataset(23, 30, 2)
    csv_path = tmp_path / "train.csv"
    write_csv(csv_path, np.asarray(train.features), np.asarray(train.labels))
    config = ExperimentConfig(
        dataset_csv=str(csv_path),
        label_column="label",
        train_size=15,
        repetitions=2,
        radius_grid=(0.0, 0.05),
        eps=1e-4,
        seed=9,
        capture_timing=False,
    )
    outputs = []
    for tag in ("first", "second"):
        result = run_experiment(config)
        csv_out = tmp_path / f"{tag}.csv"
        json_out = tmp_path / f"{tag}.json"
        emit_results(result, csv_out, json_out)
        outputs.append((csv_out.read_bytes(), json_out.read_bytes()))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
