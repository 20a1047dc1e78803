"""Seeded inputs, operations and correctness checks of the benchmark workloads.

Each workload builds its inputs from the workload seed alone and returns a
``Plan``: the operations of one pass, a check per operation, and the exact
counts each result carries.  Every pass of a run repeats the same inputs,
so those counts must repeat exactly between passes.

Operations call the library through module attributes (``wrlr.fit_wrlr``,
``separation.best_violation``, ...) looked up at call time, so the tracing
wrappers installed at those names see the calls.  Checks use oracles that
do not trust the solver's own report where the paper provides one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from wassrobust import harness, model, reformulate, separation, solvers, wrlr

RADIUS = 0.1
THETA_RADIUS = 10.0
FIT_EPS = 1e-5
FINITE_EPS = 1e-6
FINITE_INSTANCES = 20
CERTIFY_POINTS = 8
EXPERIMENT_ROWS = 150
EXPERIMENT_REPETITIONS = 2


class CheckFailed(Exception):
    """An operation returned a result that fails its correctness check."""


@dataclass
class Plan:
    """One pass of a workload: ``ops[k]()`` runs operation k, ``check(k, result)``
    raises ``CheckFailed`` on a wrong result, and ``counts(k, result)`` gives the
    exact counts carried by the result.

    ``tail_pct`` is the percentile reported as the operation-time tail: the
    highest with at least ten samples beyond it in a 20 s run of the seed
    code, or the median when a run has fewer than 20 operations.  It is
    fixed so that a faster program, which fits more samples into a run, is
    compared at the same percentile.
    """

    ops: list
    check: Callable
    counts: Callable
    tail_pct: float


# ---- seeded generators (same recipes as the test-suite factories) --------
#
# fit_m200, finite_c1 and experiment_m50 relabel one reference input per
# seed instead of drawing a fresh one.  Permuting features, flipping their
# signs and permuting rows is an exact symmetry of the robust problem (a
# symmetric parameter box, per-feature class regions, the L1 ground
# metric), so every seed gives other files and other parameters for the
# same work.  Fresh inputs per seed moved the cost more than any bound
# allows with one to three operations a run: an m=200 fit took 8.0 to
# 10.7 s and an experiment repetition 8.8 to 16.6 s.  Seed 0 is the
# reference input itself.


def blob(seed, m, n):
    """Labelled Gaussian blob: standard normal features, noisy linear labels."""
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(m, n))
    weights = rng.normal(size=n)
    labels = (features @ weights + 0.3 * rng.normal(size=m) > 0).astype(int)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    return model.Dataset.from_arrays(features, labels)


def _symmetry(seed, m, n, permute_rows=True, stream=0):
    """Row order, column order and column signs; seed 0 is the identity."""
    if seed == 0:
        return np.arange(m), np.arange(n), np.ones(n)
    rng = np.random.default_rng([seed, stream])
    rows = rng.permutation(m) if permute_rows else np.arange(m)
    return rows, rng.permutation(n), rng.choice([-1.0, 1.0], size=n)


def symmetric_copy(dataset, seed, permute_rows=True):
    """``dataset`` relabelled by ``seed``; rows stay in place when a caller's
    seeded splits index them."""
    rows, cols, signs = _symmetry(seed, dataset.m, dataset.n, permute_rows)
    return model.Dataset.from_arrays(dataset.features[rows][:, cols] * signs,
                                     dataset.labels[rows])


def box_problem(dataset):
    regions = wrlr.build_regions(dataset)
    return reformulate.ProblemData.assemble(dataset, regions, radius=RADIUS,
                                            theta_radius=THETA_RADIUS)


def finite_problem(k, seed):
    """Criterion 1's finite instance ``k`` (class atoms plus a few perturbed
    copies per class region), relabelled by ``seed``."""
    m, n, extra_points = 3 + k % 3, 1 + k % 3, 1 + (k // 3) % 2
    rng = np.random.default_rng(k)
    dataset = blob(k, m, n)
    features, labels = dataset.features, dataset.labels
    rows, cols, signs = _symmetry(seed, m, n, stream=k)
    regions = {}
    for label in (0, 1):
        own = [features[i] for i in range(m) if labels[i] == label]
        base = own[0] if own else features[0]
        pts = own + [base + 0.5 * rng.normal(size=n) for _ in range(extra_points)]
        regions[label] = model.FiniteRegion(np.array(pts)[:, cols] * signs, label)
    dataset = model.Dataset.from_arrays(features[rows][:, cols] * signs, labels[rows])
    return reformulate.ProblemData.assemble(dataset, regions, radius=RADIUS,
                                            theta_radius=THETA_RADIUS)


def dual_point(data, seed):
    """Strictly interior multipliers with a bounded random theta."""
    rng = np.random.default_rng(seed)
    lower, upper = data.multiplier_box()
    frac = rng.uniform(0.1, 0.9, size=lower.shape)
    mult = lower + frac * (np.minimum(upper, lower + 20.0) - lower)
    theta = rng.uniform(-2.0, 2.0, size=data.theta_size)
    return model.DualPoint(theta, mult)


def write_csv(path, dataset):
    names = [f"x{j}" for j in range(dataset.n)] + ["label"]
    lines = [",".join(names)]
    for row, label in zip(dataset.features, dataset.labels):
        lines.append(",".join([repr(float(v)) for v in row] + [str(int(label))]))
    path.write_text("\n".join(lines) + "\n")


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _solve_counts(trace):
    return {"iterations": trace.iterations, "cut_count": trace.cut_count}


# ---- workloads -------------------------------------------------------------


def fit_m200(seed, workdir):
    """One robust fit of blob 7 (200 x 13), relabelled by the seed, with the
    cutting-surface solver."""
    train = symmetric_copy(blob(7, 200, 13), seed)
    data = box_problem(train)
    nominal = []

    def check(k, fitted):
        trace = fitted.trace
        _require(trace.status == "optimal", f"status {trace.status}")
        _require(trace.final_violation <= FIT_EPS,
                 f"final violation {trace.final_violation} > eps")
        robust = trace.records[-1].best_objective
        _require(robust is not None, "no certified objective")
        if not nominal:
            nominal.append(solvers.solve_nominal(data)[1])
        _require(robust >= nominal[0] - FIT_EPS,
                 f"robust value {robust} below nominal {nominal[0]}")

    return Plan(ops=[lambda: wrlr.fit_wrlr(train, RADIUS, eps=FIT_EPS)],
                check=check, counts=lambda k, fitted: _solve_counts(fitted.trace),
                tail_pct=50.0)


def certify_m2000(seed, workdir):
    """Separation sweeps over 2000 box samples at seeded dual points."""
    data = box_problem(blob(seed, 2000, 13))
    points = [dual_point(data, 1000 * seed + k) for k in range(CERTIFY_POINTS)]
    features, labels = data.dataset.features, data.dataset.labels

    def atom_max(x):
        losses = data.loss.evaluate_many(x.theta, features, labels)
        return float(np.max(losses - x.multipliers[:-1]))

    def check(k, res):
        x = points[k]
        i = res.scenario.sample_index
        g = model.constraint_g(x, i, res.scenario, data.loss, data.dataset)
        _require(abs(res.violation - g) <= 1e-10 * max(1.0, abs(g)),
                 f"violation {res.violation} != constraint_g {g}")
        atoms = atom_max(x)
        _require(res.violation >= atoms - 1e-12,
                 f"violation {res.violation} below zero-cost atom value {atoms}")
        if k == 0:
            loop = max(separation.separate_exact(x, j, data).violation
                       for j in range(data.m))
            _require(abs(res.violation - loop) <= 1e-10 * max(1.0, abs(loop)),
                     f"sweep {res.violation} != per-sample maximum {loop}")

    ops = [lambda x=x: separation.best_violation(x, data) for x in points]
    return Plan(ops=ops, check=check,
                counts=lambda k, res: {"witness_sample": res.scenario.sample_index},
                tail_pct=75.0)


def finite_c1(seed, workdir):
    """Criterion 1's twenty finite-region instances, relabelled by the seed,
    each solved three ways."""
    instances = [finite_problem(k, seed) for k in range(FINITE_INSTANCES)]

    def op(data):
        _, f_star = solvers.solve_full_enumeration(data)
        point_c, trace_c = solvers.solve_cutting_surface(data, FINITE_EPS)
        point_e, trace_e = solvers.solve_exchange(data, FINITE_EPS)
        return f_star, point_c, trace_c, point_e, trace_e

    def check(k, result):
        f_star, point_c, trace_c, point_e, trace_e = result
        radius = instances[k].radius
        for name, point, trace in (("cutting_surface", point_c, trace_c),
                                   ("exchange", point_e, trace_e)):
            _require(trace.status == "optimal", f"{name} status {trace.status}")
            value = model.objective_f(point, radius)
            _require(abs(value - f_star) <= 2 * FINITE_EPS,
                     f"{name} value {value} vs enumeration {f_star}")

    def counts(k, result):
        _, _, trace_c, _, trace_e = result
        return {"cutting_surface": _solve_counts(trace_c),
                "exchange": _solve_counts(trace_e)}

    return Plan(ops=[lambda d=d: op(d) for d in instances], check=check,
                counts=counts, tail_pct=50.0)


def experiment_m50(seed, workdir):
    """``run_experiment`` repetitions on blob 0 (150 x 13), relabelled by the
    seed and written to CSV.  Rows stay in place, so each repetition's
    seeded split picks the same samples for every seed.  A pass is two
    repetitions, with experiment seeds 0 and 1, so that a run times more
    than one."""
    path = workdir / f"experiment_m50_seed{seed}.csv"
    write_csv(path, symmetric_copy(blob(0, EXPERIMENT_ROWS, 13), seed,
                                   permute_rows=False))
    configs = [harness.ExperimentConfig(
        dataset_csv=str(path), label_column="label", train_size=50,
        repetitions=1, radius_grid=(0.0, 0.05, 0.1), eps=FIT_EPS, seed=k,
    ) for k in range(EXPERIMENT_REPETITIONS)]

    def check(k, result):
        for rep in result.repetitions:
            for name in ("auc_lr", "auc_wrlr"):
                value = getattr(rep, name)
                _require(0.0 <= value <= 1.0, f"{name} {value} outside [0, 1]")
        for key, value in result.aggregate.items():
            _require(math.isfinite(value), f"aggregate {key} = {value}")

    def counts(k, result):
        return [{"chosen_radius": rep.chosen_radius,
                 "iterations": rep.outer_iterations, "cut_count": rep.cut_count}
                for rep in result.repetitions]

    return Plan(ops=[lambda c=c: harness.run_experiment(c) for c in configs],
                check=check, counts=counts, tail_pct=50.0)


WORKLOADS = {
    "fit_m200": fit_m200,
    "certify_m2000": certify_m2000,
    "finite_c1": finite_c1,
    "experiment_m50": experiment_m50,
}


def warm_up():
    """Run every layer once on a tiny instance so lazy set-up is not timed."""
    wrlr.fit_wrlr(blob(0, 20, 13), RADIUS, eps=FIT_EPS)
