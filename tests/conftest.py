"""Shared instance factories and brute-force oracles for the test suite."""

import csv
import dataclasses
import itertools
import json

import numpy as np
import pytest

import wassrobust as wr


def blob_dataset(seed, m, n, scale=1.0, flip=0.3):
    """Linearly separable-ish labelled Gaussian blob with a fixed seed."""
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(m, n)) * scale
    weights = rng.normal(size=n)
    labels = (features @ weights + flip * rng.normal(size=m) > 0).astype(int)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    return wr.Dataset.from_arrays(features, labels)


def box_problem(seed, m=12, n=3, radius=0.2, theta_radius=10.0):
    """Random box-region instance (per-class mean +/- sd boxes)."""
    dataset = blob_dataset(seed, m, n)
    regions = wr.build_regions(dataset)
    return wr.ProblemData.assemble(dataset, regions, radius=radius,
                                   theta_radius=theta_radius)


def finite_problem(seed, m=5, n=2, extra_points=4, radius=0.1,
                   theta_radius=10.0):
    """Random finite-support instance; class regions hold the class atoms
    plus a few perturbed copies so full enumeration stays small."""
    rng = np.random.default_rng(seed)
    dataset = blob_dataset(seed, m, n)
    features = dataset.features
    labels = dataset.labels
    regions = {}
    for label in (0, 1):
        own = [features[i] for i in range(m) if labels[i] == label]
        base = own[0] if own else features[0]
        pts = own + [base + 0.5 * rng.normal(size=n)
                     for _ in range(extra_points)]
        regions[label] = wr.FiniteRegion(np.array(pts), label)
    return wr.ProblemData.assemble(dataset, regions, radius=radius,
                                   theta_radius=theta_radius)


def cut_pool(data, scenarios):
    """A cut pool holding ``scenarios``, added in order by one ``extend``."""
    pool = wr.CutPool(data)
    pool.extend([sc.sample_index for sc in scenarios],
                np.reshape([sc.point for sc in scenarios], (len(scenarios), data.dataset.n)))
    return pool


def random_dual_point(data, seed):
    """Strictly interior multiplier draw with a bounded random theta."""
    rng = np.random.default_rng(seed)
    lower, upper = data.multiplier_box()
    frac = rng.uniform(0.1, 0.9, size=lower.shape)
    mult = lower + frac * (np.minimum(upper, lower + 20.0) - lower)
    theta = rng.uniform(-2.0, 2.0, size=data.theta_size)
    return wr.DualPoint(theta, mult)


def grid_max_violation(x, i, data, points_per_dim=101, include_atom=True):
    """Brute-force max of g_i over a regular grid of the sample's box.

    Vectorised over the whole grid; independent of the separation module.
    The observed sample itself is part of the candidate set (it costs
    nothing to leave a sample in place) unless ``include_atom`` is off.
    Returns (value, argmax point).
    """
    region = data.region_for_sample(i)
    axes = [np.linspace(region.lower[j], region.upper[j], points_per_dim)
            for j in range(region.dimension)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=1)
    if include_atom:
        pts = np.vstack([pts, data.dataset.features[i][None, :]])
    return _best_of(x, i, data, pts)


def vertex_points(data, i):
    """Sample i's candidate points: the vertices of the sign cells of
    point - sample in its box, then the observation itself.

    On each sign cell the L1 distance is linear, so for any convex loss
    of the point the constraint peaks at a vertex of the cell: every
    coordinate at its lower bound, at the sample clipped to the box, or
    at its upper bound.  Shares no code with the separation module.
    """
    region = data.region_for_sample(i)
    ref = data.dataset.features[i]
    levels = zip(region.lower, np.clip(ref, region.lower, region.upper), region.upper)
    return np.array(list(itertools.product(*levels)) + [ref])


def candidate_points(data, i):
    """``vertex_points`` for a box region; for a finite one, the region's
    points then the observation."""
    region = data.region_for_sample(i)
    if isinstance(region, wr.FiniteRegion):
        return np.vstack([region.points, data.dataset.features[i]])
    return vertex_points(data, i)


def vertex_max_violation(x, i, data):
    """Exact max of g_i over the sample's region and its own observation,
    by enumerating its ``candidate_points``.  Returns (value, argmax
    point)."""
    return _best_of(x, i, data, candidate_points(data, i))


def point_losses(theta, i, data, pts):
    """Sample i's logistic loss at each row of ``pts``."""
    u = theta[0] + pts @ theta[1:]
    sign = 2 * int(data.dataset.labels[i]) - 1
    return np.logaddexp(0.0, -sign * u)


def enumerated_robust_value(theta, data):
    """J(theta) = min over beta in [0, budget_upper] of beta * radius plus
    the mean over samples of max_z (loss(z) - beta * |z - x_i|_1), by
    enumeration.

    z runs over ``candidate_points``.  Each sample's maximum
    is the upper envelope of one line per point, so J is piecewise
    linear with its kinks where two of a sample's lines cross; it is
    evaluated at beta = 0, at budget_upper and at every such crossing
    inside.  Shares no code with the separation module.
    """
    lines = []
    for i in range(data.m):
        pts = candidate_points(data, i)
        costs = np.abs(pts - data.dataset.features[i]).sum(axis=1)
        lines.append((point_losses(theta, i, data, pts), costs))
    upper = data.derived.budget_upper
    betas = [0.0, upper]
    for losses, costs in lines:
        for a, b in itertools.combinations(range(costs.size), 2):
            if costs[a] != costs[b]:
                beta = (losses[a] - losses[b]) / (costs[a] - costs[b])
                if 0.0 < beta < upper:
                    betas.append(beta)
    return min(beta * data.radius + np.mean([np.max(losses - beta * costs)
                                             for losses, costs in lines])
               for beta in betas)


def _best_of(x, i, data, pts):
    """(max of g_i over the rows of ``pts``, its first argmax)."""
    losses = point_losses(x.theta, i, data, pts)
    dist = np.abs(pts - data.dataset.features[i]).sum(axis=1)
    vals = losses - x.multipliers[i] - x.multipliers[-1] * dist
    best = int(np.argmax(vals))
    return float(vals[best]), pts[best]


def write_csv(path, features, labels, label_name="label"):
    """Plain CSV writer with full-precision floats, independent of Dataset."""
    m, n = features.shape
    names = [f"x{j}" for j in range(n)] + [label_name]
    lines = [",".join(names)]
    for i in range(m):
        vals = [repr(float(v)) for v in features[i]] + [str(int(labels[i]))]
        lines.append(",".join(vals))
    path.write_text("\n".join(lines) + "\n")


def write_config(config, path):
    """Write an ``ExperimentConfig`` as the JSON file ``from_json`` reads."""
    path.write_text(json.dumps(dataclasses.asdict(config), indent=2) + "\n")


def read_results(csv_path, json_path):
    """The rows of a results CSV, as dicts of strings, and the JSON payload."""
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return rows, json.loads(json_path.read_text())


@pytest.fixture
def small_box_data():
    return box_problem(2, m=10, n=2, radius=0.15)


@pytest.fixture
def small_finite_data():
    return finite_problem(0, m=5, n=2, extra_points=3, radius=0.1)
