"""Shared instance factories and brute-force oracles for the test suite."""

import itertools

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
    """A cut pool holding ``scenarios``, added in order."""
    pool = wr.CutPool(data)
    for scenario in scenarios:
        pool.add(scenario)
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


def vertex_max_violation(x, i, data):
    """Exact max of g_i over the sample's box and its own observation.

    On each sign cell of point - sample the L1 distance is linear, so g_i
    is convex there and peaks at a vertex of the cell: every coordinate
    at its lower bound, at the sample clipped to the box, or at its upper
    bound.  Enumerates those 3^n points plus the observation; shares no
    code with the separation module.  Returns (value, argmax point).
    """
    region = data.region_for_sample(i)
    ref = data.dataset.features[i]
    levels = zip(region.lower, np.clip(ref, region.lower, region.upper), region.upper)
    pts = np.array(list(itertools.product(*levels)) + [ref])
    return _best_of(x, i, data, pts)


def _best_of(x, i, data, pts):
    """(max of g_i over the rows of ``pts``, its first argmax)."""
    theta = x.theta
    u = theta[0] + pts @ theta[1:]
    label = int(data.dataset.labels[i])
    sign = 2 * label - 1
    losses = np.logaddexp(0.0, -sign * u)
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


@pytest.fixture
def small_box_data():
    return box_problem(2, m=10, n=2, radius=0.15)


@pytest.fixture
def small_finite_data():
    return finite_problem(0, m=5, n=2, extra_points=3, radius=0.1)
