"""Reformulation of the robust training problem into convex programs.

The robust problem is solved through its dual: minimize the averaged
per-sample multipliers plus radius times the budget multiplier, subject
to one constraint per (sample, admissible point) pair.  This module
derives the constants that make that dual well posed (multiplier boxes,
the strict objective cap, the centering coefficient), keeps the cut
pool, and assembles from it the finite master programs the iterative
solvers need:

* the plain master, ``build_master(data, pool)``: minimize the dual
  objective under a finite cut set; over the m zero-cost cuts at the
  observed samples it is the nominal problem (no perturbation), whose
  optimum is the average training loss,
* the centered master, ``build_master(data, pool, cap)``: maximize the
  feasibility margin ``w`` under the same cuts plus a level constraint
  on the objective,
* the fully enumerated dual for finite regions, used as an oracle: the
  plain master over the pool of every (sample, region point) pair.

``master_interior_point`` gives either master a strictly feasible
start, and ``split_master_solution`` reads either one's solution back.

Variable layouts, in order:
    plain master       [theta, multipliers]
    centered master    [theta, multipliers, w]
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convex import MasterProgram
from .losses import LogisticLoss
from .model import Dataset, DualPoint, FiniteRegion

__all__ = [
    "DerivedConstants",
    "ProblemData",
    "CutPool",
    "derive_constants",
    "build_master",
    "enumeration_cuts",
    "master_interior_point",
    "split_master_solution",
]

ENUMERATION_BUDGET = 10_000


@dataclass(frozen=True)
class DerivedConstants:
    """Bounds derived from the data that shape the dual feasible set.

    loss_lower / loss_upper     range of the loss over parameters and regions
    grad_bound                  strict bound on the loss gradient norm in theta
    centering_bound             Lipschitz-type constant used by the centered master
    objective_cap               strict upper bound on the optimal dual value
    multiplier_upper            upper box bound for the per-sample multipliers
    budget_upper                upper box bound for the budget multiplier
    rate_bound                  guaranteed per-improvement contraction factor
    """

    loss_lower: float
    loss_upper: float
    grad_bound: float
    centering_bound: float
    objective_cap: float
    multiplier_upper: float
    budget_upper: float
    rate_bound: float


def derive_constants(dataset, regions, loss, radius, theta_lower, theta_upper):
    if radius <= 0:
        raise ValueError("radius must be positive")
    labels_present = set(int(l) for l in dataset.labels)
    for label in labels_present:
        if label not in regions:
            raise ValueError(f"no region supplied for label {label}")
        # the separation oracle reads the loss's direction off the region
        if regions[label].label != label:
            raise ValueError(f"the region for label {label} carries label "
                             f"{regions[label].label}")
    used = [regions[label] for label in sorted(labels_present)]
    lo, hi = loss.bounds_over(theta_lower, theta_upper, used)
    if not hi > lo:
        raise ValueError("loss is constant over the parameter box and regions; "
                         "the multiplier box would be degenerate")
    grad_bound = loss.subgradient_norm_bound(theta_lower, theta_upper, used)
    diameter = max(
        regions[int(lab)].max_l1_distance_from(feat)
        for feat, lab in zip(dataset.features, dataset.labels)
    )
    m = dataset.m
    centering = max(
        np.sqrt(radius**2 + 1.0 + 1.0 / m),
        np.sqrt(grad_bound**2 + diameter**2 + 1.0),
    )
    return DerivedConstants(
        loss_lower=float(lo),
        loss_upper=float(hi),
        grad_bound=float(grad_bound),
        centering_bound=float(centering),
        objective_cap=float(hi + 1.0),
        multiplier_upper=float((m + 1) * hi - m * lo),
        budget_upper=float((hi - lo) / radius),
        rate_bound=float(1.0 - 1.0 / (2.0 * centering + 1.0)),
    )


@dataclass(frozen=True)
class ProblemData:
    """Everything a solver needs: data, regions, loss, radius, boxes, constants."""

    dataset: Dataset
    regions: dict
    loss: object
    radius: float
    theta_lower: np.ndarray
    theta_upper: np.ndarray
    derived: DerivedConstants

    @classmethod
    def assemble(cls, dataset, regions, radius, theta_radius=10.0):
        """Build problem data for the logistic loss over the parameter box
        [-theta_radius, theta_radius] in every coordinate."""
        if not theta_radius > 0:
            raise ValueError(f"theta_radius must be positive, got {theta_radius}")
        loss = LogisticLoss()
        dim = loss.theta_dim(dataset.n)
        theta_lower = np.full(dim, -float(theta_radius))
        theta_upper = np.full(dim, float(theta_radius))
        for region in regions.values():
            if region.dimension != dataset.n:
                raise ValueError("region dimension does not match dataset")
        derived = derive_constants(dataset, regions, loss, radius, theta_lower, theta_upper)
        return cls(dataset, dict(regions), loss, float(radius),
                   theta_lower, theta_upper, derived)

    @property
    def theta_size(self):
        return self.theta_lower.size

    @property
    def m(self):
        return self.dataset.m

    def region_for_sample(self, i):
        return self.regions[int(self.dataset.labels[i])]

    def multiplier_box(self):
        m = self.m
        lower = np.concatenate([np.full(m, self.derived.loss_lower), [0.0]])
        upper = np.concatenate(
            [np.full(m, self.derived.multiplier_upper), [self.derived.budget_upper]]
        )
        return lower, upper

    def objective_coefficients(self):
        """Gradient of the dual objective in [multipliers] coordinates."""
        m = self.m
        return np.concatenate([np.full(m, 1.0 / m), [self.radius]])


class CutPool:
    """The cuts of one problem, stored as row-aligned arrays.

    Cut j belongs to sample ``samples[j]``, sits at ``points[j]`` and
    lies at L1 distance ``dists[j]`` from that sample's features.  The
    pool only grows, a block of cuts at a time, and a cut is checked
    once, when its block is added.  Two cuts are duplicates when they
    belong to the same sample and their points agree after rounding to
    ten decimal places.
    """

    def __init__(self, data):
        self.data = data
        self.samples = np.empty(0, dtype=int)
        self.points = np.empty((0, data.dataset.n))
        self.dists = np.empty(0)
        self._keys = set()

    def extend(self, samples, points):
        """Append the block of cuts at ``points[k]`` for the samples
        ``samples[k]``, dropping repeats of pooled or earlier cuts; returns
        how many were new.  A bad index, shape or point anywhere in the
        block raises ValueError and leaves the pool as it was."""
        data = self.data
        samples = np.asarray(samples, dtype=int)
        points = np.asarray(points, dtype=float)
        if samples.ndim != 1 or points.shape != (samples.size, data.dataset.n):
            raise ValueError(f"cut points have shape {points.shape}; {samples.size} cuts "
                             f"over {data.dataset.n} features need "
                             f"({samples.size}, {data.dataset.n})")
        bad = np.flatnonzero((samples < 0) | (samples >= data.m))
        if bad.size:
            raise ValueError(f"cut sample index {samples[bad[0]]} out of range")
        offset = np.abs(points - data.dataset.features[samples])
        # the observed sample itself is admissible even outside its class
        # region: it costs nothing to transport
        admissible = np.all(offset <= 1e-12, axis=1)
        labels = data.dataset.labels[samples]
        for label, region in data.regions.items():
            rows = np.flatnonzero((labels == label) & ~admissible)
            admissible[rows] = region.contains(points[rows])
        if not admissible.all():
            k = int(np.flatnonzero(~admissible)[0])
            raise ValueError(f"cut point {points[k].tolist()} of sample {samples[k]} "
                             "lies outside its class region")
        keys = zip(samples.tolist(), map(tuple, np.round(points, 10).tolist()))
        new = []
        for k, key in enumerate(keys):
            if key not in self._keys:
                self._keys.add(key)
                new.append(k)
        self.samples = np.concatenate([self.samples, samples[new]])
        self.points = np.concatenate([self.points, points[new]])
        self.dists = np.concatenate([self.dists, offset[new].sum(axis=1)])
        return len(new)

    def values(self, theta, multipliers):
        """Each cut's constraint value: its loss minus its sample's
        multiplier minus the budget multiplier times its distance."""
        labels = self.data.dataset.labels[self.samples]
        h = self.data.loss.evaluate_many(theta, self.points, labels)
        return h - multipliers[self.samples] - multipliers[-1] * self.dists

    def __len__(self):
        return self.samples.size


def build_master(data, pool, cap=None):
    """The master over the pool's cuts.  With ``cap`` None it is the
    plain master: minimize the dual objective over [theta, multipliers]
    (the solver maximizes, so its coefficients enter negated).  Otherwise
    it is the centered master: maximize w over [theta, multipliers, w]
    under the level row f(x) + (1 + centering) * w <= cap.  The cap, the
    current strict upper bound on the dual objective, lies between the
    loss lower bound (below it no point has a non-negative margin) and
    the overall objective cap.
    """
    mult_lo, mult_hi = data.multiplier_box()
    lower = np.concatenate([data.theta_lower, mult_lo])
    upper = np.concatenate([data.theta_upper, mult_hi])
    centered = None
    if cap is None:
        objective = np.zeros(lower.size)
        objective[data.theta_size:] = -data.objective_coefficients()
    else:
        der = data.derived
        if cap < der.loss_lower:
            raise ValueError("objective cap lies below the loss lower bound: "
                             "the dual objective can never reach it")
        if cap > der.objective_cap:
            raise ValueError("objective cap exceeds the derived strict upper bound")
        objective = np.zeros(lower.size + 1)
        objective[-1] = 1.0
        lower, upper = np.append(lower, -np.inf), np.append(upper, np.inf)
        centered = (der.centering_bound, data.radius, cap)
    # each cut's score vector over theta: cut j's loss is softplus(curves[j] . theta)
    sign = 2.0 * data.dataset.labels[pool.samples] - 1.0
    curves = np.concatenate([np.ones((len(pool), 1)), pool.points], axis=1) * -sign[:, None]
    return MasterProgram(objective, lower, upper, curves, pool.samples, pool.dists,
                         centered=centered)


def enumeration_cuts(data):
    """A pool of every (sample, region point) pair; finite regions only.

    Each sample's own observation joins its list when the region does
    not already contain it: staying put is always admissible.
    """
    regions = [data.region_for_sample(i) for i in range(data.m)]
    if not all(isinstance(region, FiniteRegion) for region in regions):
        raise ValueError("full enumeration needs finite regions")
    feats = data.dataset.features
    atoms = [not region.contains(x) for region, x in zip(regions, feats)]
    count = sum(len(region.points) for region in regions) + sum(atoms)
    if count > ENUMERATION_BUDGET:
        raise ValueError(
            f"enumeration would create {count} constraints, "
            f"budget is {ENUMERATION_BUDGET}"
        )
    blocks = [np.vstack([region.points, x]) if atom else region.points
              for region, x, atom in zip(regions, feats, atoms)]
    pool = CutPool(data)
    pool.extend(np.repeat(np.arange(data.m), [len(block) for block in blocks]),
                np.concatenate(blocks))
    return pool


def master_interior_point(data, pool, cap=None, near=None):
    """A strictly feasible start for ``build_master(data, pool, cap)``.

    Given the dual point ``near``, the plain master starts next to it:
    its theta and budget multiplier clipped 0.1 % of the box width inside
    the box, and each sample multiplier 1e-3 of the loss range above its
    largest cut value there (Yildirim and Wright, SIAM J. Optim. 2002).
    Otherwise, or where that would put a multiplier at its upper bound,
    the start is cold: theta at the box's centre, each sample multiplier
    above the largest loss value (feasible for any pool) and, for the
    centered master, a margin w below what the level row and cuts allow.
    """
    der = data.derived
    if cap is None and near is not None:
        lo = np.append(data.theta_lower, 0.0)
        hi = np.append(data.theta_upper, der.budget_upper)
        inset = 1e-3 * (hi - lo)
        clipped = np.clip(np.append(near.theta, near.multipliers[-1]), lo + inset, hi - inset)
        theta, beta = clipped[:-1], clipped[-1]
        # each sample's largest cut value loss - beta * dist, kept inside the box
        top = np.full(data.m, der.loss_lower)
        np.maximum.at(top, pool.samples, pool.values(theta, np.append(np.zeros(data.m), beta)))
        mult = top + 1e-3 * (der.loss_upper - der.loss_lower)
        if mult.max() < der.multiplier_upper:
            return np.concatenate([theta, mult, [beta]])
    theta = 0.5 * (data.theta_lower + data.theta_upper)
    # comfortably above the largest loss value, yet inside the box
    per_sample = min(der.loss_upper + 1.0,
                     der.loss_lower + 0.75 * (der.multiplier_upper - der.loss_lower))
    mult = np.append(np.full(data.m, per_sample), min(1.0, 0.5 * der.budget_upper))
    if cap is None:
        return np.concatenate([theta, mult])
    f_val = float(data.objective_coefficients() @ mult)
    w_cap = (cap - f_val) / (1.0 + der.centering_bound)
    if len(pool):
        w_cap = min(w_cap, -np.max(pool.values(theta, mult)) / der.centering_bound)
    w = w_cap - max(1.0, 0.5 * abs(w_cap))
    return np.concatenate([theta, mult, [w]])


def split_master_solution(data, vec):
    """[theta, multipliers] -> (DualPoint, None), and
    [theta, multipliers, w] -> (DualPoint, w)."""
    n_theta, dim = data.theta_size, data.theta_size + data.m + 1
    w = float(vec[-1]) if vec.size > dim else None
    return DualPoint(vec[:n_theta], vec[n_theta:dim]), w
