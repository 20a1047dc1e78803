"""Reformulation of the robust training problem into convex programs.

The robust problem is solved through its dual: minimize the averaged
per-sample multipliers plus radius times the budget multiplier, subject
to one constraint per (sample, admissible point) pair.  This module
derives the constants that make that dual well posed (multiplier boxes,
the strict objective cap, the centering coefficient), and assembles the
finite master programs the iterative solvers need:

* the plain master: minimize the dual objective under a finite cut set;
  over the m zero-cost cuts at the observed samples it is the nominal
  problem (no perturbation), whose optimum is the average training loss,
* the centered master: maximize the feasibility margin ``w`` under the
  same cuts plus a level constraint on the objective,
* the fully enumerated dual for finite regions, used as an oracle.

Variable layouts, in order:
    master            [theta, multipliers, w, t]
    exchange/enum     [theta, multipliers]
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convex import ConvexProgram, LinearConstraints, SoftplusConstraints
from .losses import LogisticLoss
from .model import Dataset, DualPoint, FiniteRegion, Scenario

__all__ = [
    "DerivedConstants",
    "ProblemData",
    "derive_constants",
    "build_master",
    "build_exchange_master",
    "build_enumeration",
    "master_interior_point",
    "exchange_interior_point",
    "split_master_solution",
    "split_dual_solution",
]

ENUMERATION_BUDGET = 10_000


@dataclass(frozen=True)
class DerivedConstants:
    """Bounds derived from the data that shape the dual feasible set.

    loss_lower / loss_upper     range of the loss over parameters and regions
    grad_bound                  strict bound on the loss gradient norm in theta
    transport_diameter          largest L1 move any sample's region allows
    centering_bound             Lipschitz-type constant used by the centered master
    objective_cap               strict upper bound on the optimal dual value
    multiplier_upper            upper box bound for the per-sample multipliers
    budget_upper                upper box bound for the budget multiplier
    rate_bound                  guaranteed per-improvement contraction factor
    feature_lipschitz           bound on the loss's Lipschitz constant in the point
    """

    loss_lower: float
    loss_upper: float
    grad_bound: float
    transport_diameter: float
    centering_bound: float
    objective_cap: float
    multiplier_upper: float
    budget_upper: float
    rate_bound: float
    feature_lipschitz: float


def derive_constants(dataset, regions, loss, radius, theta_lower, theta_upper):
    if radius <= 0:
        raise ValueError("radius must be positive")
    labels_present = set(int(l) for l in dataset.labels)
    for label in labels_present:
        if label not in regions:
            raise ValueError(f"no region supplied for label {label}")
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
        transport_diameter=float(diameter),
        centering_bound=float(centering),
        objective_cap=float(hi + 1.0),
        multiplier_upper=float((m + 1) * hi - m * lo),
        budget_upper=float((hi - lo) / radius),
        rate_bound=float(1.0 - 1.0 / (2.0 * centering + 1.0)),
        feature_lipschitz=float(loss.feature_lipschitz(theta_lower, theta_upper)),
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
    def assemble(cls, dataset, regions, radius, loss=None, theta_radius=10.0,
                 theta_lower=None, theta_upper=None):
        """Build problem data with a symmetric parameter box by default."""
        loss = loss if loss is not None else LogisticLoss()
        dim = loss.theta_dim(dataset.n)
        if theta_lower is None:
            theta_lower = np.full(dim, -float(theta_radius))
        theta_lower = np.asarray(theta_lower, dtype=float)
        if theta_upper is None:
            theta_upper = np.full(dim, float(theta_radius))
        theta_upper = np.asarray(theta_upper, dtype=float)
        if theta_lower.shape != (dim,) or theta_upper.shape != (dim,):
            raise ValueError("parameter box does not match the loss dimension")
        if np.any(theta_lower >= theta_upper):
            raise ValueError("parameter box must have positive width")
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


def _scenario_is_anchor(data, cut):
    """Seed cuts sit at the observed sample itself, which may fall
    outside its class region; those are always admissible because they
    cost nothing to transport."""
    xi = data.dataset.features[cut.sample_index]
    return cut.point.shape == xi.shape and np.allclose(cut.point, xi, atol=1e-12, rtol=0.0)


def _validate_cuts(data, cuts):
    for cut in cuts:
        if not 0 <= cut.sample_index < data.m:
            raise ValueError(f"cut sample index {cut.sample_index} out of range")
        if cut.label != int(data.dataset.labels[cut.sample_index]):
            raise ValueError("cut label does not match its sample")
        region = data.regions[cut.label]
        if not region.contains(cut.point) and not _scenario_is_anchor(data, cut):
            raise ValueError("cut point lies outside its class region")


def _cut_rows(data, cuts, dim, theta_ofs, mult_ofs, w_ofs=None):
    """Softplus rows for loss cuts in a program of dimension ``dim``."""
    n_theta = data.theta_size
    k = len(cuts)
    curves = np.zeros((k, dim))
    linear = np.zeros((k, dim))
    for j, cut in enumerate(cuts):
        sign = 2.0 * cut.label - 1.0
        curves[j, theta_ofs] = -sign
        curves[j, theta_ofs + 1 : theta_ofs + n_theta] = -sign * cut.point
        linear[j, mult_ofs + cut.sample_index] = -1.0
        dist = float(np.sum(np.abs(cut.point - data.dataset.features[cut.sample_index])))
        linear[j, mult_ofs + data.m] = -dist
        if w_ofs is not None:
            linear[j, w_ofs] = data.derived.centering_bound
    return SoftplusConstraints(curves, np.zeros(k), linear, np.zeros(k))


def build_master(data, cuts, cap):
    """Centered master: maximize w under the cut set and objective cap.

    Variables are [theta, multipliers, w, t].  ``cap`` is the current
    strict upper bound on the dual objective; it must lie between the
    loss lower bound (below which the program has no feasible point
    with non-negative margin) and the overall objective cap.
    """
    cuts = list(cuts)
    _validate_cuts(data, cuts)
    der = data.derived
    if cap < der.loss_lower:
        raise ValueError("objective cap lies below the loss lower bound: "
                         "the dual objective can never reach it")
    if cap > der.objective_cap:
        raise ValueError("objective cap exceeds the derived strict upper bound")
    n_theta = data.theta_size
    m = data.m
    dim = n_theta + (m + 1) + 2
    w_ofs = n_theta + m + 1
    t_ofs = w_ofs + 1

    objective = np.zeros(dim)
    objective[w_ofs] = 1.0

    mult_lo, mult_hi = data.multiplier_box()
    lower = np.concatenate([data.theta_lower, mult_lo, [-np.inf, -np.inf]])
    upper = np.concatenate([data.theta_upper, mult_hi, [np.inf, np.inf]])

    # level rows: t + w <= cap, and f(x) - t + centering * w <= 0
    level = np.zeros((2, dim))
    level[0, t_ofs] = 1.0
    level[0, w_ofs] = 1.0
    level[1, n_theta : n_theta + m + 1] = data.objective_coefficients()
    level[1, t_ofs] = -1.0
    level[1, w_ofs] = der.centering_bound
    blocks = [LinearConstraints(level, np.array([-cap, 0.0]))]
    if cuts:
        blocks.append(_cut_rows(data, cuts, dim, 0, n_theta, w_ofs))
    return ConvexProgram(objective, lower, upper, blocks)


def build_exchange_master(data, cuts):
    """Plain master: minimize the dual objective under a finite cut set.

    Variables are [theta, multipliers]; the solver maximizes, so the
    objective coefficients enter negated.
    """
    cuts = list(cuts)
    _validate_cuts(data, cuts)
    n_theta = data.theta_size
    dim = n_theta + data.m + 1
    objective = np.zeros(dim)
    objective[n_theta:] = -data.objective_coefficients()
    mult_lo, mult_hi = data.multiplier_box()
    lower = np.concatenate([data.theta_lower, mult_lo])
    upper = np.concatenate([data.theta_upper, mult_hi])
    blocks = []
    if cuts:
        blocks.append(_cut_rows(data, cuts, dim, 0, n_theta))
    return ConvexProgram(objective, lower, upper, blocks)


def enumeration_cuts(data):
    """Every (sample, region point) pair as a cut; finite regions only.

    Each sample's own observation joins its list when the region does
    not already contain it: staying put is always admissible.
    """
    cuts = []
    for i in range(data.m):
        region = data.region_for_sample(i)
        if not isinstance(region, FiniteRegion):
            raise ValueError("full enumeration needs finite regions")
        label = int(data.dataset.labels[i])
        for point in region.points:
            cuts.append(Scenario(point, i, label))
        if not region.contains(data.dataset.features[i]):
            cuts.append(Scenario(data.dataset.features[i], i, label))
    if len(cuts) > ENUMERATION_BUDGET:
        raise ValueError(
            f"enumeration would create {len(cuts)} constraints, "
            f"budget is {ENUMERATION_BUDGET}"
        )
    return cuts


def build_enumeration(data):
    return build_exchange_master(data, enumeration_cuts(data))


def _interior_multipliers(data):
    der = data.derived
    m = data.m
    # comfortably above the largest loss value, yet inside the box
    per_sample = min(der.loss_upper + 1.0,
                     der.loss_lower + 0.75 * (der.multiplier_upper - der.loss_lower))
    budget = min(1.0, 0.5 * der.budget_upper)
    return np.concatenate([np.full(m, per_sample), [budget]])


def _interior_theta(data):
    return 0.5 * (data.theta_lower + data.theta_upper)


def exchange_interior_point(data):
    """A strictly feasible start for the plain master, any cut set."""
    return np.concatenate([_interior_theta(data), _interior_multipliers(data)])


def master_interior_point(data, cuts, cap):
    """A strictly feasible start for the centered master."""
    der = data.derived
    theta = _interior_theta(data)
    mult = _interior_multipliers(data)
    f_val = float(data.objective_coefficients() @ mult)
    worst_cut = -np.inf
    feats = data.dataset.features
    for cut in cuts:
        h = data.loss.evaluate(theta, cut.point, cut.label)
        dist = float(np.sum(np.abs(cut.point - feats[cut.sample_index])))
        worst_cut = max(worst_cut, h - mult[cut.sample_index] - mult[-1] * dist)
    w_cap = (cap - f_val) / (1.0 + der.centering_bound)
    if np.isfinite(worst_cut):
        w_cap = min(w_cap, -worst_cut / der.centering_bound)
    w = w_cap - max(1.0, 0.5 * abs(w_cap))
    t = 0.5 * ((f_val + der.centering_bound * w) + (cap - w))
    return np.concatenate([theta, mult, [w, t]])


def split_master_solution(data, vec):
    """[theta, multipliers, w, t] -> (DualPoint, w, t)."""
    n_theta = data.theta_size
    m = data.m
    point = DualPoint(vec[:n_theta], vec[n_theta : n_theta + m + 1])
    return point, float(vec[-2]), float(vec[-1])


def split_dual_solution(data, vec):
    """[theta, multipliers] -> DualPoint."""
    return DualPoint(vec[: data.theta_size], vec[data.theta_size :])
