"""Separation oracle: find the admissible point each sample's constraint
violates most.

For generalized linear losses over box regions the search reduces to
one dimension.  The loss depends on the point only through the score
u = theta_0 + theta . x, and the cheapest L1 move that reaches a given
score is piecewise linear in u: spend budget on the coordinate with the
largest |theta_j| first, then the next, and so on.  The constraint value
phi(u) - multiplier_i - budget * cost(u) is convex in u on each linear
piece of the cost, so its maximum over the box sits at a breakpoint of
the cost profile.  That yields an exact oracle with at most 2n + 1
candidate scores.

Every sample shares theta, so the coordinate order is the same for all
of them: one argsort and row-wise cumulative sums build the breakpoints
of a whole block of samples at once.  Finite regions are searched by
enumeration over one sample-by-point distance matrix.

The same candidate tables give ``complete``: for a fixed theta, the
exactly feasible multipliers of least objective, whose objective is the
robust value J(theta).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import BoxRegion, DualPoint, FiniteRegion, Scenario

__all__ = ["TransportProfile", "SeparationResult", "transport_profile", "separate",
           "separate_exact", "best_violation", "complete"]


@dataclass(frozen=True)
class SeparationResult:
    """Outcome of a separation search: its most violated scenario."""

    scenario: Scenario
    violation: float
    # searched samples with a positive violation
    violated: int


@dataclass(frozen=True)
class TransportProfile:
    """Cheapest L1 transport cost to reach each achievable score, for a
    block of r samples.

    Row k of ``breakpoints`` holds sample k's scores in increasing order:
    n' moves down, the anchor's score, n' moves up, where n' is the number
    of nonzero weights; ``costs`` are the matching minimal L1 distances
    from the reference point (including the cost of entering the box when
    the reference lies outside it).  A move along a coordinate that
    already sits on its face has zero length and repeats a breakpoint.
    ``anchor`` is each reference clipped to the box, and ``base_cost`` its
    distance from the reference.
    """

    breakpoints: np.ndarray
    costs: np.ndarray
    anchor: np.ndarray
    base_cost: np.ndarray
    # position of each coordinate in the move order (n for a zero weight)
    _rank: np.ndarray
    # the face each coordinate reaches when the score rises, and falls
    _up_face: np.ndarray
    _down_face: np.ndarray

    def witness(self, columns):
        """Each row's box point at its breakpoint ``columns[k]``: the first
        j coordinates of the move order sit on their faces, the rest at
        the anchor."""
        moves = np.asarray(columns) - (self.breakpoints.shape[1] - 1) // 2
        face = np.where((moves > 0)[:, None], self._up_face, self._down_face)
        return np.where(self._rank < np.abs(moves)[:, None], face, self.anchor)


def transport_profile(theta, region, references):
    """Build the score-versus-cost profiles of a block of samples.

    ``theta`` is the full parameter vector (intercept first); ``region``
    is the samples' class box; ``references`` is the (r, n) block of
    observed points.
    """
    if not isinstance(region, BoxRegion):
        raise TypeError("transport profiles need a box region")
    theta = np.asarray(theta, dtype=float)
    weights = theta[1:]
    if weights.size != region.dimension:
        raise ValueError("theta dimension does not match the region")
    references = np.asarray(references, dtype=float)
    anchor = region.clip(references)
    base = np.sum(np.abs(anchor - references), axis=1)
    anchor_u = theta[0] + np.einsum("ij,j->i", anchor, weights)

    # spend transport on the steepest coordinates first; ties by index
    order = np.argsort(-np.abs(weights), kind="stable")
    order = order[weights[order] != 0.0]
    rank = np.full(weights.size, weights.size)
    rank[order] = np.arange(order.size)
    rises = weights > 0.0
    up_face = np.where(rises, region.upper, region.lower)
    down_face = np.where(rises, region.lower, region.upper)

    # each move's length, and the score it gains at |theta_j| per unit
    up = np.abs(up_face[order] - anchor[:, order])
    down = np.abs(anchor[:, order] - down_face[order])
    steep = np.abs(weights[order])
    rise_u = np.cumsum(np.column_stack([anchor_u, steep * up]), axis=1)
    rise_c = np.cumsum(np.column_stack([base, up]), axis=1)
    fall_u = np.cumsum(np.column_stack([anchor_u, -steep * down]), axis=1)
    fall_c = np.cumsum(np.column_stack([base, down]), axis=1)
    breakpoints = np.hstack([fall_u[:, :0:-1], rise_u])
    costs = np.hstack([fall_c[:, :0:-1], rise_c])
    return TransportProfile(breakpoints, costs, anchor, base, rank, up_face, down_face)


def _class_tables(theta, data, refs, labels):
    """Each class's candidate table for a block of samples.

    Yields, per label present, the block's row mask, the (r, K) losses
    and transport costs of each row's K candidate points, and a function
    that maps one column per row to those points.  Box regions give the
    transport-profile breakpoints, finite regions every region point;
    the sample's own observation is not in the table.
    """
    for label in np.unique(labels):
        rows = labels == label
        region = data.regions[int(label)]
        if isinstance(region, FiniteRegion):
            pts = region.points
            costs = np.sum(np.abs(pts - refs[rows, None, :]), axis=2)
            values = data.loss.link_loss(data.loss.link(theta, pts), label)
            yield rows, np.broadcast_to(values, costs.shape), costs, lambda cols: pts[cols]
        else:
            profile = transport_profile(theta, region, refs[rows])
            yield (rows, data.loss.link_loss(profile.breakpoints, label), profile.costs,
                   profile.witness)


def _row_losses(loss, theta, points, labels):
    """Each point's loss, row by row: a matrix-vector product's bits
    would depend on the block."""
    return loss.link_loss(theta[0] + np.einsum("ij,j->i", points, theta[1:]), labels)


def separate(x, data, samples):
    """Globally maximize each listed sample's constraint over its region.

    Returns the (r, n) maximizing points and their (r,) constraint values.
    Box regions use the transport-profile reduction and finite regions
    are enumerated.  The sample's own observation is a candidate too:
    keeping the training mass where it was costs no transport budget, so
    it wins when it is strictly better than every region point.  Each
    violation is the constraint value re-evaluated at its point, so it
    agrees with ``constraint_g`` to machine precision, and its bits do
    not depend on which samples share the block.
    """
    samples = np.asarray(samples, dtype=int)
    refs = data.dataset.features[samples]
    labels = data.dataset.labels[samples]
    mult = x.multipliers[samples]
    budget = x.multipliers[-1]
    points = np.empty_like(refs)
    for rows, values, costs, witness in _class_tables(x.theta, data, refs, labels):
        g = values - mult[rows, None] - budget * costs
        points[rows] = witness(np.argmax(g, axis=1))

    violations = (_row_losses(data.loss, x.theta, points, labels) - mult
                  - budget * np.sum(np.abs(points - refs), axis=1))
    atoms = _row_losses(data.loss, x.theta, refs, labels) - mult
    stay = atoms > violations
    points[stay] = refs[stay]
    return points, np.where(stay, atoms, violations)


def _envelope_kinks(values, costs, upper):
    """Where each row's upper envelope of the lines values - beta * costs
    changes line on (0, upper), and by how much its cost drops there.

    Starts each row on its highest line at beta = 0 (the cheapest among
    ties) and walks to the line it crosses first among the cheaper ones;
    every step lowers the active cost, so a row takes at most K steps.
    Returns the active costs at beta = 0 and the (beta, drop) pairs.
    """
    top = values.max(axis=1, keepdims=True)
    active = np.argmin(np.where(values == top, costs, np.inf), axis=1)
    start = costs[np.arange(len(costs)), active]
    cost = start
    betas, drops = [], []
    while values.shape[0]:
        level = values[np.arange(len(values)), active]
        cheaper = costs < cost[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            cross = np.where(cheaper, (level[:, None] - values) / (cost[:, None] - costs),
                             np.inf)
        beta = cross.min(axis=1)
        go = beta < upper
        # among lines crossing at the same beta the cheapest stays on top
        nxt = np.argmin(np.where(cross == beta[:, None], costs, np.inf), axis=1)[go]
        values, costs = values[go], costs[go]
        new_cost = costs[np.arange(len(costs)), nxt]
        betas.append(beta[go])
        drops.append(cost[go] - new_cost)
        active, cost = nxt, new_cost
    return start, np.concatenate(betas), np.concatenate(drops)


def complete(theta, data):
    """The least-objective dual point with this theta that is exactly
    feasible: its objective is the robust value J(theta).

    For fixed theta, J(theta) = min over beta in [0, budget_upper] of
    beta * radius + (1/m) sum_i max_k (loss_ik - beta * cost_ik), where k
    runs over sample i's candidates in ``separate`` plus its own
    observation at zero cost; for every beta those hold the maximum over
    the whole region.  J is convex and piecewise linear in beta, and
    its slope is radius minus the mean active cost, which only rises at
    the kinks of the samples' upper envelopes.  The minimizing beta is
    the first kink (or end of the interval) where the slope turns
    non-negative, and each multiplier is its sample's maximum there.
    """
    theta = np.asarray(theta, dtype=float)
    refs, labels = data.dataset.features, data.dataset.labels
    upper = data.derived.budget_upper
    atoms = _row_losses(data.loss, theta, refs, labels)
    tables = []
    start = np.empty(data.m)
    betas, drops = [], []
    for rows, values, costs, _ in _class_tables(theta, data, refs, labels):
        values = np.column_stack([values, atoms[rows]])
        costs = np.column_stack([costs, np.zeros(costs.shape[0])])
        start[rows], beta, drop = _envelope_kinks(values, costs, upper)
        tables.append((rows, values, costs))
        betas.append(beta)
        drops.append(drop)
    betas, drops = np.concatenate(betas), np.concatenate(drops)
    order = np.argsort(betas, kind="stable")
    # J's slope right of beta = 0 and right of each kink in turn
    active = np.sum(start) - np.concatenate([[0.0], np.cumsum(drops[order])])
    turn = np.flatnonzero(data.radius - active / data.m >= 0.0)
    budget = float(np.concatenate([[0.0], betas[order]])[turn[0]]) if turn.size else upper
    multipliers = np.empty(data.m + 1)
    for rows, values, costs in tables:
        multipliers[:-1][rows] = np.max(values - budget * costs, axis=1)
    multipliers[-1] = budget
    return DualPoint(theta, multipliers)


def _result(data, samples, points, violations):
    """The sweep's first most violated sample, as a ``SeparationResult``."""
    k = int(np.argmax(violations))
    i = int(samples[k])
    return SeparationResult(Scenario(points[k], i, int(data.dataset.labels[i])),
                            float(violations[k]), int(np.count_nonzero(violations > 0.0)))


def separate_exact(x, i, data):
    """``separate`` for sample ``i`` alone, as a ``SeparationResult``."""
    return _result(data, [i], *separate(x, data, [i]))


def best_violation(x, data):
    """Largest constraint value across all samples, violated or not.

    Ties pick the smallest sample index.
    """
    samples = np.arange(data.m)
    return _result(data, samples, *separate(x, data, samples))
