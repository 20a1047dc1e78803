"""Separation oracle: find the admissible point each sample's constraint
violates most.

For generalized linear losses over box regions the search reduces to
one dimension.  The loss depends on the point only through the score
u = theta_0 + theta . x, and the cheapest L1 move that reaches a given
score is piecewise linear in u: spend budget on the coordinate with the
largest |theta_j| first, then the next, and so on.  The constraint value
phi(u) - multiplier_i - budget * cost(u) is convex in u on each linear
piece of the cost, so its maximum over the box sits at a breakpoint of
the cost profile.  The logistic loss is monotone in u, so a move that
lowers it costs more than the anchor (the reference clipped to the box)
and gains nothing: the oracle is exact with n' + 1 breakpoints, in the
direction the loss rises, where n' counts the nonzero weights.

Every sample shares theta, so the coordinate order is the same for all
of them: one argsort and row-wise cumulative sums build the breakpoints
of a whole block of samples at once.  Finite regions are searched by
enumeration over one sample-by-point distance matrix.

``CandidateTables`` builds one theta's candidate tables once.  Its
``separate`` sweeps them at any multipliers, and its ``complete`` gives
the exactly feasible multipliers of least objective for that theta,
whose objective is the robust value J(theta).  ``best_violation`` and
``separate_exact`` return one sweep's most violated sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import BoxRegion, DualPoint, FiniteRegion, Scenario

__all__ = ["TransportProfile", "SeparationResult", "CandidateTables", "transport_profile",
           "separate_exact", "best_violation"]


@dataclass(frozen=True)
class SeparationResult:
    """Outcome of a separation search: its most violated scenario."""

    scenario: Scenario
    violation: float
    # searched samples with a positive violation
    violated: int


@dataclass(frozen=True)
class TransportProfile:
    """Cheapest L1 transport cost to reach each score the loss rises
    towards, for a block of r samples.

    Row k of ``breakpoints`` holds sample k's scores in the direction the
    loss of the region's label rises (down for label 1, up for label 0):
    the anchor's score, then the score after each of n' moves, where n'
    is the number of nonzero weights.  ``costs`` are the matching minimal
    L1 distances from the reference point (including the cost of entering
    the box when the reference lies outside it); they rise column by
    column.  A move along a coordinate that already sits on its face has
    zero length and repeats a breakpoint.  ``anchor`` is each reference
    clipped to the box, and ``base_cost`` its distance from the reference.
    """

    breakpoints: np.ndarray
    costs: np.ndarray
    anchor: np.ndarray
    base_cost: np.ndarray
    # position of each coordinate in the move order (n for a zero weight)
    _rank: np.ndarray
    # the face each coordinate reaches as the loss rises
    _face: np.ndarray

    def witness(self, columns):
        """Each row's box point at its breakpoint ``columns[k]``: the first
        ``columns[k]`` coordinates of the move order sit on their faces,
        the rest at the anchor."""
        return np.where(self._rank < np.asarray(columns)[:, None], self._face, self.anchor)


def transport_profile(theta, region, references):
    """Build the score-versus-cost profiles of a block of samples, in the
    direction the loss of ``region.label`` rises.

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
    # the logistic loss of label 1 rises as the score falls, of label 0
    # as it rises
    falls = region.label == 1
    face = np.where((weights > 0.0) != falls, region.upper, region.lower)

    # each move's length, and the score it moves at |theta_j| per unit
    move = np.abs(face[order] - anchor[:, order])
    steep = np.abs(weights[order])
    step = -steep if falls else steep
    breakpoints = np.cumsum(np.column_stack([anchor_u, step * move]), axis=1)
    costs = np.cumsum(np.column_stack([base, move]), axis=1)
    return TransportProfile(breakpoints, costs, anchor, base, rank, face)


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
            yield rows, np.broadcast_to(values, costs.shape), costs, pts.__getitem__
        else:
            profile = transport_profile(theta, region, refs[rows])
            yield (rows, data.loss.link_loss(profile.breakpoints, label), profile.costs,
                   profile.witness)


def _row_losses(loss, theta, points, labels):
    """Each point's loss, row by row: a matrix-vector product's bits
    would depend on the block."""
    return loss.link_loss(theta[0] + np.einsum("ij,j->i", points, theta[1:]), labels)


class CandidateTables:
    """The candidate tables of a block of samples at one theta.

    Holds each class's table from ``_class_tables`` and every sample's
    own observation as a zero-cost candidate.  Built once per theta, the
    tables serve ``separate`` at any multipliers with that theta and,
    when they cover every sample (``samples`` left out), ``complete``.
    """

    def __init__(self, theta, data, samples=None):
        self.theta = np.asarray(theta, dtype=float)
        self.data = data
        self.every = samples is None
        self.samples = np.arange(data.m) if self.every else np.asarray(samples, dtype=int)
        self.refs = data.dataset.features[self.samples]
        self.labels = data.dataset.labels[self.samples]
        self.atoms = _row_losses(data.loss, self.theta, self.refs, self.labels)
        self.classes = list(_class_tables(self.theta, data, self.refs, self.labels))

    def separate(self, multipliers):
        """Each sample's most violated point at (theta, multipliers), over
        its region and its own observation, which wins only when strictly
        better: the (r, n) points and their (r,) constraint values.  Each
        value is re-evaluated at its point, so it agrees with
        ``constraint_g`` to machine precision, and its bits do not depend
        on which samples share the block."""
        mult = multipliers[self.samples]
        budget = multipliers[-1]
        points = np.empty_like(self.refs)
        for rows, values, costs, witness in self.classes:
            g = values - mult[rows, None] - budget * costs
            points[rows] = witness(np.argmax(g, axis=1))

        violations = (_row_losses(self.data.loss, self.theta, points, self.labels) - mult
                      - budget * np.sum(np.abs(points - self.refs), axis=1))
        atoms = self.atoms - mult
        stay = atoms > violations
        points[stay] = self.refs[stay]
        return points, np.where(stay, atoms, violations)

    def complete(self):
        """The least-objective dual point with this theta that is exactly
        feasible: its objective is the robust value J(theta).

        For fixed theta, J(theta) = min over beta in [0, budget_upper] of
        beta * radius + (1/m) sum_i max_k (loss_ik - beta * cost_ik), where
        k runs over sample i's candidates in ``separate`` plus its own
        observation at zero cost; for every beta those hold the maximum
        over the whole region.  J is convex and piecewise linear in beta,
        and its slope is radius minus the mean active cost, which only
        rises at the kinks of the samples' upper envelopes.  The
        minimizing beta is the first kink (or end of the interval) where
        the slope turns non-negative, and each multiplier is its sample's
        maximum there.
        """
        if not self.every:
            raise ValueError("a completion needs the tables of every sample")
        data = self.data
        upper = data.derived.budget_upper
        tables = []
        start = np.empty(data.m)
        betas, drops = [], []
        for rows, values, costs, _ in self.classes:
            values = np.column_stack([values, self.atoms[rows]])
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
        return DualPoint(self.theta, multipliers)


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
    with np.errstate(divide="ignore", invalid="ignore"):
        while values.shape[0]:
            level = values[np.arange(len(values)), active]
            cheaper = costs < cost[:, None]
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


def _result(data, samples, points, violations):
    """The sweep's first most violated sample, as a ``SeparationResult``."""
    k = int(np.argmax(violations))
    i = int(samples[k])
    return SeparationResult(Scenario(points[k], i, int(data.dataset.labels[i])),
                            float(violations[k]), int(np.count_nonzero(violations > 0.0)))


def separate_exact(x, i, data):
    """A sweep of sample ``i`` alone, as a ``SeparationResult``."""
    return _result(data, [i], *CandidateTables(x.theta, data, [i]).separate(x.multipliers))


def best_violation(x, data, tables=None):
    """Largest constraint value across all samples, violated or not.

    Ties pick the smallest sample index.  ``tables``, when the caller has
    built them, are the ``CandidateTables`` of every sample at x.theta.
    """
    tables = CandidateTables(x.theta, data) if tables is None else tables
    return _result(data, tables.samples, *tables.separate(x.multipliers))
