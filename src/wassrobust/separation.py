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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import BoxRegion, FiniteRegion, Scenario

__all__ = ["TransportProfile", "SeparationResult", "transport_profile", "separate",
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
    for label in np.unique(labels):
        rows = labels == label
        region = data.regions[int(label)]
        if isinstance(region, FiniteRegion):
            pts = region.points
            dists = np.sum(np.abs(pts - refs[rows, None, :]), axis=2)
            values = data.loss.link_loss(data.loss.link(x.theta, pts), label)
            g = values - mult[rows, None] - budget * dists
            points[rows] = pts[np.argmax(g, axis=1)]
        else:
            profile = transport_profile(x.theta, region, refs[rows])
            values = data.loss.link_loss(profile.breakpoints, label)
            g = values - mult[rows, None] - budget * profile.costs
            points[rows] = profile.witness(np.argmax(g, axis=1))

    def loss(pts):
        # a row-wise reduction: a matrix-vector product's bits depend on the block
        return data.loss.link_loss(x.theta[0] + np.einsum("ij,j->i", pts, x.theta[1:]),
                                   labels)

    violations = loss(points) - mult - budget * np.sum(np.abs(points - refs), axis=1)
    atoms = loss(refs) - mult
    stay = atoms > violations
    points[stay] = refs[stay]
    return points, np.where(stay, atoms, violations)


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
