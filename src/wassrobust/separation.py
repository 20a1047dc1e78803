"""Separation oracles: find the admissible point a sample's constraint
violates most.

For generalized linear losses over box regions the search reduces to
one dimension.  The loss depends on the point only through the score
u = theta_0 + theta . x, and the cheapest L1 move that reaches a given
score is piecewise linear in u: spend budget on the coordinate with the
largest |theta_j| first, then the next, and so on.  The constraint value
phi(u) - multiplier_i - budget * cost(u) is convex in u on each linear
piece of the cost, so its maximum over the box sits at a breakpoint of
the cost profile.  That yields an exact oracle with at most 2n + 1
candidate scores.  Finite regions are searched by enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import BoxRegion, FiniteRegion, Scenario

__all__ = [
    "TransportProfile",
    "SeparationResult",
    "transport_profile",
    "separate_exact",
    "best_violation",
]


@dataclass(frozen=True)
class SeparationResult:
    """Outcome of one sample's separation search."""

    scenario: Scenario
    violation: float


@dataclass(frozen=True)
class TransportProfile:
    """Cheapest L1 transport cost to reach each achievable score.

    ``breakpoints`` are scores in increasing order; ``costs`` are the
    matching minimal L1 distances from the reference point (including
    the cost of entering the box when the reference lies outside it).
    The profile is piecewise linear and convex between breakpoints, and
    zero at the reference's own score when the reference is inside.
    """

    breakpoints: np.ndarray
    costs: np.ndarray
    anchor: np.ndarray
    base_cost: float
    _up_moves: tuple
    _down_moves: tuple

    def cost(self, u):
        """Minimal transport cost to reach score(s) ``u``; inf outside range."""
        u = np.asarray(u, dtype=float)
        out = np.interp(u, self.breakpoints, self.costs, left=np.inf, right=np.inf)
        return float(out) if out.ndim == 0 else out

    @property
    def score_range(self):
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    def witness(self, u):
        """A point of the box achieving score ``u`` at minimal cost."""
        x = self.anchor.copy()
        remaining = u - self._anchor_score
        moves = self._up_moves if remaining >= 0 else self._down_moves
        remaining = abs(remaining)
        for coord, direction, span, slope in moves:
            take = min(remaining, span)
            x[coord] += direction * take * slope
            remaining -= take
            if remaining <= 0:
                break
        if remaining > 1e-9 * (1.0 + abs(u)):
            raise ValueError(f"score {u} is outside the achievable range")
        return x

    @property
    def _anchor_score(self):
        # breakpoints holds [down..., anchor, up...]; anchor index = len(down moves)
        return float(self.breakpoints[len(self._down_moves)])


def transport_profile(theta, region, reference):
    """Build the score-versus-cost profile for one sample.

    ``theta`` is the full parameter vector (intercept first); ``region``
    is the sample's class box; ``reference`` is the observed point.
    """
    if not isinstance(region, BoxRegion):
        raise TypeError("transport profiles need a box region")
    theta = np.asarray(theta, dtype=float)
    weights = theta[1:]
    if weights.size != region.dimension:
        raise ValueError("theta dimension does not match the region")
    reference = np.asarray(reference, dtype=float)
    anchor = region.clip(reference)
    base = float(np.sum(np.abs(anchor - reference)))
    anchor_u = float(theta[0] + weights @ anchor)

    # spend transport on the steepest coordinates first; ties by index
    order = sorted(range(weights.size), key=lambda j: (-abs(weights[j]), j))

    def collect(upward):
        moves = []
        for j in order:
            wj = weights[j]
            if wj == 0.0:
                continue
            goes_up = wj > 0.0
            if upward == goes_up:
                head = region.upper[j] - anchor[j]
                direction = 1.0
            else:
                head = anchor[j] - region.lower[j]
                direction = -1.0
            if head <= 0.0:
                continue
            span = abs(wj) * head  # score gained over this move
            moves.append((j, direction, span, 1.0 / abs(wj)))
        return tuple(moves)

    up_moves = collect(True)
    down_moves = collect(False)

    bps = [anchor_u]
    costs = [base]
    u = anchor_u
    c = base
    for _, _, span, slope in up_moves:
        u += span
        c += span * slope
        bps.append(u)
        costs.append(c)
    lo_bps, lo_costs = [], []
    u = anchor_u
    c = base
    for _, _, span, slope in down_moves:
        u -= span
        c += span * slope
        lo_bps.append(u)
        lo_costs.append(c)
    breakpoints = np.array(lo_bps[::-1] + bps)
    cost_arr = np.array(lo_costs[::-1] + costs)
    return TransportProfile(breakpoints, cost_arr, anchor, base, up_moves, down_moves)


def _atom_result(x, i, data):
    """The sample's own observation as a zero-cost scenario.

    The observed point is always admissible even when it falls outside
    its class region: keeping the training mass where it was costs no
    transport budget.  Without this candidate the robust value could
    dip below the plain training value.
    """
    label = int(data.dataset.labels[i])
    point = data.dataset.features[i]
    h = data.loss.evaluate(x.theta, point, label)
    violation = h - float(x.multipliers[i])
    return SeparationResult(Scenario(point, i, label), violation)


def _prefer(region_best, atom):
    return atom if atom.violation > region_best.violation else region_best


def _finite_best(x, i, data, region):
    """Exact search over a finite region by enumeration."""
    label = int(data.dataset.labels[i])
    pts = region.points
    u = data.loss.link(x.theta, pts)
    values = data.loss.link_loss(u, label)
    dists = np.sum(np.abs(pts - data.dataset.features[i]), axis=1)
    g = values - x.multipliers[i] - x.multipliers[-1] * dists
    k = int(np.argmax(g))
    best = SeparationResult(Scenario(pts[k], i, label), float(g[k]))
    return _prefer(best, _atom_result(x, i, data))


def separate_exact(x, i, data):
    """Globally maximize sample ``i``'s constraint over its region.

    Box regions use the transport-profile reduction; finite regions are
    enumerated.  The returned violation is the constraint value
    re-evaluated at the witness point, so it agrees with
    ``constraint_g`` to machine precision.
    """
    region = data.region_for_sample(i)
    if isinstance(region, FiniteRegion):
        return _finite_best(x, i, data, region)
    label = int(data.dataset.labels[i])
    profile = transport_profile(x.theta, region, data.dataset.features[i])
    values = data.loss.link_loss(profile.breakpoints, label)
    g = values - x.multipliers[i] - x.multipliers[-1] * profile.costs
    k = int(np.argmax(g))
    # the walk can overshoot a box face by one ulp; clip it back
    point = region.clip(profile.witness(float(profile.breakpoints[k])))
    # re-evaluate at the witness so the reported violation is the
    # constraint value itself, not the profile's prediction of it
    h = data.loss.evaluate(x.theta, point, label)
    dist = float(np.sum(np.abs(point - data.dataset.features[i])))
    violation = h - float(x.multipliers[i]) - float(x.multipliers[-1]) * dist
    best = SeparationResult(Scenario(point, i, label), violation)
    return _prefer(best, _atom_result(x, i, data))


def best_violation(x, data):
    """Largest constraint value across all samples, violated or not.

    Ties pick the smallest sample index.
    """
    best = separate_exact(x, 0, data)
    for i in range(1, data.m):
        res = separate_exact(x, i, data)
        if res.violation > best.violation:
            best = res
    return best
