"""Loss models.

A loss model evaluates a convex training loss h(theta, point, label),
supplies derivatives in theta, and bounds the loss and its gradient
over a parameter box and a family of regions.  Losses of generalized
linear form additionally expose the scalar link representation
``h = phi_label(theta_0 + theta . x)``, which the exact separation
oracle relies on.
"""

from __future__ import annotations

import numpy as np

__all__ = ["LogisticLoss", "sigmoid", "softplus"]


def softplus(z):
    """log(1 + exp(z)) computed without overflow."""
    z = np.asarray(z, dtype=float)
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def sigmoid(z):
    """1 / (1 + exp(-z)) computed without overflow."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class LogisticLoss:
    """Binary logistic loss with an intercept.

    For a point x with label y in {0, 1}, writes s = 2y - 1 and scores
    u = theta[0] + theta[1:] . x; the loss is log(1 + exp(-s * u)).
    """

    scalar_link = True

    def theta_dim(self, n_features):
        # intercept plus one weight per feature
        return n_features + 1

    @staticmethod
    def _sign(label):
        return 2.0 * np.asarray(label, dtype=float) - 1.0

    def link(self, theta, points):
        """Score theta[0] + points @ theta[1:]; points may be a single vector."""
        theta = np.asarray(theta, dtype=float)
        points = np.asarray(points, dtype=float)
        return theta[0] + points @ theta[1:]

    def link_loss(self, u, label):
        """Loss as a function of the score u, vectorized in u."""
        return softplus(-self._sign(label) * np.asarray(u, dtype=float))

    def link_loss_derivative(self, u, label):
        s = self._sign(label)
        return -s * sigmoid(-s * np.asarray(u, dtype=float))

    def evaluate(self, theta, point, label):
        return float(self.link_loss(self.link(theta, point), label))

    def evaluate_many(self, theta, points, labels):
        u = self.link(theta, points)
        signs = self._sign(labels)
        return softplus(-signs * u)

    def subgradient_theta(self, theta, point, label):
        """Gradient of the loss in theta (the loss is smooth, so unique)."""
        point = np.asarray(point, dtype=float)
        u = self.link(theta, point)
        coeff = self.link_loss_derivative(u, label)
        return float(coeff) * np.concatenate([[1.0], point])

    def bounds_over(self, theta_lower, theta_upper, regions):
        """(lowest, highest) loss value over the parameter box and regions."""
        theta_lower = np.asarray(theta_lower, dtype=float)
        theta_upper = np.asarray(theta_upper, dtype=float)
        coef_max = float(np.max(np.maximum(np.abs(theta_lower), np.abs(theta_upper))))
        reach = max(region.l1_norm_max() for region in regions)
        link_max = coef_max * (1.0 + reach)
        return float(softplus(-link_max)), float(softplus(link_max))

    def subgradient_norm_bound(self, theta_lower, theta_upper, regions):
        """Strict upper bound on the L2 norm of the theta-gradient."""
        # |d loss/du| < 1, and the gradient is that times (1, x)
        reach_sq = max(region.l2_norm_sq_max() for region in regions)
        return float(np.sqrt(1.0 + reach_sq) + 1e-6)

    def feature_lipschitz(self, theta_lower, theta_upper):
        """Bound on the loss's Lipschitz constant in the point, L1 ground metric."""
        theta_lower = np.asarray(theta_lower, dtype=float)
        theta_upper = np.asarray(theta_upper, dtype=float)
        if theta_lower.size < 2:
            return 0.0
        return float(np.max(np.maximum(np.abs(theta_lower[1:]), np.abs(theta_upper[1:]))))
