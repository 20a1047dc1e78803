"""The logistic loss.

``LogisticLoss`` evaluates the convex training loss h(theta, point,
label) and bounds the loss and its gradient over a parameter box and a
family of regions; the master programs take the loss's derivative from
``softplus_and_sigmoid``.  It has the
scalar link form ``h = phi_label(theta_0 + theta . x)``, which the exact
separation oracle relies on.
"""

from __future__ import annotations

import numpy as np

__all__ = ["LogisticLoss", "sigmoid", "softplus", "softplus_and_sigmoid"]


def softplus(z):
    """log(1 + exp(z)) computed without overflow."""
    z = np.asarray(z, dtype=float)
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def sigmoid(z):
    """1 / (1 + exp(-z)) computed without overflow."""
    return softplus_and_sigmoid(z)[1]


def softplus_and_sigmoid(z):
    """softplus(z) and its derivative sigmoid(z) = exp(z - softplus(z)),
    from one logaddexp and one exp; neither overflows."""
    soft = np.logaddexp(0.0, z)
    return soft, np.exp(z - soft)


class LogisticLoss:
    """Binary logistic loss with an intercept.

    For a point x with label y in {0, 1}, writes s = 2y - 1 and scores
    u = theta[0] + theta[1:] . x; the loss is log(1 + exp(-s * u)).
    """

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

    def evaluate(self, theta, point, label):
        return float(self.link_loss(self.link(theta, point), label))

    def evaluate_many(self, theta, points, labels):
        u = self.link(theta, points)
        signs = self._sign(labels)
        return softplus(-signs * u)

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
