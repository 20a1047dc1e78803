"""Interior-point solver for smooth convex programs over boxes.

Programs have the form

    maximize   c . x
    subject to g_j(x) <= 0        (smooth convex rows, grouped in blocks)
               lower <= x <= upper (entries may be infinite)

The solver follows the log-barrier central path, driven in primal-dual
form: Newton steps on the perturbed optimality system with one
multiplier per constraint row and per finite box bound, a
fraction-to-boundary rule, and a backtracking line search on the
residual norm.  Working on the optimality residuals keeps every
quantity at its natural scale, which is what lets the solver certify
tolerances near 1e-8 in double precision; a pure primal barrier loses
those digits in its merit function once the barrier weight is large.
The barrier weight decreases by a fixed factor of 10 per step.

Constraint blocks supply values, Jacobians, and weighted Hessians.

Everything here is deterministic: identical inputs produce identical
reports, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .losses import sigmoid, softplus

__all__ = [
    "LinearConstraints",
    "SoftplusConstraints",
    "ConvexProgram",
    "SolveReport",
    "solve",
    "OPTIMAL",
    "ITERATION_LIMIT",
]

OPTIMAL = "optimal"
ITERATION_LIMIT = "iteration_limit"


class LinearConstraints:
    """Rows ``coeffs @ x + offsets <= 0``."""

    def __init__(self, coeffs, offsets):
        self.coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
        self.offsets = np.atleast_1d(np.asarray(offsets, dtype=float))
        if self.coeffs.shape[0] != self.offsets.size:
            raise ValueError("row count mismatch between coeffs and offsets")

    @property
    def rows(self):
        return self.offsets.size

    @property
    def dim(self):
        return self.coeffs.shape[1]

    def values(self, x):
        return self.coeffs @ x + self.offsets

    def jacobian(self, x):
        return self.coeffs

    def curvature(self, x, weights):
        return None


class SoftplusConstraints:
    """Rows ``softplus(curve @ x) + linear @ x <= 0``.

    Each row couples one softplus of a linear score with an extra linear
    term; this is exactly the shape of a loss-based cut.
    """

    def __init__(self, curves, linear):
        self.curves = np.atleast_2d(np.asarray(curves, dtype=float))
        self.linear = np.atleast_2d(np.asarray(linear, dtype=float))
        if self.curves.shape != self.linear.shape:
            raise ValueError("shape mismatch between curve and linear parts")

    @property
    def rows(self):
        return self.curves.shape[0]

    @property
    def dim(self):
        return self.curves.shape[1]

    def values(self, x):
        return softplus(self.curves @ x) + self.linear @ x

    def jacobian(self, x):
        sig = sigmoid(self.curves @ x)
        return sig[:, None] * self.curves + self.linear

    def curvature(self, x, weights):
        sig = sigmoid(self.curves @ x)
        w = weights * sig * (1.0 - sig)
        return (self.curves * w[:, None]).T @ self.curves


@dataclass
class ConvexProgram:
    """A smooth convex program over a box; the objective is maximized."""

    objective: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    blocks: list

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        d = self.objective.size
        if self.lower.shape != (d,) or self.upper.shape != (d,):
            raise ValueError("box bounds must match the objective dimension")
        if np.any(self.lower >= self.upper):
            raise ValueError("box must have positive width in every dimension")
        for block in self.blocks:
            if getattr(block, "dim", d) != d:
                raise ValueError("constraint block dimension mismatch")

    @property
    def dim(self):
        return self.objective.size

    @property
    def constraint_rows(self):
        return sum(block.rows for block in self.blocks)

    def constraint_values(self, x):
        if not self.blocks:
            return np.empty(0)
        return np.concatenate([block.values(x) for block in self.blocks])

    def constraint_jacobian(self, x):
        if not self.blocks:
            return np.empty((0, self.dim))
        return np.vstack([block.jacobian(x) for block in self.blocks])

    def weighted_curvature(self, x, weights):
        """sum_j weights_j * hessian(g_j), accumulated across blocks."""
        total = None
        ofs = 0
        for block in self.blocks:
            part = block.curvature(x, weights[ofs : ofs + block.rows])
            ofs += block.rows
            if part is not None:
                total = part if total is None else total + part
        return total


@dataclass
class SolveReport:
    solution: np.ndarray
    objective: float
    status: str
    kkt_residual: float
    iterations: int


_RIDGE_TRIES = 8
# the barrier weight falls by this factor per Newton step
_SHRINK = 0.1


def _solve_spd(hess, rhs):
    """Solve hess @ d = rhs for a (near) positive definite hess; a failed
    Cholesky factorization is retried with a growing ridge on the diagonal."""
    n = hess.shape[0]
    scale = max(1.0, float(np.trace(hess)) / n)
    ridges = [0.0] + [scale * 10.0 ** (k - 12) for k in range(_RIDGE_TRIES - 1)]
    for ridge in ridges:
        H = hess if ridge == 0.0 else hess + ridge * np.eye(n)
        try:
            factor = scipy.linalg.cho_factor(H, check_finite=False)
        except scipy.linalg.LinAlgError:
            continue
        return scipy.linalg.cho_solve(factor, rhs, check_finite=False)
    raise scipy.linalg.LinAlgError(
        f"Newton matrix of size {n}x{n} is not positive definite, "
        f"even with a ridge of {ridges[-1]:.3g} on its diagonal")


def _check_start(program, x):
    """The constraint values at ``x``; raise ValueError naming the first
    bound or row that ``x`` does not satisfy strictly."""
    if x.shape != (program.dim,):
        raise ValueError(f"start point has shape {x.shape}, expected ({program.dim},)")
    outside = np.flatnonzero(~((program.lower < x) & (x < program.upper)))
    if outside.size:
        j = int(outside[0])
        raise ValueError(f"start point is not strictly inside the box: x[{j}] = {x[j]} "
                         f"for bounds [{program.lower[j]}, {program.upper[j]}]")
    g = program.constraint_values(x)
    bad = np.flatnonzero(~(g < 0.0))
    if bad.size:
        raise ValueError(f"start point is not strictly feasible: constraint row "
                         f"{int(bad[0])} has value {g[bad[0]]}, which must be negative")
    return g


def _pd_solve(program, tol, x, g, count, max_iters):
    """Primal-dual interior steps from a strictly feasible x with row values g.

    ``count`` is the number of log terms: rows plus finite bounds.
    Returns (x, status, kkt_residual, iterations).  Terminates when both
    the complementarity sum and the dual residual norm drop below half
    the tolerance; their sum is the reported optimality measure.

    Each point is evaluated once.  A trial point gets its row values,
    and its Jacobian only once a trial has been strictly feasible; the
    accepted trial's values and Jacobian carry into the next step.
    """
    c = program.objective
    lo, hi = program.lower, program.upper
    lo_idx = np.flatnonzero(np.isfinite(lo))
    hi_idx = np.flatnonzero(np.isfinite(hi))
    dim = program.dim

    def slacks(x, g):
        return -g, x[lo_idx] - lo[lo_idx], hi[hi_idx] - x[hi_idx]

    def dual_residual(jac, lam_row, lam_lo, lam_hi):
        r = -c + jac.T @ lam_row
        np.subtract.at(r, lo_idx, lam_lo)
        np.add.at(r, hi_idx, lam_hi)
        return r

    def residual_norm(r_dual, s_row, s_lo, s_hi, lam_row, lam_lo, lam_hi, mu):
        r_cent = np.concatenate([
            lam_row * s_row - mu,
            lam_lo * s_lo - mu,
            lam_hi * s_hi - mu,
        ])
        return float(np.sqrt(np.sum(r_dual**2) + np.sum(r_cent**2)))

    s_row, s_lo, s_hi = slacks(x, g)
    lam_row, lam_lo, lam_hi = 1.0 / s_row, 1.0 / s_lo, 1.0 / s_hi
    jac = program.constraint_jacobian(x)
    r_dual = dual_residual(jac, lam_row, lam_lo, lam_hi)

    for it in range(1, max_iters + 1):
        gap = float(s_row @ lam_row + s_lo @ lam_lo + s_hi @ lam_hi)
        dual_norm = float(np.linalg.norm(r_dual))
        if gap <= 0.5 * tol and dual_norm <= 0.5 * tol:
            return x, OPTIMAL, gap + dual_norm, it - 1
        mu = max(_SHRINK * gap / count, 1e-300)

        hess = (jac * (lam_row / s_row)[:, None]).T @ jac
        curv = program.weighted_curvature(x, lam_row)
        if curv is not None:
            hess += curv
        diag = np.zeros(dim)
        np.add.at(diag, lo_idx, lam_lo / s_lo)
        np.add.at(diag, hi_idx, lam_hi / s_hi)
        hess[np.diag_indices(dim)] += diag

        rhs = c - jac.T @ (mu / s_row)
        np.add.at(rhs, lo_idx, mu / s_lo)
        np.subtract.at(rhs, hi_idx, mu / s_hi)
        dx = _solve_spd(hess, rhs)

        dlam_row = (mu - lam_row * s_row) / s_row + (lam_row / s_row) * (jac @ dx)
        dlam_lo = (mu - lam_lo * s_lo) / s_lo - (lam_lo / s_lo) * dx[lo_idx]
        dlam_hi = (mu - lam_hi * s_hi) / s_hi + (lam_hi / s_hi) * dx[hi_idx]

        # fraction to boundary: multipliers stay positive, box slacks too
        alpha = 1.0
        for vec, dvec in ((lam_row, dlam_row), (lam_lo, dlam_lo), (lam_hi, dlam_hi),
                          (s_lo, dx[lo_idx]), (s_hi, -dx[hi_idx])):
            neg = dvec < 0
            if np.any(neg):
                alpha = min(alpha, 0.99 * float(np.min(-vec[neg] / dvec[neg])))
        # halve the step until the rows are strictly negative and the
        # residual norm falls; the rows are convex and x is strictly
        # feasible, so once a trial is feasible every shorter one is too
        base = residual_norm(r_dual, s_row, s_lo, s_hi, lam_row, lam_lo, lam_hi, mu)
        feasible = False
        while alpha > 1e-14:
            x_new = x + alpha * dx
            g_new = program.constraint_values(x_new)
            feasible = feasible or bool(np.all(g_new < 0.0))
            if feasible:
                jac_new = program.constraint_jacobian(x_new)
                lams_new = (lam_row + alpha * dlam_row, lam_lo + alpha * dlam_lo,
                            lam_hi + alpha * dlam_hi)
                r_new = dual_residual(jac_new, *lams_new)
                slacks_new = slacks(x_new, g_new)
                if residual_norm(r_new, *slacks_new, *lams_new, mu) \
                        <= (1.0 - 0.01 * alpha) * base:
                    break
            alpha *= 0.5
        else:
            # stuck at numerical precision; report what we have
            return x, (OPTIMAL if gap + dual_norm <= tol else ITERATION_LIMIT), \
                gap + dual_norm, it
        x, jac, r_dual = x_new, jac_new, r_new
        s_row, s_lo, s_hi = slacks_new
        lam_row, lam_lo, lam_hi = lams_new
    gap = float(s_row @ lam_row + s_lo @ lam_lo + s_hi @ lam_hi)
    return x, ITERATION_LIMIT, gap, max_iters


def solve(program, x0, tol=1e-8, max_newton=200):
    """Solve the program to within ``tol`` of its optimal value.

    ``x0`` must be strictly feasible: strictly inside the box and every
    constraint row negative; otherwise a ValueError names the first bound
    or row it breaks.  The report's ``kkt_residual`` is the certified
    optimality measure: complementarity sum plus dual residual norm.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    count = (program.constraint_rows + int(np.sum(np.isfinite(program.lower)))
             + int(np.sum(np.isfinite(program.upper))))
    if count == 0:
        raise ValueError("program has no constraints or finite bounds: unbounded")
    x = np.asarray(x0, dtype=float)
    g = _check_start(program, x)
    x, status, kkt, iters = _pd_solve(program, tol, x, g, count, max_newton)
    return SolveReport(x, float(program.objective @ x), status, kkt, iters)
