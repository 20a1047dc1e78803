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
    """Rows ``softplus(curve @ x + curve_offset) + linear @ x + offset <= 0``.

    Each row couples one softplus of an affine score with an extra
    affine term; this is exactly the shape of a loss-based cut.
    """

    def __init__(self, curves, curve_offsets, linear, offsets):
        self.curves = np.atleast_2d(np.asarray(curves, dtype=float))
        self.curve_offsets = np.atleast_1d(np.asarray(curve_offsets, dtype=float))
        self.linear = np.atleast_2d(np.asarray(linear, dtype=float))
        self.offsets = np.atleast_1d(np.asarray(offsets, dtype=float))
        k = self.curves.shape[0]
        if not (self.curve_offsets.size == k and self.linear.shape[0] == k and self.offsets.size == k):
            raise ValueError("row count mismatch between softplus rows")
        if self.curves.shape[1] != self.linear.shape[1]:
            raise ValueError("dimension mismatch between curve and linear parts")

    @property
    def rows(self):
        return self.offsets.size

    @property
    def dim(self):
        return self.curves.shape[1]

    def _scores(self, x):
        return self.curves @ x + self.curve_offsets

    def values(self, x):
        return softplus(self._scores(x)) + self.linear @ x + self.offsets

    def jacobian(self, x):
        sig = sigmoid(self._scores(x))
        return sig[:, None] * self.curves + self.linear

    def curvature(self, x, weights):
        sig = sigmoid(self._scores(x))
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


def _count_log_terms(program):
    return (
        program.constraint_rows
        + int(np.sum(np.isfinite(program.lower)))
        + int(np.sum(np.isfinite(program.upper)))
    )


def _solve_spd(hess, rhs):
    """Solve hess @ d = rhs for a (near) positive definite hess."""
    scale = max(1.0, float(np.trace(hess)) / hess.shape[0])
    ridge = 0.0
    for attempt in range(_RIDGE_TRIES):
        try:
            H = hess if ridge == 0.0 else hess + ridge * np.eye(hess.shape[0])
            factor = scipy.linalg.cho_factor(H, check_finite=False)
            return scipy.linalg.cho_solve(factor, rhs, check_finite=False)
        except scipy.linalg.LinAlgError:
            ridge = scale * 10.0 ** (attempt - 12)
    return rhs / scale


def _check_start(program, x):
    """Raise ValueError naming the first bound or row that ``x`` does not
    satisfy strictly."""
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


def _pd_solve(program, tol, x, max_iters):
    """Primal-dual interior steps from a strictly feasible x.

    Returns (x, status, kkt_residual, iterations).  Terminates when both
    the complementarity sum and the dual residual norm drop below half
    the tolerance; their sum is the reported optimality measure.
    """
    c = program.objective
    lo, hi = program.lower, program.upper
    lo_idx = np.flatnonzero(np.isfinite(lo))
    hi_idx = np.flatnonzero(np.isfinite(hi))
    dim = program.dim
    n_rows = program.constraint_rows
    count = n_rows + lo_idx.size + hi_idx.size

    g = program.constraint_values(x)
    s_row = -g
    s_lo = x[lo_idx] - lo[lo_idx]
    s_hi = hi[hi_idx] - x[hi_idx]
    lam_row = 1.0 / s_row
    lam_lo = 1.0 / s_lo
    lam_hi = 1.0 / s_hi

    def dual_residual(jac, lam_row, lam_lo, lam_hi):
        r = -c.copy()
        if n_rows:
            r += jac.T @ lam_row
        np.subtract.at(r, lo_idx, lam_lo)
        np.add.at(r, hi_idx, lam_hi)
        return r

    def residual_norm(xx, lam_row, lam_lo, lam_hi, mu):
        gg = program.constraint_values(xx)
        jac = program.constraint_jacobian(xx)
        r_dual = dual_residual(jac, lam_row, lam_lo, lam_hi)
        r_cent = np.concatenate([
            lam_row * (-gg) - mu,
            lam_lo * (xx[lo_idx] - lo[lo_idx]) - mu,
            lam_hi * (hi[hi_idx] - xx[hi_idx]) - mu,
        ])
        return float(np.sqrt(np.sum(r_dual**2) + np.sum(r_cent**2)))

    for it in range(1, max_iters + 1):
        jac = program.constraint_jacobian(x)
        r_dual = dual_residual(jac, lam_row, lam_lo, lam_hi)
        gap = float(s_row @ lam_row + s_lo @ lam_lo + s_hi @ lam_hi)
        dual_norm = float(np.linalg.norm(r_dual))
        if gap <= 0.5 * tol and dual_norm <= 0.5 * tol:
            return x, OPTIMAL, gap + dual_norm, it - 1
        mu = max(_SHRINK * gap / count, 1e-300)

        hess = np.zeros((dim, dim))
        if n_rows:
            curv = program.weighted_curvature(x, lam_row)
            if curv is not None:
                hess += curv
            hess += (jac * (lam_row / s_row)[:, None]).T @ jac
        diag = np.zeros(dim)
        np.add.at(diag, lo_idx, lam_lo / s_lo)
        np.add.at(diag, hi_idx, lam_hi / s_hi)
        hess[np.diag_indices(dim)] += diag

        rhs = c.copy()
        if n_rows:
            rhs -= jac.T @ (mu / s_row)
        np.add.at(rhs, lo_idx, mu / s_lo)
        np.subtract.at(rhs, hi_idx, mu / s_hi)
        dx = _solve_spd(hess, rhs)

        dlam_row = (mu - lam_row * s_row) / s_row + (lam_row / s_row) * (jac @ dx) \
            if n_rows else np.empty(0)
        dlam_lo = (mu - lam_lo * s_lo) / s_lo - (lam_lo / s_lo) * dx[lo_idx]
        dlam_hi = (mu - lam_hi * s_hi) / s_hi + (lam_hi / s_hi) * dx[hi_idx]

        # fraction to boundary: multipliers stay positive, box slacks too
        alpha = 1.0
        for vec, dvec in ((lam_row, dlam_row), (lam_lo, dlam_lo), (lam_hi, dlam_hi),
                          (s_lo, dx[lo_idx]), (s_hi, -dx[hi_idx])):
            neg = dvec < 0
            if np.any(neg):
                alpha = min(alpha, 0.99 * float(np.min(-vec[neg] / dvec[neg])))
        # nonlinear rows: back off until strictly feasible
        while alpha > 1e-14:
            if not n_rows or np.all(program.constraint_values(x + alpha * dx) < 0.0):
                break
            alpha *= 0.5
        base = residual_norm(x, lam_row, lam_lo, lam_hi, mu)
        accepted = False
        while alpha > 1e-14:
            x_new = x + alpha * dx
            trial = residual_norm(x_new, lam_row + alpha * dlam_row,
                                  lam_lo + alpha * dlam_lo,
                                  lam_hi + alpha * dlam_hi, mu)
            if trial <= (1.0 - 0.01 * alpha) * base:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            # stuck at numerical precision; report what we have
            return x, (OPTIMAL if gap + dual_norm <= tol else ITERATION_LIMIT), \
                gap + dual_norm, it
        x = x + alpha * dx
        if n_rows:
            lam_row = lam_row + alpha * dlam_row
        lam_lo = lam_lo + alpha * dlam_lo
        lam_hi = lam_hi + alpha * dlam_hi
        g = program.constraint_values(x)
        s_row = -g
        s_lo = x[lo_idx] - lo[lo_idx]
        s_hi = hi[hi_idx] - x[hi_idx]
    g = program.constraint_values(x)
    gap = float(-g @ lam_row + (x[lo_idx] - lo[lo_idx]) @ lam_lo
                + (hi[hi_idx] - x[hi_idx]) @ lam_hi)
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
    if _count_log_terms(program) == 0:
        raise ValueError("program has no constraints or finite bounds: unbounded")
    x = np.asarray(x0, dtype=float)
    _check_start(program, x)
    x, status, kkt, iters = _pd_solve(program, tol, x, max_newton)
    return SolveReport(x, float(program.objective @ x), status, kkt, iters)
