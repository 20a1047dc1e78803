"""Interior-point solver for the master programs of the cutting schemes.

Both masters share one shape.  Over the variables [theta, s, beta] (the
plain master) or [theta, s, beta, w] (the centered master) they

    maximize   c . x
    subject to mean(s) + radius * beta + (1 + w_coeff) * w <= cap   (centered only)
               softplus(curves[j] . theta) - s[samples[j]]
                   - dists[j] * beta + w_coeff * w <= 0      (one row per cut)
               lower <= x <= upper                    (entries may be infinite)

The solver follows the log-barrier central path, driven in primal-dual
form: Newton steps on the perturbed optimality system, a
fraction-to-boundary rule, and a backtracking line search on the
residual norm.  Working on the optimality residuals keeps every
quantity at its natural scale, which is what lets the solver certify
tolerances near 1e-8 in double precision; a pure primal barrier loses
those digits in its merit function once the barrier weight is large.
The fraction-to-boundary rule keeps every multiplier and every slack
positive, the constraint rows' slacks along their linearization
s - alpha J dx; the cut rows are convex and lie above it, so a trial
can still break one, and the line search halves it.
Each step aims at the barrier weight sigma * gap / (inequality count),
with the centering factor sigma = max(0.1, (1 - alpha)^2) set by the
length alpha of the previous accepted step: a full step cuts the weight
tenfold, and a step the line search cut back against the curved cut
rows aims nearer the central path, so the next one is not cut back
again.

The inequalities form one stacked block: one slack vector and one
multiplier vector, holding the constraint rows, then the finite lower
bounds, then the finite upper ones.  A bound is a coordinate index and
a sign, +1 below and -1 above, so the gap, the centering target and the
step to the boundary are each one vector expression.  At the final
multipliers the solver also reports a weak-duality upper bound on the
optimal value, which holds however far from optimal they are.

A cut row touches theta through its curve, one s entry, beta and w, so
``MasterProgram`` never forms the dense Jacobian: it supplies J^T lam
and J dx from the cut arrays, and its Newton step eliminates the m
sample multipliers s, whose block is diagonal over the cut rows, and
factors only the complement over the border [theta, beta, w], of
size n_theta + 1 or n_theta + 2, with NumPy's LAPACK gufuncs; a failed
Cholesky factorization comes back NaN and is retried with a ridge.

Everything here is deterministic: identical inputs produce identical
reports, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# np.linalg.cholesky's and np.linalg.solve's gufuncs, without the ~4 us of
# checks a call that cost more than a factorization of up to 17 columns; the
# module is private, with both names from numpy 1.24 on (2.4.6 was tested)
from numpy.linalg._umath_linalg import cholesky_lo, solve1

from .losses import softplus_and_sigmoid

__all__ = [
    "MasterProgram",
    "SolveReport",
    "solve",
    "OPTIMAL",
    "ITERATION_LIMIT",
]

OPTIMAL = "optimal"
ITERATION_LIMIT = "iteration_limit"
# Newton steps before a solve reports ``ITERATION_LIMIT``
MAX_NEWTON = 200


class MasterProgram:
    """A master program read from its cut arrays; the objective is maximized.

    Cut j has the score vector ``curves[j]`` over theta (n_theta entries),
    the s entry ``samples[j]`` and the beta coefficient ``-dists[j]``.
    ``centered`` is None for the plain master, over [theta, s, beta],
    which has no level row.  For the centered master, over [theta, s,
    beta, w], it is (w_coeff, radius, cap): every cut gets the w
    coefficient ``w_coeff``, and the level row
    mean(s) + radius * beta + (1 + w_coeff) * w <= cap comes first.
    """

    def __init__(self, objective, lower, upper, curves, samples, dists, centered=None):
        self.objective, self.lower, self.upper = objective, lower, upper
        self.curves, self.samples, self.centered = curves, samples, centered
        dim, n_theta = objective.size, curves.shape[1]
        # the centered master's level row comes first
        self._levels = levels = 0 if centered is None else 1
        # each row's coefficients on beta, then w: the level row's
        # (radius, 1 + w_coeff), then each cut's (-dists[j], w_coeff)
        if centered is None:
            self._tail = -dists[:, None]
        else:
            w_coeff, radius, _ = centered
            cuts = np.column_stack([-dists, np.full(samples.size, w_coeff)])
            self._tail = np.concatenate([[[radius, 1.0 + w_coeff]], cuts])
        self.m = m = dim - n_theta - 1 - levels
        self._theta, self._s, self._rest = (slice(0, n_theta), slice(n_theta, n_theta + m),
                                            slice(n_theta + m, dim))
        self._s_cols = n_theta + samples
        # the border is every variable but s: theta, then beta and w
        self._border = border = np.r_[0:n_theta, n_theta + m : dim]
        self._diag = np.diag_indices(border.size)
        # flat positions of each cut's border entries in an (m, border) array
        self._bins = (samples[:, None] * border.size + np.arange(border.size)).ravel()
        # each cut's border row [sigmoid * curve, tail]; newton_solve
        # rewrites only the curve part
        self._rows = np.concatenate([np.empty_like(curves), self._tail[levels:]], axis=1)
        # newton_solve's complement is M^T diag(stack_w) M over the stack M =
        # [cut rows less their centers; centers; curves padded to the border;
        # the level row's term]; the padded curves are written here, once
        k = samples.size
        self._stack = np.zeros((2 * k + m + levels, border.size))
        self._stack[k + m : 2 * k + m, :n_theta] = curves
        self._stack_w = np.empty(2 * k + m + levels)

    @property
    def dim(self):
        return self.objective.size

    @property
    def constraint_rows(self):
        return self._levels + self.samples.size

    # the plain master's methods skip the level row's terms, whose s part
    # is the constant 1/m

    def evaluate(self, x):
        """(row values, sigmoid of the cut scores) at ``x``."""
        soft, sig = softplus_and_sigmoid(self.curves @ x[self._theta])
        g = self._tail @ x[self._rest]
        cuts = g[self._levels:]
        cuts -= x[self._s_cols]
        cuts += soft
        if self._levels:
            g[0] += x[self._s].sum() / self.m - self.centered[2]
        return g, sig

    def transpose_times(self, sig, lam):
        """J^T lam, for the Jacobian J at the point whose cut scores have
        the sigmoid ``sig``."""
        lam_cut = lam[self._levels:]
        out = np.empty(self.dim)
        out[self._theta] = self.curves.T @ (lam_cut * sig)
        level_s = lam[0] / self.m if self._levels else 0.0
        np.subtract(level_s, np.bincount(self.samples, lam_cut, minlength=self.m),
                    out=out[self._s])
        out[self._rest] = self._tail.T @ lam
        return out

    def times(self, sig, dx):
        """J dx, for the Jacobian J at the point whose cut scores have the
        sigmoid ``sig``."""
        jdx = self._tail @ dx[self._rest]
        cuts = jdx[self._levels:]
        cuts += sig * (self.curves @ dx[self._theta])
        cuts -= dx[self._s_cols]
        if self._levels:
            jdx[0] += dx[self._s].sum() / self.m
        return jdx

    def newton_solve(self, sig, lam, weights, box_diag, rhs):
        """Solve H dx = rhs for the Newton matrix
        H = J^T diag(weights) J + sum_j lam_j hess(g_j) + diag(box_diag).

        Over the cut rows the s block of H is diagonal,
        D_i = box_diag(s_i) + the weights of sample i's cuts, so s is
        eliminated and only the complement over the border [theta, beta,
        w] is factored: S0 = A - C^T D^-1 C, with A the border block
        and C the s-border block of the cut rows.  With c_i = -C_i / D_i,
        sample i's weighted row sum over D_i, S0 is the sum of the
        positive terms w_j (b_j - c_i)(b_j - c_i)^T over cut rows b_j and
        box_diag(s_i) c_i c_i^T over samples, so a large weight cancels
        nothing.  With the theta curvature, the sum of
        lam_j sigma_j (1 - sigma_j) a_j a_j^T over the cut curves a_j, it
        is one product over the stacked kinds of row.  The level
        row L = [L_s, L_b], with weight q and the constant s part
        L_s = 1/m, adds the positive rank-1 term lt lt^T / kappa, where
        lt = L_b + sum_i c_i / m and kappa = 1/q + sum_i D_i^-1 / m^2:
        one more stacked row, lt with the weight 1 / kappa.  Its
        multiplier y = q L dx is recovered after the border.
        Returns (dx, ridge retries of the complement's factorization).
        """
        levels = self._levels
        n_theta = self.curves.shape[1]
        k, m = self.samples.size, self.m
        w_cut, d_box = weights[levels:], box_diag[self._s]
        rows, stack, stack_w = self._rows, self._stack, self._stack_w
        np.multiply(sig[:, None], self.curves, out=rows[:, :n_theta])
        inv_d = 1.0 / (d_box + np.bincount(self.samples, w_cut, minlength=m))
        centers = stack[k : k + m]
        np.multiply(np.bincount(self._bins, (rows * w_cut[:, None]).ravel(),
                                minlength=m * self._border.size).reshape(m, -1),
                    inv_d[:, None], out=centers)
        np.subtract(rows, centers[self.samples], out=stack[:k])
        stack_w[:k], stack_w[k : k + m] = w_cut, d_box
        np.multiply(lam[levels:] * sig, 1.0 - sig, out=stack_w[k + m : 2 * k + m])
        rhs_s = rhs[self._s]
        u = rhs_s * inv_d
        rhs_border = rhs[self._border] + centers.T @ rhs_s
        # only the centered master has the level row; at m = 3-5 its
        # terms would add about a sixth to a plain master's step
        if levels:
            lt = stack[-1]
            np.divide(centers.sum(axis=0), m, out=lt)
            lt[n_theta:] += self._tail[0]
            kappa = 1.0 / weights[0] + inv_d.sum() / m**2
            stack_w[-1] = 1.0 / kappa
            level_u = u.sum() / m
            rhs_border -= lt * (level_u / kappa)
        schur = (stack.T * stack_w) @ stack
        schur[self._diag] += box_diag[self._border]
        d_border, ridges = _solve_spd(schur, rhs_border)
        dx = np.concatenate([d_border[:n_theta], u + centers @ d_border, d_border[n_theta:]])
        if levels:
            y = (lt @ d_border + level_u) / kappa
            dx[self._s] -= (y / m) * inv_d
            # a heavy level row makes y and u large, and ds their
            # difference; restore its equation L dx = y / q along D^-1 L_s
            miss = y / weights[0] - dx[self._s].sum() / m - self._tail[0] @ d_border[n_theta:]
            dx[self._s] += (miss / (kappa * m)) * inv_d
        return dx, ridges


@dataclass
class SolveReport:
    solution: np.ndarray
    objective: float
    status: str
    kkt_residual: float
    iterations: int
    # Cholesky retries of the border complement with a ridge on its
    # diagonal, summed over the steps
    ridges: int
    # line-search trial points rejected, summed over the steps
    backtracks: int
    # weak-duality upper bound on the optimal value at the final
    # multipliers; infinite when a box bound is
    bound: float


_RIDGE_TRIES = 8


def _solve_spd(hess, rhs):
    """Solve hess @ d = rhs for a (near) positive definite hess; a failed
    Cholesky factorization is retried with a growing ridge on the diagonal.
    Returns d and the number of retries."""
    # Cholesky only tests definiteness (NumPy has no triangular-solve gufunc)
    # and LU solves; a failed Cholesky is NaN-filled, with no warning here
    with np.errstate(invalid="ignore"):
        if not math.isnan(cholesky_lo(hess, signature="d->d")[-1, -1]):
            return solve1(hess, rhs, signature="dd->d"), 0
        n = hess.shape[0]
        scale = max(1.0, float(np.trace(hess)) / n)
        ridges = [scale * 10.0 ** (k - 12) for k in range(_RIDGE_TRIES - 1)]
        for tries, ridge in enumerate(ridges, start=1):
            ridged = hess + ridge * np.eye(n)
            if not math.isnan(cholesky_lo(ridged, signature="d->d")[-1, -1]):
                return solve1(ridged, rhs, signature="dd->d"), tries
    raise np.linalg.LinAlgError(
        f"Newton matrix of size {n}x{n} is not positive definite, "
        f"even with a ridge of {ridges[-1]:.3g} on its diagonal")


def _check_start(program, x):
    """``program.evaluate(x)``; raise ValueError naming the first bound or
    row that ``x`` does not satisfy strictly."""
    if x.shape != (program.dim,):
        raise ValueError(f"start point has shape {x.shape}, expected ({program.dim},)")
    outside = np.flatnonzero(~((program.lower < x) & (x < program.upper)))
    if outside.size:
        j = int(outside[0])
        raise ValueError(f"start point is not strictly inside the box: x[{j}] = {x[j]} "
                         f"for bounds [{program.lower[j]}, {program.upper[j]}]")
    g, sig = program.evaluate(x)
    bad = np.flatnonzero(~(g < 0.0))
    if bad.size:
        raise ValueError(f"start point is not strictly feasible: constraint row "
                         f"{int(bad[0])} has value {g[bad[0]]}, which must be negative")
    return g, sig


def _pd_solve(program, tol, x, g, sig):
    """Primal-dual interior steps from a strictly feasible x with row values g
    and ``sig``, the sigmoid of its cut scores; returns the SolveReport.

    Every inequality has one slack in ``s`` and one multiplier in
    ``lam``: the constraint rows (s = -g) first, then the finite lower
    bounds, then the finite upper ones.  Bound k has the coordinate
    ``box[k]`` and the sign ``sign[k]``, +1 for a lower bound and -1 for
    an upper one, so that its slack is sign * (x[box] - limits).
    Terminates when both the complementarity sum s . lam and the dual
    residual norm drop below half the tolerance; their sum is the
    reported optimality measure, at every exit.

    Each point is evaluated once.  A trial point gets its row values,
    and J^T lam only once a trial has been strictly feasible; the
    accepted trial's evaluation carries into the next step.
    """
    c, lo, hi, dim = program.objective, program.lower, program.upper, program.dim
    lo_idx, hi_idx = np.flatnonzero(np.isfinite(lo)), np.flatnonzero(np.isfinite(hi))
    box = np.concatenate([lo_idx, hi_idx])
    sign = np.concatenate([np.ones(lo_idx.size), -np.ones(hi_idx.size)])
    limits = np.concatenate([lo[lo_idx], hi[hi_idx]])
    rows = program.constraint_rows
    ridges = backtracks = 0

    def slacks(x, g):
        return np.concatenate([-g, sign * (x[box] - limits)])

    def box_transpose_times(v):
        """The bound slacks' Jacobian, transposed, times v."""
        return np.bincount(box, sign * v, minlength=dim)

    def dual_residual(sig, lam):
        return program.transpose_times(sig, lam[:rows]) - c \
            - box_transpose_times(lam[rows:])

    s = slacks(x, g)
    lam = 1.0 / s
    r_dual = dual_residual(sig, lam)
    # length of the previous accepted step
    alpha = 1.0
    status, steps = ITERATION_LIMIT, MAX_NEWTON

    for it in range(1, MAX_NEWTON + 1):
        gap = float(s @ lam)
        dual_sq = float(r_dual @ r_dual)
        dual_norm = math.sqrt(dual_sq)
        if gap <= 0.5 * tol and dual_norm <= 0.5 * tol:
            status, steps = OPTIMAL, it - 1
            break
        # a cut-back step aims the next one nearer the central path
        mu = max(max(0.1, (1.0 - alpha) ** 2) * gap / s.size, 1e-300)

        weights = lam / s
        box_diag = np.bincount(box, weights[rows:], minlength=dim)
        mu_s = mu / s
        rhs = -dual_residual(sig, mu_s)
        dx, tries = program.newton_solve(sig, lam[:rows], weights[:rows], box_diag, rhs)
        ridges += tries
        ds = np.concatenate([-program.times(sig, dx), sign * dx[box]])
        dlam = mu_s - lam - weights * ds

        # fraction to boundary: multipliers and slacks stay positive, the
        # rows' slacks along their linearization s - alpha J dx
        shrink = min(float((dlam / lam).min()), float((ds / s).min()))
        alpha = min(1.0, -0.99 / shrink) if shrink < 0.0 else 1.0
        # halve the step until the rows are strictly negative and the
        # residual norm falls; the rows are convex, so a trial can break
        # one that its linearization keeps, and x is strictly feasible, so
        # once a trial is feasible every shorter one is too
        comp = lam * s - mu
        base_sq = dual_sq + comp @ comp
        feasible = False
        while alpha > 1e-14:
            x_new = x + alpha * dx
            g_new, sig_new = program.evaluate(x_new)
            feasible = feasible or bool((g_new < 0.0).all())
            if feasible:
                lam_new = lam + alpha * dlam
                r_new = dual_residual(sig_new, lam_new)
                s_new = slacks(x_new, g_new)
                comp = lam_new * s_new - mu
                if r_new @ r_new + comp @ comp <= (1.0 - 0.01 * alpha) ** 2 * base_sq:
                    break
            alpha *= 0.5
            backtracks += 1
        else:
            # stuck at numerical precision; report what we have
            status = OPTIMAL if gap + dual_norm <= tol else ITERATION_LIMIT
            steps = it
            break
        x, sig, r_dual, s, lam = x_new, sig_new, r_new, s_new, lam_new

    # weak duality: c . z <= c . x + lam_row . s_row + r . (z - x) for every
    # feasible z, with r = c - J^T lam_row, and r . (z - x) peaks at a corner
    # of the box
    bound = np.inf
    if box.size == 2 * dim:
        r = c - program.transpose_times(sig, lam[:rows])
        bound = float(c @ x + lam[:rows] @ s[:rows]
                      + np.maximum(r * (lo - x), r * (hi - x)).sum())
    kkt = float(s @ lam) + math.sqrt(r_dual @ r_dual)
    return SolveReport(x, float(c @ x), status, kkt, steps, ridges, backtracks, bound)


def solve(program, x0, tol=1e-8):
    """Solve the program to within ``tol`` of its optimal value.

    ``x0`` must be strictly feasible: strictly inside the box and every
    constraint row negative; otherwise a ValueError names the first bound
    or row it breaks.  The report's ``kkt_residual`` is the certified
    optimality measure: complementarity sum plus dual residual norm.
    Its ``bound`` is a weak-duality upper bound on the optimal value,
    which holds at any multipliers; it is infinite when a bound of the
    box is.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    x = np.asarray(x0, dtype=float)
    g, sig = _check_start(program, x)
    return _pd_solve(program, tol, x, g, sig)
