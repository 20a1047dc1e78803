"""Interior-point kernel on small master programs, against oracles that
share no code with the program."""

import math
import re

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from wassrobust import BoxRegion, CutPool, Dataset, DualPoint, ProblemData, Scenario
from wassrobust import constraint_g, convex, objective_f, solve_nominal
from wassrobust.convex import ITERATION_LIMIT, OPTIMAL, _solve_spd, solve
from wassrobust.reformulate import (
    build_exchange_master,
    build_master,
    exchange_interior_point,
    master_interior_point,
)

from conftest import box_problem, cut_pool


def corner_cuts(data, seed):
    """Each sample's own point and one random corner of its class box."""
    rng = np.random.default_rng(seed)
    feats, labels = data.dataset.features, data.dataset.labels
    cuts = []
    for i in range(data.m):
        region = data.region_for_sample(i)
        corner = np.where(rng.random(data.dataset.n) < 0.5, region.lower, region.upper)
        cuts += [Scenario(feats[i], i, int(labels[i])), Scenario(corner, i, int(labels[i]))]
    return cuts


def small_masters(seed, cuts=None):
    """(data, cuts, [(plain master, start), (centered master, start)]);
    ``cuts`` are those the pool kept, in its order."""
    data = box_problem(seed, m=6, n=2)
    pool = cut_pool(data, corner_cuts(data, seed) if cuts is None else cuts)
    cuts = [Scenario(point, i, int(data.dataset.labels[i]))
            for i, point in zip(pool.samples, pool.points)]
    cap = data.derived.objective_cap
    return data, cuts, [(build_exchange_master(data, pool), exchange_interior_point(data)),
                        (build_master(data, pool, cap), master_interior_point(data, pool, cap))]


def test_level_rows_hand_case():
    # over no cuts the centered master keeps its linear level row
    # f + (1 + B) w <= cap, with w unbounded: the multipliers sit at
    # their lower corner, f = loss_lower, and
    # w* = (cap - loss_lower) / (1 + B)
    data = box_problem(1, m=6, n=2)
    der = data.derived
    pool = CutPool(data)
    cap = der.objective_cap
    report = solve(build_master(data, pool, cap), master_interior_point(data, pool, cap))
    assert report.status == OPTIMAL
    assert report.objective == pytest.approx(
        (cap - der.loss_lower) / (1.0 + der.centering_bound), abs=1e-7)
    assert report.kkt_residual <= 1e-8


def test_box_only_optimum_hits_the_corner():
    # over no cuts the plain master minimizes the dual objective over the
    # multiplier box alone: every multiplier at its lower bound
    data = box_problem(2, m=6, n=2)
    report = solve(build_exchange_master(data, CutPool(data)), exchange_interior_point(data))
    assert report.status == OPTIMAL
    lower, _ = data.multiplier_box()
    assert np.allclose(report.solution[data.theta_size:], lower, atol=1e-6)


def test_softplus_row_hand_case():
    # one sample at x = 1 (label 1) and one cut at x = -1, two away:
    # softplus(-t0 + t1) - s - 2 beta <= 0 over t in [-2, 2]^2.  The best
    # theta gives softplus(-4); beta buys s down to its lower bound
    # softplus(-6) at half a unit per unit of s, which pays at radius 0.5
    ds = Dataset.from_arrays(np.array([[1.0]]), [1])
    regions = {1: BoxRegion(np.array([-1.0]), np.array([2.0]), 1)}
    data = ProblemData.assemble(ds, regions, radius=0.5, theta_radius=2.0)
    pool = cut_pool(data, [Scenario(np.array([-1.0]), 0, 1)])
    report = solve(build_exchange_master(data, pool), exchange_interior_point(data))
    assert report.status == OPTIMAL
    low, row = math.log1p(math.exp(-6.0)), math.log1p(math.exp(-4.0))
    assert -report.objective == pytest.approx(low + 0.25 * (row - low), abs=1e-7)


def test_small_masters_match_slsqp():
    """Plain masters against SLSQP on the same problem written from
    ``objective_f`` and ``constraint_g``."""
    for seed in range(5):
        data, cuts, [(program, x0), _] = small_masters(seed)
        report = solve(program, x0)
        assert report.status == OPTIMAL
        n_theta, loss, ds = data.theta_size, data.loss, data.dataset

        def point(v):
            return DualPoint(v[:n_theta], v[n_theta:])

        rows = [{"type": "ineq", "fun": lambda v, c=c: -constraint_g(
            point(v), c.sample_index, c, loss, ds)} for c in cuts]
        mult_lo, mult_hi = data.multiplier_box()
        bounds = list(zip(np.concatenate([data.theta_lower, mult_lo]),
                          np.concatenate([data.theta_upper, mult_hi])))
        ref = scipy.optimize.minimize(lambda v: objective_f(point(v), data.radius), x0,
                                      method="SLSQP", bounds=bounds, constraints=rows,
                                      options={"ftol": 1e-14, "maxiter": 1000})
        assert ref.success
        assert -report.objective == pytest.approx(ref.fun, abs=1e-6)
        got = point(report.solution)
        assert max(constraint_g(got, c.sample_index, c, loss, ds) for c in cuts) <= 1e-10


def test_adding_a_row_never_improves_the_optimum():
    for seed in range(4):
        data, cuts, masters = small_masters(10 + seed)
        _, _, part = small_masters(10 + seed, cuts=cuts[: len(cuts) // 2])
        for (full_prog, full_x0), (part_prog, part_x0) in zip(masters, part):
            full, fewer = solve(full_prog, full_x0), solve(part_prog, part_x0)
            assert full.status == OPTIMAL and fewer.status == OPTIMAL
            assert full.objective <= fewer.objective + 1e-7


def epigraph_rows(data, cuts, v):
    """Values and Jacobian of the centered master written with the
    epigraph variable t over [theta, s, beta, w, t]: the level rows
    t + w <= cap and f - t + B w <= 0, with f = mean(s) + radius * beta,
    then the cut rows of ``dense_rows``."""
    n_theta, m = data.theta_size, data.m
    w, t = n_theta + m + 1, n_theta + m + 2
    level = np.zeros((2, v.size))
    level[0, [w, t]] = 1.0
    level[1, n_theta : n_theta + m] = 1.0 / m
    level[1, n_theta + m] = data.radius
    level[1, t], level[1, w] = -1.0, data.derived.centering_bound
    values, jac, _ = dense_rows(data, cuts, v[:-1], centered=True)
    return (np.concatenate([level @ v - [data.derived.objective_cap, 0.0], values[1:]]),
            np.vstack([level, np.pad(jac[1:], ((0, 0), (0, 1)))]))


def test_centered_master_matches_epigraph_program():
    """The centered master's optimal margin w against SLSQP on the
    program that keeps the epigraph variable t: t only restates the level
    row, so both have the same optimum.  SLSQP often reports a loss of
    precision at its optimum, so its row values are checked instead of
    its success flag."""
    for seed in range(60, 70):
        data, cuts, [_, (centered, x_centered)] = small_masters(seed)
        report = solve(centered, x_centered)
        assert report.status == OPTIMAL
        cap = data.derived.objective_cap
        start = np.concatenate([x_centered, [cap - x_centered[-1] - 1.0]])
        bounds = [(lo, hi) if np.isfinite(lo) else (None, None)
                  for lo, hi in zip(centered.lower, centered.upper)] + [(None, None)]
        result = scipy.optimize.minimize(
            lambda v: -v[-2], start, jac=lambda v: -np.eye(v.size)[-2],
            method="SLSQP", bounds=bounds,
            constraints=[{"type": "ineq", "fun": lambda v: -epigraph_rows(data, cuts, v)[0],
                          "jac": lambda v: -epigraph_rows(data, cuts, v)[1]}],
            options={"ftol": 1e-14, "maxiter": 500})
        assert epigraph_rows(data, cuts, result.x)[0].max() <= 1e-9
        assert report.objective == pytest.approx(result.x[-2], rel=1e-6)


def test_weak_duality_bound_holds_at_any_multipliers(monkeypatch):
    # the plain master's bound brackets its optimum with the returned
    # value, and holds even after a step or three; the centered master
    # has unbounded w, so it has none
    for seed in range(4):
        _, _, [(plain, x0), (centered, x_centered)] = small_masters(50 + seed)
        best = solve(plain, x0)
        assert best.status == OPTIMAL
        assert best.objective <= best.bound <= best.objective + 1e-8
        for steps in (1, 3, 10):
            monkeypatch.setattr(convex, "MAX_NEWTON", steps)
            assert solve(plain, x0).bound >= best.objective
        monkeypatch.undo()
        assert solve(centered, x_centered).bound == math.inf


def test_halving_tolerance_is_consistent():
    for seed in (20, 21, 22):
        for program, x0 in small_masters(seed)[2]:
            v1 = solve(program, x0, tol=1e-6).objective
            v2 = solve(program, x0, tol=5e-7).objective
            assert abs(v1 - v2) <= 1e-6


def test_repeat_solves_are_bitwise_identical():
    for program, x0 in small_masters(7)[2]:
        a, b = solve(program, x0), solve(program, x0)
        assert np.array_equal(a.solution, b.solution)
        assert a.objective == b.objective


def test_infeasible_program_is_reported():
    # a start on the wrong side of a row is reported by that row
    data, cuts, [(plain, x_plain), (centered, x_centered)] = small_masters(3)
    n_theta, cap = data.theta_size, data.derived.objective_cap
    for excess in (0.5, 1.0, 2.0):
        x = x_centered.copy()
        x[-1] = (cap + excess - level_objective(data, x)) / (1.0 + data.derived.centering_bound)
        value = centered.evaluate(x)[0][0]
        assert value == pytest.approx(excess, abs=1e-12)
        with pytest.raises(ValueError, match=re.escape(f"constraint row 0 has value {value},")):
            solve(centered, x)
    # sample 0's own point is cut 0; at theta = 0 its loss is log 2
    x = x_plain.copy()
    x[n_theta] = 0.25
    with pytest.raises(ValueError, match="constraint row 0 has value 0.44"):
        solve(plain, x)


def test_start_that_is_not_strictly_feasible_is_rejected():
    data, cuts, [(program, x0), (centered, x_centered)] = small_masters(4)
    assert solve(program, x0).status == OPTIMAL
    lo, hi = program.lower, program.upper
    s0 = data.theta_size
    for j, value in ((0, lo[0]), (s0, hi[s0]), (s0 + 1, lo[s0 + 1] - 1.0)):
        x = x0.copy()
        x[j] = value
        with pytest.raises(ValueError, match=re.escape(
                f"x[{j}] = {value} for bounds [{lo[j]}, {hi[j]}]")):
            solve(program, x)
    x = x0.copy()
    x[0] = np.nan
    with pytest.raises(ValueError, match=r"x\[0\] = nan"):
        solve(program, x)
    with pytest.raises(ValueError, match="shape"):
        solve(program, x0[:-1])
    # w on the level row's bound f + (1 + B) w = cap, rounded up onto it
    x = x_centered.copy()
    x[-1] = (data.derived.objective_cap - level_objective(data, x)) \
        / (1.0 + data.derived.centering_bound)
    while centered.evaluate(x)[0][0] < 0.0:
        x[-1] = np.nextafter(x[-1], np.inf)
    value = centered.evaluate(x)[0][0]
    assert 0.0 <= value <= 1e-12
    with pytest.raises(ValueError, match=re.escape(f"constraint row 0 has value {value},")):
        solve(centered, x)
    # sample 1's own point is its first cut; at theta = 0 its loss is
    # log 2, so s_1 = 0.25 breaks that row and leaves sample 0's rows
    row = next(j for j, c in enumerate(cuts) if c.sample_index == 1)
    assert row >= 1 and np.array_equal(cuts[row].point, data.dataset.features[1])
    x = x0.copy()
    x[s0 + 1] = 0.25
    with pytest.raises(ValueError, match=f"constraint row {row} has value 0.4431"):
        solve(program, x)


def test_iteration_cap_is_honest(monkeypatch):
    monkeypatch.setattr(convex, "MAX_NEWTON", 1)
    for program, x0 in small_masters(13)[2]:
        report = solve(program, x0)
        assert report.status == ITERATION_LIMIT
        assert report.iterations == 1


def test_iteration_limit_reports_gap_plus_dual_residual(monkeypatch):
    # a solve whose tolerance admits the point after one step stops there
    # as optimal and reports gap + dual residual norm; the solve capped at
    # that one step must report the same measure, not the gap alone.  The
    # dual residual after one step is not negligible here (about 0.9 and
    # 0.13 against totals of 27 and 6.9)
    for program, x0 in small_masters(13)[2]:
        monkeypatch.setattr(convex, "MAX_NEWTON", 1)
        capped = solve(program, x0)
        monkeypatch.setattr(convex, "MAX_NEWTON", 2)
        loose = solve(program, x0, tol=2.0 * capped.kkt_residual)
        assert capped.status == ITERATION_LIMIT and loose.status == OPTIMAL
        assert loose.iterations == 1
        assert np.array_equal(loose.solution, capped.solution)
        assert capped.kkt_residual == loose.kkt_residual


def test_start_near_the_atom_cuts_still_solves():
    # the plain master over the atom cuts of a 200 x 13 blob, started at
    # theta = 0 with every sample multiplier at log 2 + 0.1: strictly
    # feasible for any pool, since every cut's loss at theta = 0 is log 2.
    # The rows are tight at the start, so most steps are cut back, and a
    # barrier weight cut tenfold after every step ran out of steps here
    data = box_problem(0, m=200, n=13, radius=0.1)
    feats, labels = data.dataset.features, data.dataset.labels
    pool = cut_pool(data, [Scenario(feats[i], i, int(labels[i])) for i in range(data.m)])
    x0 = exchange_interior_point(data)
    x0[data.theta_size : data.theta_size + data.m] = math.log(2.0) + 0.1
    report = solve(build_exchange_master(data, pool), x0)
    assert report.status == OPTIMAL
    _, average_loss, _ = solve_nominal(data)
    assert abs(-report.objective - average_loss) <= 1e-6


def test_newton_matrix_that_no_ridge_fixes_raises():
    with pytest.raises(scipy.linalg.LinAlgError, match=r"size 1x1 .* ridge of 1e-06"):
        _solve_spd(np.array([[-1.0]]), np.ones(1))


def level_objective(data, x):
    """The dual objective f = mean(s) + radius * beta at the master
    point ``x`` = [theta, s, beta, w]."""
    n_theta, m = data.theta_size, data.m
    return float(x[n_theta : n_theta + m].mean() + data.radius * x[n_theta + m])


def dense_rows(data, cuts, x, centered):
    """Values, Jacobian and curvature weights of every row at ``x``, from
    the closed form: cut j of sample i at point p has the value
    softplus(a . theta) - s_i - |p - x_i|_1 beta (+ B w) with
    a = -(2y - 1) (1, p); its gradient in theta is sigmoid(a . theta) a
    and its Hessian sigmoid (1 - sigmoid) a a^T.  The centered master's
    level row f + (1 + B) w - cap <= 0 is linear, with the cap of
    ``small_masters``."""
    n_theta, m = data.theta_size, data.m
    values, jac, curv = [], [], []
    if centered:
        level = np.zeros(x.size)
        level[n_theta : n_theta + m] = 1.0 / m
        level[n_theta + m] = data.radius
        level[n_theta + m + 1] = 1.0 + data.derived.centering_bound
        values.append(level @ x - data.derived.objective_cap)
        jac.append(level)
        curv.append(np.zeros((n_theta, n_theta)))
    for c in cuts:
        i = c.sample_index
        a = -(2.0 * c.label - 1.0) * np.concatenate([[1.0], c.point])
        score = float(a @ x[:n_theta])
        sig = 1.0 / (1.0 + math.exp(-score))
        row = np.zeros(x.size)
        row[:n_theta] = sig * a
        row[n_theta + i] = -1.0
        row[n_theta + m] = -np.abs(c.point - data.dataset.features[i]).sum()
        if centered:
            row[n_theta + m + 1] = data.derived.centering_bound
        softplus = max(score, 0.0) + math.log1p(math.exp(-abs(score)))
        values.append(softplus + row[n_theta:] @ x[n_theta:])
        jac.append(row)
        curv.append(sig * (1.0 - sig) * np.outer(a, a))
    return np.array(values), np.array(jac), curv


def dense_newton_matrix(data, cuts, program, x, lam, weights, box):
    """J^T diag(weights) J + sum_j lam_j hess(g_j) + diag(box) from
    ``dense_rows``, with the Jacobian J^T lam beside it."""
    _, jac, curv = dense_rows(data, cuts, x, program.centered is not None)
    hess = jac.T @ (weights[:, None] * jac) + np.diag(box)
    n_theta = data.theta_size
    hess[:n_theta, :n_theta] += sum(l * h for l, h in zip(lam, curv))
    return hess, jac.T @ lam


def random_newton_inputs(program, rng):
    """A point inside the box (infinite sides clipped), row multipliers
    and box weights for ``newton_solve``."""
    lower = np.where(np.isfinite(program.lower), program.lower, -5.0)
    upper = np.minimum(np.where(np.isfinite(program.upper), program.upper, 5.0),
                       lower + 20.0)
    lam = rng.uniform(0.1, 5.0, program.constraint_rows)
    return rng.uniform(lower, upper), lam, rng.uniform(0.0, 3.0, program.dim)


def test_newton_solve_matches_dense_closed_form():
    """The row values, J dx, J^T lam and the Newton step of the plain
    master, which has no level row, and of the centered one."""
    rng = np.random.default_rng(3)
    for seed in range(3):
        data, cuts, masters = small_masters(30 + seed)
        for program, _ in masters:
            centered = program.centered is not None
            for _ in range(4):
                x, lam, box = random_newton_inputs(program, rng)
                weights = rng.uniform(0.1, 5.0, program.constraint_rows)
                rhs = rng.normal(size=program.dim)
                hess, jt_lam = dense_newton_matrix(data, cuts, program, x, lam, weights, box)
                values, jac, _ = dense_rows(data, cuts, x, centered)
                g, sig = program.evaluate(x)
                assert np.abs(g - values).max() <= 1e-12 * np.abs(values).max()
                dx, ridges = program.newton_solve(sig, lam, weights, box, rhs)
                expected = np.linalg.solve(hess, rhs)
                assert ridges == 0
                assert np.abs(dx - expected).max() <= 1e-10 * np.abs(expected).max()
                jdx = program.times(sig, dx)
                assert np.abs(jdx - jac @ dx).max() <= 1e-10 * np.abs(jac @ dx).max()
                jt = program.transpose_times(sig, lam)
                assert np.abs(jt - jt_lam).max() <= 1e-10 * np.abs(jt_lam).max()


def test_newton_solve_keeps_digits_at_extreme_weights():
    """Row weights spanning 1e-6 to 1e20, as near the end of a solve,
    where active rows have tiny slacks, with every row in turn at 1e20:
    the step still solves the dense system to a small relative residual.
    The right-hand side H z carries the matrix's scale, so the residual
    of an exact solve rounds to far below the bound."""
    rng = np.random.default_rng(5)
    for seed in range(2):
        data, cuts, masters = small_masters(40 + seed)
        for program, _ in masters:
            for heavy in range(program.constraint_rows):
                x, lam, box = random_newton_inputs(program, rng)
                weights = 10.0 ** rng.uniform(-6.0, 20.0, program.constraint_rows)
                weights[heavy] = 1e20
                hess, _ = dense_newton_matrix(data, cuts, program, x, lam, weights, box)
                rhs = hess @ rng.normal(size=program.dim)
                _, sig = program.evaluate(x)
                dx, _ = program.newton_solve(sig, lam, weights, box, rhs)
                residual = np.linalg.norm(hess @ dx - rhs) / np.linalg.norm(rhs)
                assert residual <= 1e-10, (program.centered, heavy, residual)


def test_each_point_is_evaluated_once():
    """A master solve evaluates each point once, and only points inside
    the feasible set have their Jacobian used.  Every trial point x_t
    keeps each row's linearization at the last accepted point x strictly
    negative, g(x) + J(x)(x_t - x) < 0: the step to the boundary covers
    it, and only the rows' curvature can make a trial infeasible."""
    data = box_problem(3, m=12, n=3)
    feats, labels = data.dataset.features, data.dataset.labels
    regions = [data.region_for_sample(i) for i in range(data.m)]
    cuts = [Scenario(feats[i], i, int(labels[i])) for i in range(data.m)]
    cuts += [Scenario(r.upper, i, int(labels[i])) for i, r in enumerate(regions)]
    cuts += [Scenario(r.lower, i, int(labels[i])) for i, r in enumerate(regions)]
    pool = cut_pool(data, cuts)
    cap = data.derived.objective_cap
    prog = build_master(data, pool, cap)
    evaluated, feasible, used = {}, {}, set()
    evaluate, transpose_times, times = prog.evaluate, prog.transpose_times, prog.times
    # points by the id of their sigmoid; the step's J dx is taken at the
    # accepted point, so ``times`` names it
    points, accepted, linearized = {}, [], []

    def counted_evaluate(x):
        evaluated[x.tobytes()] = evaluated.get(x.tobytes(), 0) + 1
        g, sig = evaluate(x)
        feasible[id(sig)] = (bool(np.all(g < 0.0)), sig)
        points[id(sig)] = (x, g, sig)
        if accepted:
            x_acc, g_acc, sig_acc = accepted[-1]
            linearized.append(float((g_acc + times(sig_acc, x - x_acc)).max()))
        return g, sig

    def recorded_transpose_times(sig, lam):
        used.add(id(sig))
        return transpose_times(sig, lam)

    def recorded_times(sig, dx):
        accepted.append(points[id(sig)])
        return times(sig, dx)

    prog.evaluate = counted_evaluate
    prog.transpose_times = recorded_transpose_times
    prog.times = recorded_times
    report = solve(prog, master_interior_point(data, pool, cap))
    assert report.status == OPTIMAL
    assert max(evaluated.values()) == 1
    assert used and all(feasible[key][0] for key in used)
    assert len(used) < len(evaluated)
    assert len(linearized) == len(evaluated) - 1
    assert max(linearized) < 0.0
