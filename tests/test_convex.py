"""Interior-point kernel against brute-force oracles on small programs."""

import itertools
import math

import numpy as np
import pytest

from wassrobust.convex import (
    INFEASIBLE,
    ITERATION_LIMIT,
    OPTIMAL,
    ConvexProgram,
    LinearConstraints,
    SoftplusConstraints,
    solve,
)


def lp_vertex_optimum(c, coeffs, offsets, lower, upper):
    """Brute-force LP maximum of c.x s.t. coeffs@x+offsets<=0 over a box.

    Enumerates all basic points (d-subsets of the stacked constraint rows)
    and keeps the best feasible one.
    """
    d = c.size
    eye = np.eye(d)
    G = np.vstack([coeffs, eye, -eye])
    h = np.concatenate([-offsets, upper, -lower])
    best = None
    for rows in itertools.combinations(range(G.shape[0]), d):
        A = G[list(rows)]
        try:
            x = np.linalg.solve(A, h[list(rows)])
        except np.linalg.LinAlgError:
            continue
        if np.all(G @ x <= h + 1e-9):
            val = float(c @ x)
            if best is None or val > best:
                best = val
    return best


def random_lp(seed, d=5, rows=8):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=d)
    coeffs = rng.normal(size=(rows, d))
    lower = np.full(d, -3.0)
    upper = np.full(d, 3.0)
    inner = rng.uniform(-1.0, 1.0, size=d)
    offsets = -(coeffs @ inner) - rng.uniform(0.1, 1.0, size=rows)
    return c, coeffs, offsets, lower, upper


def test_single_linear_row_hand_case():
    prog = ConvexProgram(np.array([1.0]), np.array([-5.0]), np.array([5.0]),
                         [LinearConstraints([[1.0]], [-1.0])])
    report = solve(prog)
    assert report.status == OPTIMAL
    assert report.objective == pytest.approx(1.0, abs=1e-7)
    assert report.kkt_residual <= 1e-8


def test_box_only_optimum_hits_the_corner():
    c = np.array([2.0, -1.0, 0.5])
    prog = ConvexProgram(c, np.full(3, -1.0), np.full(3, 4.0), [])
    report = solve(prog)
    assert report.status == OPTIMAL
    assert np.allclose(report.solution, [4.0, -1.0, 4.0], atol=1e-6)


def test_lp_sweep_matches_vertex_enumeration():
    for seed in range(20):
        c, coeffs, offsets, lower, upper = random_lp(seed)
        expected = lp_vertex_optimum(c, coeffs, offsets, lower, upper)
        prog = ConvexProgram(c, lower, upper,
                             [LinearConstraints(coeffs, offsets)])
        report = solve(prog)
        assert report.status == OPTIMAL
        assert report.objective == pytest.approx(expected, abs=1e-7)
        vals = prog.constraint_values(report.solution)
        assert np.max(vals) <= 1e-10
        assert np.all(report.solution >= lower - 1e-10)
        assert np.all(report.solution <= upper + 1e-10)


def test_adding_a_row_never_improves_the_optimum():
    for seed in range(10):
        c, coeffs, offsets, lower, upper = random_lp(seed + 100, rows=6)
        full = solve(ConvexProgram(c, lower, upper,
                                   [LinearConstraints(coeffs, offsets)]))
        part = solve(ConvexProgram(c, lower, upper,
                                   [LinearConstraints(coeffs[:3], offsets[:3])]))
        assert full.status == OPTIMAL and part.status == OPTIMAL
        assert full.objective <= part.objective + 1e-7


def test_halving_tolerance_is_consistent():
    for seed in (0, 1, 2):
        c, coeffs, offsets, lower, upper = random_lp(seed + 200)
        prog = ConvexProgram(c, lower, upper,
                             [LinearConstraints(coeffs, offsets)])
        v1 = solve(prog, tol=1e-6).objective
        v2 = solve(prog, tol=5e-7).objective
        assert abs(v1 - v2) <= 1e-6


def test_repeat_solves_are_bitwise_identical():
    c, coeffs, offsets, lower, upper = random_lp(7)
    prog = ConvexProgram(c, lower, upper, [LinearConstraints(coeffs, offsets)])
    a = solve(prog)
    b = solve(prog)
    assert np.array_equal(a.solution, b.solution)
    assert a.objective == b.objective


def test_softplus_row_hand_case():
    # maximize x subject to softplus(x) <= 2: x* = log(e^2 - 1)
    block = SoftplusConstraints([[1.0]], [0.0], [[0.0]], [-2.0])
    prog = ConvexProgram(np.array([1.0]), np.array([-5.0]), np.array([5.0]),
                         [block])
    report = solve(prog)
    assert report.status == OPTIMAL
    assert report.objective == pytest.approx(math.log(math.exp(2.0) - 1.0), abs=1e-7)


def test_infeasible_program_is_reported():
    # x <= -1 against the box [0, 2]
    prog = ConvexProgram(np.array([1.0]), np.array([0.0]), np.array([2.0]),
                         [LinearConstraints([[1.0]], [1.0])])
    report = solve(prog)
    assert report.status == INFEASIBLE


def test_bad_start_point_recovers_via_phase_one():
    c, coeffs, offsets, lower, upper = random_lp(9)
    prog = ConvexProgram(c, lower, upper, [LinearConstraints(coeffs, offsets)])
    base = solve(prog)
    # start outside the feasible region: solver must recover, not fail
    forced = solve(prog, x0=np.full(5, 2.9))
    assert forced.status == OPTIMAL
    assert forced.objective == pytest.approx(base.objective, abs=1e-6)


def test_half_infinite_box():
    prog = ConvexProgram(np.array([1.0]), np.array([-np.inf]), np.array([3.0]), [])
    report = solve(prog)
    assert report.status == OPTIMAL
    assert report.objective == pytest.approx(3.0, abs=1e-7)


def test_unconstrained_nonzero_objective_is_rejected():
    prog = ConvexProgram(np.array([1.0]), np.array([-np.inf]), np.array([np.inf]), [])
    with pytest.raises(ValueError):
        solve(prog)


def test_iteration_cap_is_honest():
    c, coeffs, offsets, lower, upper = random_lp(13)
    prog = ConvexProgram(c, lower, upper, [LinearConstraints(coeffs, offsets)])
    report = solve(prog, max_newton=1)
    assert report.status == ITERATION_LIMIT


def test_program_validation():
    with pytest.raises(ValueError):
        ConvexProgram(np.array([1.0]), np.array([2.0]), np.array([2.0]), [])
    with pytest.raises(ValueError):
        LinearConstraints([[1.0, 0.0]], [0.0, 0.0])
    with pytest.raises(ValueError):
        ConvexProgram(np.array([1.0, 0.0]), np.full(2, 0.0), np.full(2, 1.0),
                      [LinearConstraints([[1.0]], [0.0])])
