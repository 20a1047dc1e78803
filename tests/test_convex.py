"""Interior-point kernel against brute-force oracles on small programs."""

import itertools
import math

import numpy as np
import pytest

from wassrobust.convex import (
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
    """Random LP over the box [-3, 3]^d with a strictly feasible ``inner``."""
    rng = np.random.default_rng(seed)
    c = rng.normal(size=d)
    coeffs = rng.normal(size=(rows, d))
    lower = np.full(d, -3.0)
    upper = np.full(d, 3.0)
    inner = rng.uniform(-1.0, 1.0, size=d)
    offsets = -(coeffs @ inner) - rng.uniform(0.1, 1.0, size=rows)
    return c, coeffs, offsets, lower, upper, inner


def test_single_linear_row_hand_case():
    prog = ConvexProgram(np.array([1.0]), np.array([-5.0]), np.array([5.0]),
                         [LinearConstraints([[1.0]], [-1.0])])
    report = solve(prog, np.zeros(1))
    assert report.status == OPTIMAL
    assert report.objective == pytest.approx(1.0, abs=1e-7)
    assert report.kkt_residual <= 1e-8


def test_box_only_optimum_hits_the_corner():
    c = np.array([2.0, -1.0, 0.5])
    prog = ConvexProgram(c, np.full(3, -1.0), np.full(3, 4.0), [])
    report = solve(prog, np.zeros(3))
    assert report.status == OPTIMAL
    assert np.allclose(report.solution, [4.0, -1.0, 4.0], atol=1e-6)


def test_lp_sweep_matches_vertex_enumeration():
    for seed in range(20):
        c, coeffs, offsets, lower, upper, inner = random_lp(seed)
        expected = lp_vertex_optimum(c, coeffs, offsets, lower, upper)
        prog = ConvexProgram(c, lower, upper,
                             [LinearConstraints(coeffs, offsets)])
        report = solve(prog, inner)
        assert report.status == OPTIMAL
        assert report.objective == pytest.approx(expected, abs=1e-7)
        vals = prog.constraint_values(report.solution)
        assert np.max(vals) <= 1e-10
        assert np.all(report.solution >= lower - 1e-10)
        assert np.all(report.solution <= upper + 1e-10)


def test_adding_a_row_never_improves_the_optimum():
    for seed in range(10):
        c, coeffs, offsets, lower, upper, inner = random_lp(seed + 100, rows=6)
        full = solve(ConvexProgram(c, lower, upper,
                                   [LinearConstraints(coeffs, offsets)]), inner)
        part = solve(ConvexProgram(c, lower, upper,
                                   [LinearConstraints(coeffs[:3], offsets[:3])]), inner)
        assert full.status == OPTIMAL and part.status == OPTIMAL
        assert full.objective <= part.objective + 1e-7


def test_halving_tolerance_is_consistent():
    for seed in (0, 1, 2):
        c, coeffs, offsets, lower, upper, inner = random_lp(seed + 200)
        prog = ConvexProgram(c, lower, upper,
                             [LinearConstraints(coeffs, offsets)])
        v1 = solve(prog, inner, tol=1e-6).objective
        v2 = solve(prog, inner, tol=5e-7).objective
        assert abs(v1 - v2) <= 1e-6


def test_repeat_solves_are_bitwise_identical():
    c, coeffs, offsets, lower, upper, inner = random_lp(7)
    prog = ConvexProgram(c, lower, upper, [LinearConstraints(coeffs, offsets)])
    a = solve(prog, inner)
    b = solve(prog, inner)
    assert np.array_equal(a.solution, b.solution)
    assert a.objective == b.objective


def test_softplus_row_hand_case():
    # maximize x subject to softplus(x) <= 2: x* = log(e^2 - 1)
    block = SoftplusConstraints([[1.0]], [0.0], [[0.0]], [-2.0])
    prog = ConvexProgram(np.array([1.0]), np.array([-5.0]), np.array([5.0]),
                         [block])
    report = solve(prog, np.zeros(1))
    assert report.status == OPTIMAL
    assert report.objective == pytest.approx(math.log(math.exp(2.0) - 1.0), abs=1e-7)


def test_infeasible_program_is_reported():
    # x <= -1 against the box [0, 2]: every start inside the box breaks row 0
    prog = ConvexProgram(np.array([1.0]), np.array([0.0]), np.array([2.0]),
                         [LinearConstraints([[1.0]], [1.0])])
    for start in (0.5, 1.0, 1.5):
        with pytest.raises(ValueError,
                           match=f"constraint row 0 has value {start + 1.0}"):
            solve(prog, [start])


def test_start_that_is_not_strictly_feasible_is_rejected():
    # x0 <= 1 and x1 <= 2 over the box [0, 3]^2
    prog = ConvexProgram(np.array([1.0, 1.0]), np.zeros(2), np.full(2, 3.0),
                         [LinearConstraints(np.eye(2), [-1.0, -2.0])])
    assert solve(prog, [0.5, 0.5]).objective == pytest.approx(3.0, abs=1e-7)
    with pytest.raises(ValueError, match=r"x\[0\] = 0\.0 for bounds \[0\.0, 3\.0\]"):
        solve(prog, [0.0, 0.5])
    with pytest.raises(ValueError, match=r"x\[1\] = 4\.0 for bounds \[0\.0, 3\.0\]"):
        solve(prog, [0.5, 4.0])
    with pytest.raises(ValueError, match=r"x\[0\] = nan"):
        solve(prog, [np.nan, 0.5])
    with pytest.raises(ValueError, match="constraint row 1 has value 0.5"):
        solve(prog, [0.5, 2.5])
    with pytest.raises(ValueError, match="constraint row 0 has value 0.0"):
        solve(prog, [1.0, 2.5])
    with pytest.raises(ValueError, match="shape"):
        solve(prog, [0.5])


def test_half_infinite_box():
    prog = ConvexProgram(np.array([1.0]), np.array([-np.inf]), np.array([3.0]), [])
    report = solve(prog, np.zeros(1))
    assert report.status == OPTIMAL
    assert report.objective == pytest.approx(3.0, abs=1e-7)


def test_unconstrained_nonzero_objective_is_rejected():
    prog = ConvexProgram(np.array([1.0]), np.array([-np.inf]), np.array([np.inf]), [])
    with pytest.raises(ValueError):
        solve(prog, np.zeros(1))


def test_iteration_cap_is_honest():
    c, coeffs, offsets, lower, upper, inner = random_lp(13)
    prog = ConvexProgram(c, lower, upper, [LinearConstraints(coeffs, offsets)])
    report = solve(prog, inner, max_newton=1)
    assert report.status == ITERATION_LIMIT


def test_program_validation():
    with pytest.raises(ValueError):
        ConvexProgram(np.array([1.0]), np.array([2.0]), np.array([2.0]), [])
    with pytest.raises(ValueError):
        LinearConstraints([[1.0, 0.0]], [0.0, 0.0])
    with pytest.raises(ValueError):
        ConvexProgram(np.array([1.0, 0.0]), np.full(2, 0.0), np.full(2, 1.0),
                      [LinearConstraints([[1.0]], [0.0])])
