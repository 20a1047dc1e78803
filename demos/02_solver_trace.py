"""Walk through one cutting-surface solve, master by master.

The solver maximizes a centrality margin w inside the region cut out by
the constraints found so far plus a level row f + (1 + B) w <= M that
keeps the objective f below the cap M.  After
each master, a sweep adds the violated scenario constraints and
completes the master's theta: the completion is the exactly feasible
point with that theta of least objective, the robust value J(theta).
Only completions become the incumbent: one is adopted, and lowers the
cap, when the iterate is eps-feasible and the completion lies below the
cap, or when it closes the gap to the lower bound at the guaranteed
rate.  Once the margin vanishes, the plain master over the
cuts gives a certified lower bound, and the solve stops when the cap is
within eps of it.
"""

import numpy as np

from wassrobust import (
    ProblemData,
    build_regions,
    Dataset,
    objective_f,
    solve_cutting_surface,
)


def make_instance():
    rng = np.random.default_rng(3)
    features = rng.normal(size=(12, 2))
    labels = (features @ np.array([1.0, -0.5]) > 0).astype(int)
    dataset = Dataset.from_arrays(features, labels)
    regions = build_regions(dataset)
    return ProblemData.assemble(dataset, regions, radius=0.15, theta_radius=10.0)


def main():
    data = make_instance()
    point, trace = solve_cutting_surface(data, eps=1e-6)

    print(f"m={data.dataset.m} samples, radius {data.radius}")
    print(f"margin constant B' = {data.derived.centering_bound:.4f}, "
          f"guaranteed gap ratio <= {data.derived.rate_bound:.6f}")
    print()
    def fmt(value, spec, width):
        return ("-" if value is None else format(value, spec)).rjust(width)

    print(f"{'iter':>4} {'margin w':>12} {'violation':>12} {'cuts':>5} "
          f"{'cap M':>12} {'adopted':>11}")
    for rec in trace.records:
        print(f"{rec.iteration:>4}"
              f"{fmt(rec.margin, '.6f', 13)}"
              f"{fmt(rec.violation, '.3e', 13)}"
              f" {rec.cut_count:>5}"
              f"{fmt(rec.cap, '.8f', 13)}"
              f" {rec.adopted or '-':>11}")
    print()
    print(f"status {trace.status} after {trace.iterations} master solves, "
          f"{trace.cut_count} cuts kept")
    print(f"objective {objective_f(point, data.radius):.8f} = robust value "
          f"{trace.robust_value:.8f}, final violation {trace.final_violation:.2e}")
    print(f"lower bound {trace.lower_bound:.8f}, certified gap "
          f"{trace.robust_value - trace.lower_bound:.2e} <= eps")
    print()
    print("a row with a large violation adds cuts; a row whose violation is")
    print("below eps adopts its completion if that lowers the cap.  Once the margin")
    print("falls to zero, the next row is the plain master over the cuts (it")
    print("has no margin): its value is the lower bound that certifies the gap")


if __name__ == "__main__":
    main()
