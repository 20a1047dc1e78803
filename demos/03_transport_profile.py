"""The transport-cost profile behind the separation oracle.

For one sample, the worst-case scenario search reduces to a scalar
problem: every point of the class region maps to a link value
u = theta_0 + theta_1: . s, and what matters is the cheapest L1 transport
cost D(u) needed to move the sample to some region point achieving u.
D is piecewise linear and convex, so the oracle only inspects its
breakpoints instead of the whole box.  The logistic loss is monotone in
u, and a move that lowers it costs more than the anchor (the sample
clipped to its box), so only n'+1 breakpoints count: the anchor, then
one per nonzero weight, in the direction the loss rises.

Every sample shares theta, so the profiles of a whole block of samples
come from one sweep: ``transport_profile`` takes the block and returns
one row of breakpoints per sample, and ``CandidateTables`` builds every
sample's candidates once per theta, so its ``separate`` maximizes every
sample's constraint at once, at any multipliers.

The tables below print that half of D for one sample (label 1, whose
loss rises as u falls) and then show how the worst
scenario moves as the transport price (the budget multiplier) changes:
a high price pins the scenario at the sample itself, a low price lets it
run to the most damaging corner of the region.
"""

import numpy as np

from wassrobust import (
    BoxRegion,
    CandidateTables,
    Dataset,
    ProblemData,
    transport_profile,
)


def main():
    features = np.array([[0.5, -0.2], [-0.8, 0.4], [0.2, 1.1], [-0.3, -0.9]])
    labels = np.array([1, 0, 1, 0])
    dataset = Dataset.from_arrays(features, labels)
    regions = {
        1: BoxRegion(np.array([-1.5, -1.5]), np.array([1.5, 1.5]), 1),
        0: BoxRegion(np.array([-1.5, -1.5]), np.array([1.5, 1.5]), 0),
    }
    data = ProblemData.assemble(dataset, regions, radius=0.2, theta_radius=10.0)

    theta = np.array([0.3, 1.2, -0.7])
    i = 0
    # one block: the profiles of every sample of sample i's class
    block = np.flatnonzero(labels == labels[i])
    profile = transport_profile(theta, regions[int(labels[i])], features[block])
    row = int(np.flatnonzero(block == i)[0])

    print(f"sample {i} at {features[i]}, label {labels[i]}, theta {theta}")
    print(f"link value at the sample itself: "
          f"{theta[0] + features[i] @ theta[1:]:.4f}")
    print()
    way = "falls" if labels[i] == 1 else "rises"
    print(f"the {profile.breakpoints.shape[1]} breakpoints of D as u {way}, "
          "from the anchor:")
    print(f"{'link value u':>14} {'cheapest L1 cost D(u)':>22}")
    for u, c in zip(profile.breakpoints[row], profile.costs[row]):
        print(f"{u:>14.4f} {c:>22.4f}")
    print()

    lower, _ = data.multiplier_box()
    tables = CandidateTables(theta, data)
    print(f"{'price':>8} {'worst scenario':>24} {'moved by':>10} {'violation':>11}")
    for price in (4.0, 1.0, 0.25, 0.05):
        mult = np.concatenate([np.full(dataset.m, lower[0] + 0.05), [price]])
        # one sweep over all samples; row i is sample i's worst scenario
        points, violations = tables.separate(mult)
        dist = np.abs(points[i] - features[i]).sum()
        print(f"{price:>8.2f} {np.round(points[i], 4)!s:>24} "
              f"{dist:>10.4f} {violations[i]:>11.4f}")
    print()
    print("the kinks of D sit where the witness puts one more coordinate on")
    print("a box face; the oracle scores exactly these kinks, which is why")
    print("it is exact and needs no grid")


if __name__ == "__main__":
    main()
