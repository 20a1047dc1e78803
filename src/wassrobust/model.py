"""Core data types for robust training problems.

A dataset describes the observed data; regions describe where
perturbed points are allowed to live (one region per class label); a
DualPoint carries the decision variables of the reformulated problem:
the loss parameters ``theta`` together with the vector of per-sample
multipliers plus one transport-budget multiplier.

All containers freeze their arrays after construction so instances can
be shared across threads without copying.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Dataset",
    "BoxRegion",
    "FiniteRegion",
    "Scenario",
    "DualPoint",
    "objective_f",
    "constraint_g",
]


def _frozen(values, dtype=float):
    arr = np.array(values, dtype=dtype, order="C")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Dataset:
    """Labelled observations: an (m, n) feature matrix and m 0/1 labels."""

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple | None = None

    def __post_init__(self):
        features = _frozen(self.features)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if features.shape[0] == 0:
            raise ValueError("dataset needs at least one sample")
        labels = np.asarray(self.labels)
        if labels.shape != (features.shape[0],):
            raise ValueError("labels length does not match feature rows")
        bad = np.flatnonzero(~np.isin(labels, (0, 1)))
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"row {i}: label must be 0 or 1, got {labels.tolist()[i]!r}")
        bad_rows, bad_cols = np.nonzero(~np.isfinite(features))
        if bad_rows.size:
            i, j = int(bad_rows[0]), int(bad_cols[0])
            raise ValueError(f"row {i}, column {j}: feature value {features[i, j]} "
                             "is not finite")
        if self.feature_names is not None:
            names = tuple(self.feature_names)
            if len(names) != features.shape[1]:
                raise ValueError("feature_names length does not match dimension")
            object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", _frozen(labels, dtype=int))

    @classmethod
    def from_arrays(cls, features, labels, feature_names=None):
        """Same as ``Dataset(features, labels, feature_names)``."""
        return cls(features, labels, feature_names)

    @classmethod
    def from_csv(cls, path, label_column):
        """Load a dataset from a CSV file with a header row.

        ``label_column`` names the 0/1 class column; every other column
        is parsed as a float feature, in file order.
        """
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ValueError(f"{path}: empty file") from None
            if label_column not in header:
                raise ValueError(f"{path}: no column named {label_column!r}")
            label_idx = header.index(label_column)
            feature_names = tuple(h for i, h in enumerate(header) if i != label_idx)
            rows, labels = [], []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise ValueError(f"{path}:{lineno}: expected {len(header)} fields")
                try:
                    values = [float(v) for i, v in enumerate(row) if i != label_idx]
                    raw = float(row[label_idx])
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: non-numeric field") from None
                if raw not in (0.0, 1.0):
                    raise ValueError(f"{path}:{lineno}: label must be 0 or 1, got {raw}")
                rows.append(values)
                labels.append(int(raw))
        if not rows:
            raise ValueError(f"{path}: no data rows")
        return cls(np.asarray(rows), np.asarray(labels), feature_names)

    @property
    def m(self):
        return self.features.shape[0]

    @property
    def n(self):
        return self.features.shape[1]

    def subset(self, indices):
        indices = np.asarray(indices, dtype=int)
        return Dataset(self.features[indices], self.labels[indices], self.feature_names)

    def class_counts(self):
        return int(np.sum(self.labels == 0)), int(np.sum(self.labels == 1))


@dataclass(frozen=True)
class BoxRegion:
    """Axis-aligned box of admissible perturbed points for one class."""

    lower: np.ndarray
    upper: np.ndarray
    label: int

    def __post_init__(self):
        object.__setattr__(self, "lower", _frozen(self.lower))
        object.__setattr__(self, "upper", _frozen(self.upper))
        if self.lower.shape != self.upper.shape or self.lower.ndim != 1:
            raise ValueError("lower and upper must be 1-D vectors of equal length")
        if np.any(self.lower > self.upper):
            raise ValueError("lower bound exceeds upper bound")
        if self.label not in (0, 1):
            raise ValueError("label must be 0 or 1")
        object.__setattr__(self, "label", int(self.label))

    @property
    def dimension(self):
        return self.lower.size

    def contains(self, point, tol=1e-9):
        point = np.asarray(point, dtype=float)
        return bool(np.all(point >= self.lower - tol) and np.all(point <= self.upper + tol))

    def clip(self, point):
        return np.clip(np.asarray(point, dtype=float), self.lower, self.upper)

    def max_l1_distance_from(self, point):
        """Largest L1 distance from ``point`` to any point of the box."""
        point = np.asarray(point, dtype=float)
        return float(np.sum(np.maximum(np.abs(self.lower - point), np.abs(self.upper - point))))

    def l1_norm_max(self):
        return float(np.sum(np.maximum(np.abs(self.lower), np.abs(self.upper))))

    def l2_norm_sq_max(self):
        return float(np.sum(np.maximum(self.lower**2, self.upper**2)))


@dataclass(frozen=True)
class FiniteRegion:
    """Finite set of admissible perturbed points for one class.

    Useful for small instances where the robust problem can be checked
    against full enumeration of the scenario set.
    """

    points: np.ndarray
    label: int

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("points must be a non-empty (k, n) array")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if self.label not in (0, 1):
            raise ValueError("label must be 0 or 1")
        object.__setattr__(self, "label", int(self.label))

    @property
    def dimension(self):
        return self.points.shape[1]

    def contains(self, point, tol=1e-9):
        point = np.asarray(point, dtype=float)
        return bool(np.min(np.max(np.abs(self.points - point), axis=1)) <= tol)

    def max_l1_distance_from(self, point):
        point = np.asarray(point, dtype=float)
        return float(np.max(np.sum(np.abs(self.points - point), axis=1)))

    def l1_norm_max(self):
        return float(np.max(np.sum(np.abs(self.points), axis=1)))

    def l2_norm_sq_max(self):
        return float(np.max(np.sum(self.points**2, axis=1)))


@dataclass(frozen=True)
class Scenario:
    """A candidate perturbed point attached to one training sample.

    The scenario's label always matches the sample's: perturbation never
    flips a class, it only moves the feature vector.
    """

    point: np.ndarray
    sample_index: int
    label: int

    def __post_init__(self):
        object.__setattr__(self, "point", _frozen(self.point))
        if self.point.ndim != 1:
            raise ValueError("point must be a 1-D vector")
        if self.sample_index < 0:
            raise ValueError("sample_index must be non-negative")
        if self.label not in (0, 1):
            raise ValueError("label must be 0 or 1")
        object.__setattr__(self, "sample_index", int(self.sample_index))
        object.__setattr__(self, "label", int(self.label))


@dataclass(frozen=True)
class DualPoint:
    """Decision variables of the reformulated robust problem.

    ``theta`` holds the loss parameters.  ``multipliers`` has one entry
    per training sample followed by a final entry: the per-sample value
    bounds and the transport-budget multiplier.  The budget multiplier
    must be non-negative.
    """

    theta: np.ndarray
    multipliers: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "theta", _frozen(self.theta))
        object.__setattr__(self, "multipliers", _frozen(self.multipliers))
        if self.theta.ndim != 1 or self.multipliers.ndim != 1:
            raise ValueError("theta and multipliers must be 1-D vectors")
        if self.multipliers.size < 2:
            raise ValueError("multipliers needs at least one sample entry plus the budget entry")
        if self.multipliers[-1] < 0:
            raise ValueError("budget multiplier must be non-negative")

    @property
    def budget_multiplier(self):
        return float(self.multipliers[-1])


def objective_f(x, radius):
    """Objective of the reformulated problem.

    Average of the per-sample multipliers plus ``radius`` times the
    budget multiplier.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    return float(np.mean(x.multipliers[:-1]) + radius * x.multipliers[-1])


def constraint_g(x, i, scenario, loss, dataset):
    """Constraint value for sample ``i`` at one scenario.

    Returns ``loss(theta, scenario) - multipliers[i] - budget * d`` where
    ``d`` is the L1 distance between the scenario point and the observed
    sample.  Positive values mean the scenario is violated at ``x``.
    """
    if not 0 <= i < dataset.m:
        raise IndexError(f"sample index {i} out of range for m={dataset.m}")
    label = int(dataset.labels[i])
    if scenario.label != label:
        raise ValueError(
            f"scenario label {scenario.label} does not match sample label {label}"
        )
    if scenario.point.size != dataset.n:
        raise ValueError("scenario dimension does not match dataset")
    h = loss.evaluate(x.theta, scenario.point, scenario.label)
    dist = float(np.sum(np.abs(scenario.point - dataset.features[i])))
    return float(h - x.multipliers[i] - x.multipliers[-1] * dist)
