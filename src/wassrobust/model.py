"""Core data types for robust training problems.

Samples and datasets describe the observed data; regions describe where
perturbed points are allowed to live (one region per class label); a
DualPoint carries the decision variables of the reformulated problem:
the loss parameters ``theta`` together with the vector of per-sample
multipliers plus one transport-budget multiplier.

All containers freeze their arrays after construction so instances can
be shared across threads without copying.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Sample",
    "Dataset",
    "BoxRegion",
    "FiniteRegion",
    "Scenario",
    "DualPoint",
    "objective_f",
    "constraint_g",
]


def _frozen(values, dtype=float):
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Sample:
    """One labelled observation: a feature vector and a binary class label."""

    features: np.ndarray
    label: int

    def __post_init__(self):
        object.__setattr__(self, "features", _frozen(self.features))
        if self.features.ndim != 1:
            raise ValueError("features must be a 1-D vector")
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label!r}")
        object.__setattr__(self, "label", int(self.label))


@dataclass(frozen=True)
class Dataset:
    """An ordered collection of samples sharing one feature dimension."""

    samples: tuple
    feature_names: tuple | None = None

    def __post_init__(self):
        samples = tuple(self.samples)
        if not samples:
            raise ValueError("dataset needs at least one sample")
        object.__setattr__(self, "samples", samples)
        n = samples[0].features.size
        for s in samples:
            if s.features.size != n:
                raise ValueError("samples disagree on feature dimension")
        if self.feature_names is not None:
            names = tuple(self.feature_names)
            if len(names) != n:
                raise ValueError("feature_names length does not match dimension")
            object.__setattr__(self, "feature_names", names)
        features = _frozen([s.features for s in samples])
        bad_rows, bad_cols = np.nonzero(~np.isfinite(features))
        if bad_rows.size:
            i, j = int(bad_rows[0]), int(bad_cols[0])
            raise ValueError(f"row {i}, column {j}: feature value {features[i, j]} "
                             "is not finite")
        object.__setattr__(self, "_features", features)
        object.__setattr__(self, "_labels", _frozen([s.label for s in samples], dtype=int))

    @classmethod
    def from_arrays(cls, features, labels, feature_names=None):
        features = np.asarray(features, dtype=float)
        labels = np.asarray(labels)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if labels.shape != (features.shape[0],):
            raise ValueError("labels length does not match feature rows")
        samples = tuple(Sample(f, int(l)) for f, l in zip(features, labels))
        return cls(samples, feature_names=feature_names)

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
        return cls.from_arrays(np.asarray(rows), np.asarray(labels), feature_names)

    @property
    def m(self):
        return len(self.samples)

    @property
    def n(self):
        return self.samples[0].features.size

    @property
    def features(self):
        """(m, n) feature matrix."""
        return self._features

    @property
    def labels(self):
        """(m,) integer label vector."""
        return self._labels

    def subset(self, indices):
        return Dataset(tuple(self.samples[i] for i in indices), self.feature_names)

    def class_counts(self):
        labels = self._labels
        return int(np.sum(labels == 0)), int(np.sum(labels == 1))


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
    def sample_count(self):
        return self.multipliers.size - 1

    @property
    def budget_multiplier(self):
        return float(self.multipliers[-1])

    def as_vector(self):
        return np.concatenate([self.theta, self.multipliers])

    @classmethod
    def from_vector(cls, vec, theta_size):
        vec = np.asarray(vec, dtype=float)
        return cls(vec[:theta_size], vec[theta_size:])


def objective_f(x, radius, sample_count=None):
    """Objective of the reformulated problem.

    Average of the per-sample multipliers plus ``radius`` times the
    budget multiplier.  ``sample_count``, when given, cross-checks the
    multiplier vector length.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    m = x.sample_count
    if sample_count is not None and sample_count != m:
        raise ValueError(f"multiplier vector implies {m} samples, expected {sample_count}")
    return float(np.mean(x.multipliers[:-1]) + radius * x.multipliers[-1])


def constraint_g(x, i, scenario, loss, dataset, metric="l1"):
    """Constraint value for sample ``i`` at one scenario.

    Returns ``loss(theta, scenario) - multipliers[i] - budget * d`` where
    ``d`` is the ground-metric distance between the scenario point and
    the observed sample.  Positive values mean the scenario is violated
    at ``x``.  Only the L1 ground metric is implemented.
    """
    if metric != "l1":
        raise NotImplementedError(f"ground metric {metric!r} not supported")
    if not 0 <= i < dataset.m:
        raise IndexError(f"sample index {i} out of range for m={dataset.m}")
    sample = dataset.samples[i]
    if scenario.label != sample.label:
        raise ValueError(
            f"scenario label {scenario.label} does not match sample label {sample.label}"
        )
    if scenario.point.size != dataset.n:
        raise ValueError("scenario dimension does not match dataset")
    h = loss.evaluate(x.theta, scenario.point, scenario.label)
    dist = float(np.sum(np.abs(scenario.point - sample.features)))
    return float(h - x.multipliers[i] - x.multipliers[-1] * dist)
