"""Robust logistic regression.

Plain logistic regression minimizes the average training loss.  The
robust variant hedges against feature noise: it minimizes the worst
average loss over all redistributions of the training mass whose
transport cost from the empirical distribution stays within a radius.
Perturbed points live in per-class boxes spanning one standard
deviation around the class mean, and perturbation never flips a label.

The radius is the only new hyperparameter; ``select_r0`` picks it by
stratified cross-validation on AUC, with radius zero (plain logistic
regression) always a candidate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import rankdata

from .losses import LogisticLoss, sigmoid
from .model import BoxRegion, Dataset
from .reformulate import ProblemData
from .solvers import SolveTrace, solve_cutting_surface, solve_exchange, solve_nominal

__all__ = [
    "FittedModel",
    "CvReport",
    "build_regions",
    "fit_lr",
    "fit_wrlr",
    "predict_score",
    "auc",
    "select_r0",
    "save_model",
    "load_model",
]


@dataclass(frozen=True)
class FittedModel:
    """A trained classifier: parameters plus how they were obtained."""

    theta: np.ndarray
    radius: float
    kind: str  # "lr" or "wrlr"
    trace: SolveTrace | None = None

    def __post_init__(self):
        arr = np.array(self.theta, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "theta", arr)


def build_regions(dataset):
    """Per-class boxes: class mean plus/minus one sample standard deviation.

    A class with a single sample gets a zero-width box at that sample.
    Observed samples are not clipped into the boxes; a sample can lie
    outside its own class box.
    """
    regions = {}
    for label in (0, 1):
        mask = dataset.labels == label
        if not np.any(mask):
            continue
        pts = dataset.features[mask]
        center = pts.mean(axis=0)
        spread = pts.std(axis=0, ddof=1) if pts.shape[0] > 1 else np.zeros(dataset.n)
        regions[label] = BoxRegion(center - spread, center + spread, label)
    if not regions:
        raise ValueError("dataset has no samples")
    return regions


def fit_lr(train, theta_radius=10.0, solver_tol=1e-8):
    """Plain logistic regression over the parameter box."""
    _require_both_classes(train)
    data = ProblemData.assemble(train, build_regions(train), radius=1.0,
                                theta_radius=theta_radius)
    theta, _, _ = solve_nominal(data, solver_tol=solver_tol)
    return FittedModel(theta=theta, radius=0.0, kind="lr", trace=None)


def fit_wrlr(train, radius, eps=1e-5, solver="cutting_surface",
             theta_radius=10.0, solver_tol=1e-8, trace_path=None,
             drop_cuts=False, alpha=2.0, max_iterations=500, capture_timing=True):
    """Robust logistic regression at a fixed radius.

    ``radius=0`` falls back to plain logistic regression so radius grids
    can include the nominal model.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    _require_both_classes(train)
    if radius == 0.0:
        return fit_lr(train, theta_radius=theta_radius, solver_tol=solver_tol)
    data = ProblemData.assemble(train, build_regions(train), radius=radius,
                                theta_radius=theta_radius)
    if solver == "cutting_surface":
        point, trace = solve_cutting_surface(
            data, eps, alpha=alpha, drop_cuts=drop_cuts,
            max_iterations=max_iterations, solver_tol=solver_tol,
            trace_path=trace_path, capture_timing=capture_timing,
        )
    elif solver == "exchange":
        point, trace = solve_exchange(
            data, eps, max_iterations=max_iterations, solver_tol=solver_tol,
            trace_path=trace_path, capture_timing=capture_timing,
        )
    else:
        raise ValueError(f"unknown solver {solver!r}")
    if point is None:
        raise RuntimeError(f"robust fit failed: {trace.status}")
    return FittedModel(theta=point.theta, radius=float(radius), kind="wrlr",
                       trace=trace)


def predict_score(model, features):
    """Class-1 probabilities for one point or a matrix of points."""
    features = np.asarray(features, dtype=float)
    loss = LogisticLoss()
    u = loss.link(model.theta, features)
    return sigmoid(u)


def auc(scores, labels):
    """Area under the ROC curve; ties get half credit."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be 1-D and equal length")
    pos = labels == 1
    neg = labels == 0
    n_pos, n_neg = int(np.sum(pos)), int(np.sum(neg))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes present")
    ranks = rankdata(scores)
    return float((np.sum(ranks[pos]) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


@dataclass(frozen=True)
class CvReport:
    """Cross-validation outcome for a radius grid."""

    grid: tuple
    mean_aucs: tuple
    chosen_radius: float
    fold_of_sample: np.ndarray
    folds: int
    seed: int

    def __post_init__(self):
        arr = np.array(self.fold_of_sample, dtype=int)
        arr.setflags(write=False)
        object.__setattr__(self, "fold_of_sample", arr)


def _require_both_classes(dataset):
    zero, one = dataset.class_counts()
    if zero == 0 or one == 0:
        raise ValueError("training data must contain both classes")


def _stratified_folds(dataset, folds, rng):
    """Fold label per sample, balanced within each class."""
    assignment = np.zeros(dataset.m, dtype=int)
    for label in (0, 1):
        idx = np.flatnonzero(dataset.labels == label)
        perm = rng.permutation(idx)
        for pos, sample in enumerate(perm):
            assignment[sample] = pos % folds
    return assignment


def select_r0(train, grid, folds=4, seed=0, **fit_kwargs):
    """Pick the radius with the best mean validation AUC.

    Folds are stratified and seeded.  Each fold's training part must
    contain both classes; assignments are redrawn up to 20 times before
    giving up.  Folds whose validation part is single-class contribute
    no AUC and are skipped consistently for every radius.  Ties choose
    the smaller radius.
    """
    grid = tuple(float(r) for r in grid)
    if not grid:
        raise ValueError("radius grid is empty")
    if any(r < 0 for r in grid):
        raise ValueError("radii must be non-negative")
    _require_both_classes(train)
    rng = np.random.default_rng(seed)
    assignment = None
    for _ in range(20):
        candidate = _stratified_folds(train, folds, rng)
        ok = True
        for fold in range(folds):
            part = train.labels[candidate != fold]
            if not (np.any(part == 0) and np.any(part == 1)):
                ok = False
                break
        if ok:
            assignment = candidate
            break
    if assignment is None:
        raise ValueError("could not build folds whose training parts hold both classes")

    usable = [fold for fold in range(folds)
              if len(set(train.labels[assignment == fold])) == 2]
    if not usable:
        raise ValueError("no fold's validation part contains both classes")

    split = []
    for fold in usable:
        train_part = train.subset(np.flatnonzero(assignment != fold))
        val_idx = np.flatnonzero(assignment == fold)
        split.append((train_part, train.features[val_idx], train.labels[val_idx]))

    def fold_auc(radius, part, val_x, val_y):
        model = fit_wrlr(part, radius, **fit_kwargs)
        return auc(predict_score(model, val_x), val_y)

    mean_by_radius = {
        radius: float(np.mean([fold_auc(radius, *s) for s in split]))
        for radius in sorted(set(grid))
    }

    means = tuple(mean_by_radius[r] for r in grid)
    best = max(mean_by_radius.values())
    chosen = min(r for r in grid if mean_by_radius[r] == best)
    return CvReport(grid=grid, mean_aucs=means, chosen_radius=float(chosen),
                    fold_of_sample=assignment, folds=folds, seed=seed)


def save_model(model, path):
    payload = {
        "kind": model.kind,
        "radius": model.radius,
        "theta": [float(v) for v in model.theta],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_model(path):
    with open(path) as fh:
        payload = json.load(fh)
    return FittedModel(theta=np.asarray(payload["theta"], dtype=float),
                       radius=float(payload["radius"]), kind=payload["kind"])
