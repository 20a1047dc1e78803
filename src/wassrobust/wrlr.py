"""Robust logistic regression.

Plain logistic regression minimizes the average training loss.  The
robust variant hedges against feature noise: it minimizes the worst
average loss over all redistributions of the training mass whose
transport cost from the empirical distribution stays within a radius.
Perturbed points live in per-class boxes spanning one standard
deviation around the class mean, and perturbation never flips a label.

The radius is the only new hyperparameter; ``select_r0`` picks it by
stratified cross-validation on AUC, with radius zero (plain logistic
regression) always a candidate.  A robust fit keeps its final cuts, and
``fit_wrlr(..., warm=model)`` starts from them and from the model's
theta; ``select_r0`` chains its radius grid that way within each fold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .losses import LogisticLoss, sigmoid
from .model import BoxRegion, _frozen
from .reformulate import CutPool, ProblemData
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
    # a robust fit's final cuts: cut j puts sample samples[j] at points[j];
    # None for a plain fit
    samples: np.ndarray | None = None
    points: np.ndarray | None = None

    def __post_init__(self):
        for name, dtype in (("theta", float), ("samples", int), ("points", float)):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _frozen(getattr(self, name), dtype))


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


def fit_lr(train, theta_radius=10.0):
    """Plain logistic regression over the parameter box."""
    _require_both_classes(train)
    data = ProblemData.assemble(train, build_regions(train), radius=1.0,
                                theta_radius=theta_radius)
    theta, _, _ = solve_nominal(data)
    return FittedModel(theta=theta, radius=0.0, kind="lr", trace=None)


# the semi-infinite solvers ``fit_wrlr`` can run
SOLVERS = ("cutting_surface", "exchange")


def fit_wrlr(train, radius, eps=1e-5, solver="cutting_surface",
             theta_radius=10.0, trace_path=None, capture_timing=True, warm=None):
    """Robust logistic regression at a fixed radius.

    ``radius=0`` falls back to plain logistic regression so radius grids
    can include the nominal model.

    ``warm`` is a model fit on the same training set, plain or robust, at
    any radius.  A robust one's cuts start the solver's pool: a cut does
    not depend on the radius, and each is checked again as it is added.
    The cutting-surface solver also starts from the completion of its
    theta, whose objective is a valid first cap.

    ``trace_path`` names a file for the solve's JSON-lines trace; a fit
    with no point writes it before it raises.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}")
    _require_both_classes(train)
    if radius == 0.0:
        return fit_lr(train, theta_radius=theta_radius)
    data = ProblemData.assemble(train, build_regions(train), radius=radius,
                                theta_radius=theta_radius)
    pool = CutPool(data)
    if warm is not None and warm.samples is not None:
        pool.extend(warm.samples, warm.points)
    options = dict(pool=pool, capture_timing=capture_timing)
    if solver == "cutting_surface":
        point, trace = solve_cutting_surface(
            data, eps, theta=None if warm is None else warm.theta, **options)
    else:
        point, trace = solve_exchange(data, eps, **options)
    # a failed fit leaves its trace too
    if trace_path:
        trace.write_jsonl(trace_path)
    if point is None:
        raise RuntimeError(f"robust fit failed: {trace.status}")
    return FittedModel(theta=point.theta, radius=float(radius), kind="wrlr",
                       trace=trace, samples=pool.samples, points=pool.points)


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
    # average ranks: a run of c tied scores ending at rank e shares e - (c - 1) / 2
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - 0.5 * (counts - 1))[group]
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
        object.__setattr__(self, "fold_of_sample", _frozen(self.fold_of_sample, int))


def _require_both_classes(dataset):
    zero, one = dataset.class_counts()
    if zero == 0 or one == 0:
        raise ValueError("training data must contain both classes")


def _stratified_folds(dataset, folds, rng):
    """Fold label per sample: each class is permuted and dealt round-robin
    into the folds, so a class of c samples fills folds 0 to min(c, folds) - 1."""
    assignment = np.zeros(dataset.m, dtype=int)
    for label in (0, 1):
        perm = rng.permutation(np.flatnonzero(dataset.labels == label))
        assignment[perm] = np.arange(perm.size) % folds
    return assignment


def select_r0(train, grid, folds=4, seed=0, **fit_kwargs):
    """Pick the radius with the best mean validation AUC.

    Folds are stratified and seeded (see ``_stratified_folds``).  They
    need an integer ``folds >= 2`` and two samples of each class, so that
    every fold's training part holds both classes; otherwise ``ValueError``.
    When the smaller class has c < folds samples, only folds 0 to c - 1
    hold it, so only they validate, for every radius.  Ties choose the
    smaller radius.

    Each fold fits the distinct radii in ascending order, and every fit
    is warm-started from the fold's previous model (see ``fit_wrlr``):
    the cuts stay valid constraints at any radius, and the previous
    theta's completion is a feasible point whose objective caps the next
    optimum.
    """
    grid = tuple(float(r) for r in grid)
    if not grid:
        raise ValueError("radius grid is empty")
    if any(r < 0 for r in grid):
        raise ValueError("radii must be non-negative")
    if isinstance(folds, bool) or not isinstance(folds, Integral):
        raise ValueError(f"folds must be an integer, got {folds!r}")
    counts = train.class_counts()
    if folds < 2 or min(counts) < 2:
        raise ValueError(f"cross-validation needs folds >= 2 and two samples of each "
                         f"class; got folds={folds} and classes of {counts[0]} and "
                         f"{counts[1]} samples")
    assignment = _stratified_folds(train, folds, np.random.default_rng(seed))

    radii = sorted(set(grid))
    aucs = {radius: [] for radius in radii}
    # the folds whose validation part holds both classes
    for fold in range(min(*counts, folds)):
        part = train.subset(np.flatnonzero(assignment != fold))
        val = assignment == fold
        model = None
        for radius in radii:
            model = fit_wrlr(part, radius, warm=model, **fit_kwargs)
            aucs[radius].append(auc(predict_score(model, train.features[val]),
                                    train.labels[val]))
    mean_by_radius = {radius: float(np.mean(values)) for radius, values in aucs.items()}

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
