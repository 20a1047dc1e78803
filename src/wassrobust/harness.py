"""Experiment harness: repeated train/test comparisons of plain and
robust logistic regression.

Each repetition draws a seeded train subset, picks the robust radius by
cross-validation on the training part only, fits both models on the
full training subset, and scores AUC on the held-out rest.  The same
split serves both models, so the final comparison is paired.
"""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import asdict, dataclass, fields
from numbers import Integral, Real

import numpy as np
from scipy.special import stdtr

from .model import Dataset
from .wrlr import SOLVERS, auc, fit_lr, fit_wrlr, predict_score, select_r0

__all__ = [
    "ExperimentConfig",
    "RepetitionResult",
    "ExperimentResult",
    "run_experiment",
    "paired_pvalue",
    "welch_pvalue",
    "emit_results",
]

@dataclass(frozen=True)
class ExperimentConfig:
    """Settings for one experiment; ``from_json`` reads them from a JSON file."""

    dataset_csv: str
    label_column: str
    train_size: int
    repetitions: int = 30
    radius_grid: tuple = (0.0, 0.01, 0.05, 0.1, 0.5, 1.0)
    eps: float = 1e-5
    seed: int = 0
    solver: str = "cutting_surface"
    folds: int = 4
    theta_radius: float = 10.0
    standardize: bool = False
    capture_timing: bool = True
    trace_dir: str | None = None

    def __post_init__(self):
        for keys, kind, what in (
                (("train_size", "repetitions", "folds", "seed"), Integral, "an integer"),
                (("eps", "theta_radius"), Real, "a positive number"),
                (("capture_timing", "standardize"), bool, "true or false"),
                (("dataset_csv", "label_column"), str, "a string"),
                (("trace_dir",), (str, type(None)), "a string or null")):
            for key in keys:
                value = getattr(self, key)
                # bool is an Integral, so only the flags may be one
                if (isinstance(value, bool) != (kind is bool) or not isinstance(value, kind)
                        or kind is Real and not 0 < value < np.inf):
                    raise ValueError(f"{key} must be {what}, got {value!r}")
        grid = self.radius_grid
        if not isinstance(grid, (list, tuple)) or not all(
                isinstance(r, Real) and not isinstance(r, bool) for r in grid):
            raise ValueError(f"radius_grid must be a list of numbers, got {grid!r}")
        object.__setattr__(self, "radius_grid", tuple(float(r) for r in grid))
        if self.train_size < 2:
            raise ValueError("train_size must be at least 2")
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if self.solver not in SOLVERS:
            raise ValueError(f"solver must be one of {', '.join(SOLVERS)}, "
                             f"got {self.solver!r}")

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            payload = json.load(fh)
        unknown = sorted(set(payload) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"{path}: unknown config keys {unknown}")
        return cls(**payload)


@dataclass(frozen=True)
class RepetitionResult:
    repetition: int
    chosen_radius: float
    auc_lr: float
    auc_wrlr: float
    outer_iterations: int
    cut_count: int
    master_fraction: float
    separation_fraction: float
    wall_seconds: float


# the CSV columns ``emit_results`` writes, one row per repetition
RESULT_COLUMNS = tuple(f.name for f in fields(RepetitionResult))


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    repetitions: tuple
    aggregate: dict


def _no_spread_pvalue(mean):
    """The p-value when the differences have no spread: 0 for a positive
    mean difference, 1 for a negative one, 0.5 for none."""
    return 0.0 if mean > 0 else (1.0 if mean < 0 else 0.5)


def paired_pvalue(auc_robust, auc_plain):
    """One-sided paired t-test p-value for 'robust beats plain'.

    Differences with no spread (all equal, or a single pair) are decided
    by the sign of their mean (see ``_no_spread_pvalue``).
    """
    a = np.asarray(auc_robust, dtype=float)
    b = np.asarray(auc_plain, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size < 1:
        raise ValueError("need two equal-length 1-D score vectors")
    diff = a - b
    mean = float(np.mean(diff))
    sd = float(np.std(diff, ddof=1)) if diff.size > 1 else 0.0
    if sd == 0.0:
        return _no_spread_pvalue(mean)
    stat = mean / (sd / np.sqrt(diff.size))
    return float(stdtr(diff.size - 1, -stat))


def welch_pvalue(auc_robust, auc_plain):
    """One-sided Welch t-test p-value for 'robust beats plain'; two sides
    with no spread are decided as in ``paired_pvalue``."""
    a = np.asarray(auc_robust, dtype=float)
    b = np.asarray(auc_plain, dtype=float)
    if a.size < 2 or b.size < 2:
        raise ValueError("Welch test needs at least two observations per side")
    va, vb = np.var(a, ddof=1), np.var(b, ddof=1)
    na, nb = a.size, b.size
    denom_sq = va / na + vb / nb
    if denom_sq == 0.0:
        return _no_spread_pvalue(float(np.mean(a) - np.mean(b)))
    stat = (np.mean(a) - np.mean(b)) / np.sqrt(denom_sq)
    df = denom_sq**2 / ((va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1))
    return float(stdtr(df, -stat))


def _standardized(train, test_x):
    """Z-score features using training statistics only."""
    mu = train.features.mean(axis=0)
    sd = train.features.std(axis=0, ddof=1) if train.m > 1 else np.ones(train.n)
    sd = np.where(sd > 0, sd, 1.0)
    scale = lambda X: (X - mu) / sd
    new_train = Dataset.from_arrays(scale(train.features), train.labels,
                                    train.feature_names)
    return new_train, scale(test_x)


def _run_repetition(rep, config, dataset):
    rng = np.random.default_rng(config.seed + rep)
    m = config.train_size
    if m >= dataset.m:
        raise ValueError("train_size must leave held-out samples")
    train = None
    for _ in range(20):
        idx = rng.choice(dataset.m, size=m, replace=False)
        chosen = dataset.subset(idx)
        zero, one = chosen.class_counts()
        if zero > 0 and one > 0:
            train = chosen
            mask = np.ones(dataset.m, dtype=bool)
            mask[idx] = False
            test_x = dataset.features[mask]
            test_y = dataset.labels[mask]
            break
    if train is None:
        raise ValueError("could not draw a training subset containing both classes")
    if not (np.any(test_y == 0) and np.any(test_y == 1)):
        raise ValueError("held-out part lacks one class; use a smaller train_size")
    if config.standardize:
        train, test_x = _standardized(train, test_x)

    fit_kwargs = dict(
        eps=config.eps, solver=config.solver, theta_radius=config.theta_radius,
        capture_timing=config.capture_timing,
    )
    started = time.perf_counter() if config.capture_timing else 0.0
    report = select_r0(train, config.radius_grid, folds=config.folds,
                       seed=config.seed + rep, **fit_kwargs)
    lr_model = fit_lr(train, theta_radius=config.theta_radius)
    trace_path = None
    if config.trace_dir:
        trace_path = f"{config.trace_dir.rstrip('/')}/trace_rep{rep}.jsonl"
    # at radius 0 the robust model is the plain one
    wr_model = lr_model if report.chosen_radius == 0.0 else fit_wrlr(
        train, report.chosen_radius, trace_path=trace_path, **fit_kwargs)
    auc_lr = auc(predict_score(lr_model, test_x), test_y)
    auc_wrlr = auc(predict_score(wr_model, test_x), test_y)
    wall = (time.perf_counter() - started) if config.capture_timing else 0.0

    trace = wr_model.trace
    if trace is not None and trace.wall_seconds > 0:
        master_frac = trace.master_seconds / trace.wall_seconds
        sep_frac = trace.separation_seconds / trace.wall_seconds
    else:
        master_frac = sep_frac = 0.0
    return RepetitionResult(
        repetition=rep,
        chosen_radius=report.chosen_radius,
        auc_lr=auc_lr,
        auc_wrlr=auc_wrlr,
        outer_iterations=trace.iterations if trace is not None else 0,
        cut_count=trace.cut_count if trace is not None else 0,
        master_fraction=master_frac,
        separation_fraction=sep_frac,
        wall_seconds=wall,
    )


def run_experiment(config):
    """Run every repetition and aggregate the paired comparison.

    A ``trace_dir`` must be an existing directory; a repetition that
    chooses radius 0 fits plain logistic regression and writes no trace.
    """
    if config.trace_dir and not os.path.isdir(config.trace_dir):
        raise ValueError(f"trace_dir {config.trace_dir!r} is not an existing directory")
    dataset = Dataset.from_csv(config.dataset_csv, config.label_column)
    reps = [_run_repetition(r, config, dataset) for r in range(config.repetitions)]
    a = np.array([r.auc_wrlr for r in reps])
    b = np.array([r.auc_lr for r in reps])
    mean_wrlr, mean_lr = float(np.mean(a)), float(np.mean(b))
    se = lambda v: float(np.std(v, ddof=1) / np.sqrt(v.size)) if v.size > 1 else 0.0
    aggregate = {
        "repetitions": config.repetitions,
        "mean_auc_lr": mean_lr,
        "se_auc_lr": se(b),
        "mean_auc_wrlr": mean_wrlr,
        "se_auc_wrlr": se(a),
        "mean_diff": mean_wrlr - mean_lr,
        "relative_gain": (mean_wrlr - mean_lr) / mean_lr if mean_lr != 0 else 0.0,
        "p_value_paired": paired_pvalue(a, b),
    }
    if config.repetitions > 1:
        aggregate["p_value_welch"] = welch_pvalue(a, b)
    return ExperimentResult(config=config, repetitions=tuple(reps),
                            aggregate=aggregate)


def emit_results(result, csv_path, json_path):
    """Write the per-repetition CSV and the aggregate JSON."""
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        for rep in result.repetitions:
            writer.writerow([repr(v) if isinstance(v, float) else v
                             for v in asdict(rep).values()])
    payload = {
        "aggregate": result.aggregate,
        "config": asdict(result.config),
    }
    with open(json_path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
