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
import time
from dataclasses import asdict, dataclass, fields

import numpy as np
from scipy.stats import t as student_t

from .model import Dataset
from .wrlr import auc, fit_lr, fit_wrlr, predict_score, select_r0

__all__ = [
    "ExperimentConfig",
    "RepetitionResult",
    "ExperimentResult",
    "run_experiment",
    "paired_pvalue",
    "welch_pvalue",
    "emit_results",
    "load_results",
]

RESULT_COLUMNS = (
    "repetition",
    "chosen_radius",
    "auc_lr",
    "auc_wrlr",
    "outer_iterations",
    "cut_count",
    "master_fraction",
    "separation_fraction",
    "wall_seconds",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings for one experiment; serializable to and from JSON."""

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
    alpha: float = 2.0
    drop_cuts: bool = False
    standardize: bool = False
    capture_timing: bool = True
    trace_dir: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "radius_grid", tuple(float(r) for r in self.radius_grid))
        if self.train_size < 2:
            raise ValueError("train_size must be at least 2")
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            payload = json.load(fh)
        unknown = sorted(set(payload) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"{path}: unknown config keys {unknown}")
        return cls(**payload)

    def to_json(self, path):
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=2)
            fh.write("\n")

    def replace(self, **changes):
        payload = asdict(self)
        payload.update(changes)
        return ExperimentConfig(**payload)


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


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    repetitions: tuple
    aggregate: dict


def paired_pvalue(auc_robust, auc_plain):
    """One-sided paired t-test p-value for 'robust beats plain'.

    Degenerate spread is resolved by the sign of the mean difference:
    all-zero differences give 0.5, a positive mean with zero variance
    gives 0, a negative one gives 1.
    """
    a = np.asarray(auc_robust, dtype=float)
    b = np.asarray(auc_plain, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size < 1:
        raise ValueError("need two equal-length 1-D score vectors")
    diff = a - b
    mean = float(np.mean(diff))
    if a.size == 1:
        sd = 0.0
    else:
        sd = float(np.std(diff, ddof=1))
    if sd == 0.0:
        if mean > 0:
            return 0.0
        if mean < 0:
            return 1.0
        return 0.5
    stat = mean / (sd / np.sqrt(diff.size))
    return float(student_t.sf(stat, df=diff.size - 1))


def welch_pvalue(auc_robust, auc_plain):
    """One-sided Welch t-test p-value for 'robust beats plain'."""
    a = np.asarray(auc_robust, dtype=float)
    b = np.asarray(auc_plain, dtype=float)
    if a.size < 2 or b.size < 2:
        raise ValueError("Welch test needs at least two observations per side")
    va, vb = np.var(a, ddof=1), np.var(b, ddof=1)
    na, nb = a.size, b.size
    denom_sq = va / na + vb / nb
    if denom_sq == 0.0:
        mean = float(np.mean(a) - np.mean(b))
        return 0.0 if mean > 0 else (1.0 if mean < 0 else 0.5)
    stat = (np.mean(a) - np.mean(b)) / np.sqrt(denom_sq)
    df = denom_sq**2 / ((va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1))
    return float(student_t.sf(stat, df=df))


def _standardized(train, rest, dataset):
    """Z-score features using training statistics only."""
    mu = train.features.mean(axis=0)
    sd = train.features.std(axis=0, ddof=1) if train.m > 1 else np.ones(train.n)
    sd = np.where(sd > 0, sd, 1.0)
    scale = lambda X: (X - mu) / sd
    new_train = Dataset.from_arrays(scale(train.features), train.labels,
                                    dataset.feature_names)
    return new_train, scale(rest[0]), rest[1]


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
        train, test_x, test_y = _standardized(train, (test_x, test_y), dataset)

    fit_kwargs = dict(
        eps=config.eps, solver=config.solver, theta_radius=config.theta_radius,
        drop_cuts=config.drop_cuts, alpha=config.alpha,
        capture_timing=config.capture_timing,
    )
    started = time.perf_counter() if config.capture_timing else 0.0
    report = select_r0(train, config.radius_grid, folds=config.folds,
                       seed=config.seed + rep, **fit_kwargs)
    lr_model = fit_lr(train, theta_radius=config.theta_radius)
    trace_path = None
    if config.trace_dir:
        trace_path = f"{config.trace_dir.rstrip('/')}/trace_rep{rep}.jsonl"
    wr_model = fit_wrlr(train, report.chosen_radius, trace_path=trace_path,
                        **fit_kwargs)
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
    """Run every repetition and aggregate the paired comparison."""
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
            row = asdict(rep)
            writer.writerow([repr(row[c]) if isinstance(row[c], float) else row[c]
                             for c in RESULT_COLUMNS])
    payload = {
        "aggregate": result.aggregate,
        "config": asdict(result.config),
    }
    with open(json_path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_results(csv_path, json_path):
    """Read back what ``emit_results`` wrote."""
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != RESULT_COLUMNS:
            raise ValueError(f"unexpected result columns: {header}")
        reps = []
        for row in reader:
            record = dict(zip(header, row))
            reps.append(RepetitionResult(
                repetition=int(record["repetition"]),
                chosen_radius=float(record["chosen_radius"]),
                auc_lr=float(record["auc_lr"]),
                auc_wrlr=float(record["auc_wrlr"]),
                outer_iterations=int(record["outer_iterations"]),
                cut_count=int(record["cut_count"]),
                master_fraction=float(record["master_fraction"]),
                separation_fraction=float(record["separation_fraction"]),
                wall_seconds=float(record["wall_seconds"]),
            ))
    with open(json_path) as fh:
        payload = json.load(fh)
    return tuple(reps), payload
