"""Experiment harness: statistics, repetition protocol, result files."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from wassrobust import (
    ExperimentConfig,
    emit_results,
    paired_pvalue,
    run_experiment,
    welch_pvalue,
)
from wassrobust import harness, wrlr
from wassrobust.solvers import solve_nominal
from wassrobust.cli import main
from wassrobust.harness import RESULT_COLUMNS

from conftest import blob_dataset, read_results, write_config, write_csv


def experiment_csv(tmp_path, seed=19, m=40, n=2):
    ds = blob_dataset(seed, m, n)
    path = tmp_path / "train.csv"
    write_csv(path, np.asarray(ds.features), np.asarray(ds.labels))
    return path


def test_paired_pvalue_hand_t_statistic():
    diffs = np.array([0.1, -0.05, 0.2, 0.05, 0.1])
    plain = np.full(5, 0.8)
    robust = plain + diffs
    expected_t = diffs.mean() / (diffs.std(ddof=1) / np.sqrt(5))
    expected = scipy.stats.t.sf(expected_t, df=4)
    assert expected_t == pytest.approx(1.9694638556693236, abs=1e-12)
    assert paired_pvalue(robust, plain) == pytest.approx(expected, abs=1e-14)


def test_paired_pvalue_degenerate_conventions():
    base = np.array([0.7, 0.8, 0.9])
    assert paired_pvalue(base, base) == 0.5
    assert paired_pvalue(base + 0.01, base) == 0.0
    assert paired_pvalue(base - 0.01, base) == 1.0
    # single repetition has no spread by definition
    assert paired_pvalue(np.array([0.9]), np.array([0.8])) == 0.0
    with pytest.raises(ValueError):
        paired_pvalue(np.array([0.9]), np.array([0.8, 0.7]))


def test_paired_pvalue_is_one_sided():
    rng = np.random.default_rng(0)
    plain = rng.uniform(0.6, 0.9, size=12)
    shift = plain + 0.05 + 0.01 * rng.normal(size=12)
    p_up = paired_pvalue(shift, plain)
    p_down = paired_pvalue(plain, shift)
    assert p_up < 0.05
    assert p_up + p_down == pytest.approx(1.0, abs=1e-12)


def test_welch_pvalue_sanity():
    rng = np.random.default_rng(1)
    a = rng.normal(0.9, 0.01, size=20)
    b = rng.normal(0.8, 0.01, size=20)
    assert welch_pvalue(a, b) < 1e-6
    assert welch_pvalue(b, a) > 1 - 1e-6
    same = rng.normal(0.85, 0.01, size=25)
    assert 0.05 < welch_pvalue(same, same + 0.0) or welch_pvalue(same, same) == 0.5
    with pytest.raises(ValueError):
        welch_pvalue(np.array([0.9]), np.array([0.8, 0.7]))


def test_pvalues_match_scipy_stats_student_t():
    # the p-values come from scipy.special.stdtr; scipy.stats.t is the
    # oracle, at an integer df (paired) and a fractional one (Welch)
    rng = np.random.default_rng(4)
    for size in (3, 8, 30):
        a, b = rng.uniform(0.6, 0.9, size=size), rng.uniform(0.6, 0.9, size=size)
        diff = a - b
        stat = diff.mean() / (diff.std(ddof=1) / np.sqrt(size))
        assert paired_pvalue(a, b) == pytest.approx(
            scipy.stats.t.sf(stat, df=size - 1), rel=0.0, abs=1e-15)
        b = b[: size - 1] * 1.1
        va, vb = a.var(ddof=1) / a.size, b.var(ddof=1) / b.size
        stat = (a.mean() - b.mean()) / np.sqrt(va + vb)
        df = (va + vb) ** 2 / (va**2 / (a.size - 1) + vb**2 / (b.size - 1))
        assert df != int(df)
        assert welch_pvalue(a, b) == pytest.approx(
            scipy.stats.t.sf(stat, df=df), rel=0.0, abs=1e-15)


def test_import_leaves_scipy_stats_out():
    # scipy.stats alone takes most of a fresh process's import time
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", "import sys, wassrobust; print('scipy.stats' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def fresh_scipy_modules(statement):
    """The scipy modules a fresh process holds after running ``statement``."""
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    code = (f"import json, sys; {statement}; "
            "print(json.dumps([k for k in sys.modules if k.split('.')[0] == 'scipy']))")
    result = subprocess.run([sys.executable, "-c", code],
                            env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout))


def test_import_loads_no_scipy_module():
    # the master's linear algebra is NumPy's; only a p-value needs scipy,
    # and then scipy.special's own modules and no more
    assert fresh_scipy_modules("import wassrobust") == set()
    assert fresh_scipy_modules("import wassrobust.cli") == set()
    allowed = fresh_scipy_modules("import scipy.special")
    loaded = fresh_scipy_modules(
        "from wassrobust import paired_pvalue; paired_pvalue([0.9, 0.8], [0.7, 0.75])")
    assert "scipy.special" in loaded
    assert loaded <= allowed, sorted(loaded - allowed)
    assert not {"scipy.linalg", "scipy.stats"} & loaded


def test_config_round_trip_and_validation(tmp_path):
    cfg = ExperimentConfig(dataset_csv="d.csv", label_column="label",
                           train_size=20, repetitions=3,
                           radius_grid=(0.0, 0.1), seed=7)
    path = tmp_path / "config.json"
    write_config(cfg, path)
    back = ExperimentConfig.from_json(path)
    assert back == cfg
    assert dataclasses.replace(back, seed=9).seed == 9
    with pytest.raises(ValueError):
        ExperimentConfig(dataset_csv="d", label_column="l", train_size=1)
    with pytest.raises(ValueError):
        ExperimentConfig(dataset_csv="d", label_column="l", train_size=5,
                         repetitions=0)
    # keys the config does not define are refused by name
    path.write_text(json.dumps({**json.loads(path.read_text()), "threads": 2}))
    with pytest.raises(ValueError, match=r"unknown config keys \['threads'\]"):
        ExperimentConfig.from_json(path)


def test_config_rejects_unknown_solver_and_idle_cut_dropping(tmp_path):
    base = dict(dataset_csv="d.csv", label_column="label", train_size=20)
    with pytest.raises(ValueError, match="got 'exchnage'"):
        ExperimentConfig(**base, solver="exchnage")
    # every cut is kept, so keys that set cut dropping are refused by name
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**base, "drop_cuts": True, "alpha": 2.0}))
    with pytest.raises(ValueError, match=r"unknown config keys \['alpha', 'drop_cuts'\]"):
        ExperimentConfig.from_json(path)


def test_zero_radius_grid_makes_both_models_identical(tmp_path):
    csv_path = experiment_csv(tmp_path)
    cfg = ExperimentConfig(dataset_csv=str(csv_path), label_column="label",
                           train_size=20, repetitions=1, radius_grid=(0.0,),
                           seed=3, capture_timing=False)
    result = run_experiment(cfg)
    rep = result.repetitions[0]
    assert rep.chosen_radius == 0.0
    assert rep.auc_wrlr == rep.auc_lr
    assert result.aggregate["mean_diff"] == 0.0
    assert result.aggregate["p_value_paired"] == 0.5


def test_repetition_that_picks_zero_fits_the_full_training_set_once(tmp_path, monkeypatch):
    """Radius 0 makes the robust model the plain one, so the full
    training set gets one nominal solve; the folds get their own."""
    solved_sizes = []

    def counted_solve_nominal(data, *args, **kwargs):
        solved_sizes.append(data.m)
        return solve_nominal(data, *args, **kwargs)

    monkeypatch.setattr(wrlr, "solve_nominal", counted_solve_nominal)
    cfg = ExperimentConfig(dataset_csv=str(experiment_csv(tmp_path)), label_column="label",
                           train_size=20, repetitions=1, radius_grid=(0.0,),
                           seed=3, capture_timing=False)
    rep = run_experiment(cfg).repetitions[0]
    assert rep.chosen_radius == 0.0
    assert solved_sizes.count(20) == 1
    assert len(solved_sizes) > 1
    assert rep.auc_wrlr == rep.auc_lr
    assert rep.outer_iterations == 0 and rep.cut_count == 0


def test_experiment_seeded_runs_are_identical_files(tmp_path):
    csv_path = experiment_csv(tmp_path, seed=23)
    cfg = ExperimentConfig(dataset_csv=str(csv_path), label_column="label",
                           train_size=18, repetitions=2,
                           radius_grid=(0.0, 0.05), eps=1e-4, seed=11,
                           capture_timing=False)
    paths = []
    for tag in ("a", "b"):
        result = run_experiment(cfg)
        cp = tmp_path / f"out_{tag}.csv"
        jp = tmp_path / f"out_{tag}.json"
        emit_results(result, cp, jp)
        paths.append((cp, jp))
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()


def test_experiment_timed_run_differs_only_in_timing_columns(tmp_path):
    csv_path = experiment_csv(tmp_path, seed=29)
    cfg = ExperimentConfig(dataset_csv=str(csv_path), label_column="label",
                           train_size=18, repetitions=1, radius_grid=(0.0, 0.05),
                           eps=1e-4, seed=2, capture_timing=True)
    r1 = run_experiment(cfg)
    r2 = run_experiment(cfg)
    timing = {"master_fraction", "separation_fraction", "wall_seconds"}
    for a, b in zip(r1.repetitions, r2.repetitions):
        for col in RESULT_COLUMNS:
            if col not in timing:
                assert getattr(a, col) == getattr(b, col), col
    rep = r1.repetitions[0]
    if rep.chosen_radius > 0:
        assert rep.wall_seconds > 0
        assert 0 < rep.master_fraction + rep.separation_fraction <= 1 + 1e-9


def test_emit_and_load_round_trip_exactly(tmp_path):
    csv_path = experiment_csv(tmp_path, seed=31)
    cfg = ExperimentConfig(dataset_csv=str(csv_path), label_column="label",
                           train_size=16, repetitions=2, radius_grid=(0.0, 0.02),
                           eps=1e-4, seed=5, capture_timing=False)
    result = run_experiment(cfg)
    cp, jp = tmp_path / "res.csv", tmp_path / "res.json"
    emit_results(result, cp, jp)
    rows, payload = read_results(cp, jp)
    assert cp.read_text().splitlines()[0] == ",".join(RESULT_COLUMNS)
    assert len(rows) == len(result.repetitions)
    for orig, row in zip(result.repetitions, rows):
        for col in RESULT_COLUMNS:
            value = getattr(orig, col)
            assert type(value)(row[col]) == value, col
    assert payload["aggregate"] == result.aggregate
    assert payload["config"]["seed"] == 5

    # aggregates must be recomputable from the per-repetition rows
    a = np.array([float(row["auc_wrlr"]) for row in rows])
    b = np.array([float(row["auc_lr"]) for row in rows])
    agg = payload["aggregate"]
    assert agg["mean_auc_wrlr"] == pytest.approx(a.mean(), abs=1e-12)
    assert agg["mean_auc_lr"] == pytest.approx(b.mean(), abs=1e-12)
    assert agg["mean_diff"] == pytest.approx(a.mean() - b.mean(), abs=1e-12)
    assert agg["p_value_paired"] == pytest.approx(paired_pvalue(a, b), abs=1e-12)


def test_train_size_validation(tmp_path):
    csv_path = experiment_csv(tmp_path, seed=37, m=10)
    cfg = ExperimentConfig(dataset_csv=str(csv_path), label_column="label",
                           train_size=10, repetitions=1, radius_grid=(0.0,))
    with pytest.raises(ValueError, match="held-out"):
        run_experiment(cfg)


def test_standardize_changes_features_not_the_protocol(tmp_path):
    csv_path = experiment_csv(tmp_path, seed=41, m=30)
    base = ExperimentConfig(dataset_csv=str(csv_path), label_column="label",
                            train_size=15, repetitions=1, radius_grid=(0.0,),
                            seed=1, capture_timing=False)
    plain = run_experiment(base)
    scaled = run_experiment(dataclasses.replace(base, standardize=True))
    # same split, same protocol; AUC is scale-sensitive only through the fit,
    # so both runs must produce a valid result on the same repetition count
    assert len(plain.repetitions) == len(scaled.repetitions) == 1
    assert 0.0 <= scaled.repetitions[0].auc_lr <= 1.0


def test_trace_dir_writes_per_repetition_traces(tmp_path):
    csv_path = experiment_csv(tmp_path, seed=47, m=24)
    trace_dir = tmp_path / "traces"
    trace_dir.mkdir()
    cfg = ExperimentConfig(dataset_csv=str(csv_path), label_column="label",
                           train_size=12, repetitions=1, radius_grid=(0.05,),
                           eps=1e-4, seed=6, capture_timing=False,
                           trace_dir=str(trace_dir))
    run_experiment(cfg)
    files = list(trace_dir.glob("trace_rep*.jsonl"))
    assert len(files) == 1
    lines = [json.loads(l) for l in files[0].read_text().splitlines()]
    assert lines[-1]["event"] == "done"


def test_missing_trace_dir_is_refused_before_any_fit(tmp_path, monkeypatch, capsys):
    def no_fit(*args, **kwargs):
        raise AssertionError("a repetition started")

    monkeypatch.setattr(harness, "select_r0", no_fit)
    absent = tmp_path / "absent"
    cfg = ExperimentConfig(dataset_csv=str(experiment_csv(tmp_path)), label_column="label",
                           train_size=12, repetitions=1, trace_dir=str(absent))
    with pytest.raises(ValueError, match=re.escape(f"trace_dir '{absent}' is not an existing")):
        run_experiment(cfg)
    cfg_path = tmp_path / "config.json"
    write_config(dataclasses.replace(cfg, trace_dir=None), cfg_path)
    csv_out = tmp_path / "results.csv"
    assert main(["experiment", "--config", str(cfg_path), "--csv-out", str(csv_out),
                 "--trace", str(absent)]) == 2
    assert str(absent) in capsys.readouterr().err
    assert not csv_out.exists()
