"""Experiment harness: statistics, repetition protocol, result files."""

import json

import numpy as np
import pytest
import scipy.stats

from wassrobust import (
    ExperimentConfig,
    emit_results,
    load_results,
    paired_pvalue,
    run_experiment,
    welch_pvalue,
)
from wassrobust.harness import RESULT_COLUMNS

from conftest import blob_dataset, write_csv


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


def test_config_round_trip_and_validation(tmp_path):
    cfg = ExperimentConfig(dataset_csv="d.csv", label_column="label",
                           train_size=20, repetitions=3,
                           radius_grid=(0.0, 0.1), seed=7)
    path = tmp_path / "config.json"
    cfg.to_json(path)
    back = ExperimentConfig.from_json(path)
    assert back == cfg
    assert back.replace(seed=9).seed == 9
    with pytest.raises(ValueError):
        ExperimentConfig(dataset_csv="d", label_column="l", train_size=1)
    with pytest.raises(ValueError):
        ExperimentConfig(dataset_csv="d", label_column="l", train_size=5,
                         repetitions=0)
    # keys the config does not define are refused by name
    path.write_text(json.dumps({**json.loads(path.read_text()), "threads": 2}))
    with pytest.raises(ValueError, match=r"unknown config keys \['threads'\]"):
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
    reps, payload = load_results(cp, jp)
    for orig, back in zip(result.repetitions, reps):
        for col in RESULT_COLUMNS:
            assert getattr(orig, col) == getattr(back, col), col
    assert payload["aggregate"] == result.aggregate
    assert payload["config"]["seed"] == 5

    # aggregates must be recomputable from the per-repetition rows
    a = np.array([r.auc_wrlr for r in reps])
    b = np.array([r.auc_lr for r in reps])
    agg = payload["aggregate"]
    assert agg["mean_auc_wrlr"] == pytest.approx(a.mean(), abs=1e-12)
    assert agg["mean_auc_lr"] == pytest.approx(b.mean(), abs=1e-12)
    assert agg["mean_diff"] == pytest.approx(a.mean() - b.mean(), abs=1e-12)
    assert agg["p_value_paired"] == pytest.approx(paired_pvalue(a, b), abs=1e-12)


def test_load_rejects_foreign_header(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("alpha,beta\n1,2\n")
    jp = tmp_path / "agg.json"
    jp.write_text("{}\n")
    with pytest.raises(ValueError, match="columns"):
        load_results(bad, jp)


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
    scaled = run_experiment(base.replace(standardize=True))
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
