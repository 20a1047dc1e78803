"""Robust logistic regression: regions, fitting, AUC, radius selection."""

import numpy as np
import pytest

from wassrobust import (
    Dataset,
    ProblemData,
    auc,
    build_regions,
    fit_lr,
    fit_wrlr,
    load_model,
    objective_f,
    predict_score,
    save_model,
    select_r0,
    solve_cutting_surface,
    solve_nominal,
)

from conftest import blob_dataset


def test_build_regions_hand_values():
    X = np.array([[0.0, 0.0], [2.0, 4.0], [10.0, -2.0]])
    ds = Dataset.from_arrays(X, [0, 0, 1])
    regions = build_regions(ds)
    # class 0: mean (1, 2), sample sd (sqrt(2), sqrt(8))
    assert np.allclose(regions[0].lower, [1.0 - np.sqrt(2.0), 2.0 - np.sqrt(8.0)])
    assert np.allclose(regions[0].upper, [1.0 + np.sqrt(2.0), 2.0 + np.sqrt(8.0)])
    # class 1 has a single sample: zero-width box at the sample
    assert np.allclose(regions[1].lower, [10.0, -2.0])
    assert np.allclose(regions[1].upper, [10.0, -2.0])


def test_build_regions_leave_outliers_outside():
    X = np.array([[0.0], [0.1], [0.2], [5.0]])
    ds = Dataset.from_arrays(X, [0, 0, 0, 0][:3] + [0])
    regions = build_regions(ds)
    assert not regions[0].contains([5.0])


def test_fit_lr_matches_nominal_solver():
    ds = blob_dataset(21, 20, 3)
    model = fit_lr(ds)
    assert model.kind == "lr" and model.radius == 0.0 and model.trace is None
    data = ProblemData.assemble(ds, build_regions(ds), radius=1.0)
    theta, value, _ = solve_nominal(data)
    assert np.allclose(model.theta, theta, atol=1e-9)


@pytest.mark.parametrize("scale", [1.0, 10.0, 100.0, 1000.0])
def test_fits_solve_at_every_feature_scale(scale):
    ds = blob_dataset(3, 20, 3, scale=scale)
    fit_lr(ds)
    model = fit_wrlr(ds, 0.1, eps=1e-4)
    assert model.trace.status == "optimal"


def test_fit_wrlr_zero_radius_is_plain_lr():
    ds = blob_dataset(22, 15, 2)
    a = fit_wrlr(ds, 0.0)
    b = fit_lr(ds)
    assert a.kind == "lr"
    assert np.array_equal(a.theta, b.theta)


def test_fit_wrlr_tiny_radius_stays_near_lr():
    ds = blob_dataset(23, 12, 2)
    lr = fit_lr(ds)
    robust = fit_wrlr(ds, 1e-6, eps=1e-6)
    assert robust.kind == "wrlr"
    assert np.max(np.abs(robust.theta - lr.theta)) <= 1e-3


def test_fit_wrlr_solvers_agree():
    ds = blob_dataset(24, 10, 2)
    a = fit_wrlr(ds, 0.1, eps=1e-6, solver="cutting_surface")
    b = fit_wrlr(ds, 0.1, eps=1e-6, solver="exchange")
    assert a.trace.status == "optimal" and b.trace.status == "optimal"
    # both traces expose the robust objective they certified
    va = [r.best_objective for r in a.trace.records if r.best_objective is not None][-1]
    vb = b.trace.records[-1].objective
    assert va == pytest.approx(vb, abs=4e-6)


def test_fit_validation():
    ds_single = Dataset.from_arrays(np.zeros((3, 2)), [1, 1, 1])
    with pytest.raises(ValueError, match="both classes"):
        fit_lr(ds_single)
    ds = blob_dataset(25, 8, 2)
    with pytest.raises(ValueError, match="radius"):
        fit_wrlr(ds, -0.1)
    with pytest.raises(ValueError, match="solver"):
        fit_wrlr(ds, 0.1, solver="magic")


def test_objective_grows_with_radius():
    ds = blob_dataset(26, 12, 2)
    regions = build_regions(ds)
    values = []
    for radius in (0.01, 0.05, 0.1, 0.5):
        data = ProblemData.assemble(ds, regions, radius=radius)
        point, trace = solve_cutting_surface(data, 1e-6)
        assert trace.status == "optimal"
        values.append(objective_f(point, radius))
    assert all(values[i + 1] >= values[i] - 1e-6 for i in range(len(values) - 1))


def test_predict_score_closed_form():
    model = fit_lr(blob_dataset(27, 10, 2))
    pts = np.array([[0.5, -1.0], [2.0, 0.0]])
    u = model.theta[0] + pts @ model.theta[1:]
    assert np.allclose(predict_score(model, pts), 1.0 / (1.0 + np.exp(-u)))
    from wassrobust import FittedModel
    zero = FittedModel(np.zeros(3), 0.0, "lr")
    assert np.allclose(predict_score(zero, pts), 0.5)


def test_auc_hand_cases():
    assert auc(np.array([0.9, 0.4, 0.6, 0.1]), np.array([1, 1, 0, 0])) == 0.75
    assert auc(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0])) == 1.0
    assert auc(np.array([0.1, 0.2, 0.8, 0.9]), np.array([1, 1, 0, 0])) == 0.0
    # a tied pair earns half credit
    assert auc(np.array([0.5, 0.5]), np.array([1, 0])) == 0.5
    assert auc(np.array([0.7, 0.5, 0.5]), np.array([1, 1, 0])) == 0.75


def test_auc_is_invariant_under_monotone_transforms():
    rng = np.random.default_rng(3)
    scores = rng.normal(size=40)
    labels = rng.integers(0, 2, size=40)
    labels[0], labels[1] = 0, 1
    base = auc(scores, labels)
    assert auc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
    assert auc(3.0 * scores + 7.0, labels) == pytest.approx(base, abs=1e-12)


def test_auc_validation():
    with pytest.raises(ValueError):
        auc(np.array([0.5, 0.5]), np.array([1, 1]))
    with pytest.raises(ValueError):
        auc(np.array([[0.5]]), np.array([1]))


def test_auc_matches_pair_counting():
    rng = np.random.default_rng(4)
    scores = np.round(rng.normal(size=30), 1)  # coarse values force ties
    labels = rng.integers(0, 2, size=30)
    labels[:2] = [0, 1]
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
    assert auc(scores, labels) == pytest.approx(wins / (pos.size * neg.size), abs=1e-12)


def test_select_r0_zero_grid_returns_zero():
    ds = blob_dataset(28, 16, 2)
    report = select_r0(ds, (0.0,), folds=4, seed=0)
    assert report.chosen_radius == 0.0
    assert report.grid == (0.0,)
    assert len(report.mean_aucs) == 1
    assert report.fold_of_sample.shape == (16,)


def test_select_r0_duplicate_entries_and_determinism():
    ds = blob_dataset(29, 16, 2)
    report = select_r0(ds, (0.0, 0.05, 0.0), folds=4, seed=1)
    assert report.mean_aucs[0] == report.mean_aucs[2]
    again = select_r0(ds, (0.0, 0.05, 0.0), folds=4, seed=1)
    assert report.chosen_radius == again.chosen_radius
    assert report.mean_aucs == again.mean_aucs
    assert np.array_equal(report.fold_of_sample, again.fold_of_sample)


def test_select_r0_tie_prefers_smaller_radius():
    ds = blob_dataset(30, 24, 3)
    # a vanishing radius reproduces plain logistic regression's ranking,
    # so the two candidates tie on AUC and the smaller one must win
    report = select_r0(ds, (0.0, 1e-12), folds=4, seed=0)
    assert report.mean_aucs[0] == report.mean_aucs[1]
    assert report.chosen_radius == 0.0


def test_select_r0_stratification_balances_classes():
    ds = blob_dataset(31, 20, 2)
    report = select_r0(ds, (0.0,), folds=4, seed=5)
    for label in (0, 1):
        per_fold = [np.sum((report.fold_of_sample == f) & (ds.labels == label))
                    for f in range(4)]
        assert max(per_fold) - min(per_fold) <= 1


def test_select_r0_impossible_folds_raise():
    # a lone positive cannot appear in every fold's training part
    X = np.arange(8.0).reshape(4, 2)
    ds = Dataset.from_arrays(X, [0, 0, 0, 1])
    with pytest.raises(ValueError, match="folds|classes"):
        select_r0(ds, (0.0,), folds=4, seed=0)
    with pytest.raises(ValueError, match="grid"):
        select_r0(blob_dataset(1, 8, 2), ())


def test_save_load_round_trip(tmp_path):
    model = fit_wrlr(blob_dataset(33, 10, 2), 0.05, eps=1e-4)
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert back.kind == model.kind
    assert back.radius == model.radius
    assert np.array_equal(back.theta, model.theta)
    assert back.trace is None
