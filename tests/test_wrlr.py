"""Robust logistic regression: regions, fitting, AUC, radius selection."""

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.stats import rankdata

from wassrobust import (
    BoxRegion,
    CutPool,
    Dataset,
    FittedModel,
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
from wassrobust import convex

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


@pytest.mark.parametrize("seed", range(10))
def test_every_seed_solves_at_feature_scale_1000(seed):
    # feature std near 1000: each gap-check master starts next to the last
    # master's point; from the cold start, seeds 2, 6, 7 and 8 ran their
    # plain master out of Newton steps
    model = fit_wrlr(blob_dataset(seed, 20, 3, scale=1000.0), 0.1, eps=1e-4)
    trace = model.trace
    assert trace.status == "optimal"
    assert max(r.newton_steps for r in trace.records) <= 150
    assert trace.robust_value - trace.lower_bound <= 1e-4
    assert trace.final_violation <= 1e-4


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


WARM_GRID = (0.01, 0.05, 0.1, 0.5, 1.0)


@pytest.mark.parametrize("solver", ["cutting_surface", "exchange"])
def test_warm_chain_matches_cold_fits_and_certifies(solver):
    eps = 1e-6
    for seed in (40, 41):
        ds = blob_dataset(seed, 16, 3)
        warm = fit_lr(ds)
        values, warm_solves, cold_solves = [], 0, 0
        for radius in WARM_GRID:
            cold = fit_wrlr(ds, radius, eps=eps, solver=solver)
            model = fit_wrlr(ds, radius, eps=eps, solver=solver, warm=warm)
            trace = model.trace
            assert trace.status == "optimal"
            assert trace.final_violation <= eps
            if solver == "cutting_surface":
                assert trace.robust_value - trace.lower_bound <= eps
                # the warm theta's completion sets the first cap
                cap = ProblemData.assemble(ds, build_regions(ds), radius).derived.objective_cap
                assert trace.records[0].cap < cap
            assert abs(trace.robust_value - cold.trace.robust_value) <= eps
            # the first master already holds the carried cuts
            first = trace.records[0]
            if warm.samples is not None:
                assert first.cut_count - first.cuts_added == len(warm.samples)
            values.append(trace.robust_value)
            warm_solves += trace.iterations
            cold_solves += cold.trace.iterations
            warm = model
        for smaller, larger in zip(values, values[1:]):
            assert larger >= smaller - eps
        assert warm_solves < cold_solves


def test_fit_keeps_its_final_cuts_read_only():
    ds = blob_dataset(42, 12, 2)
    model = fit_wrlr(ds, 0.1, eps=1e-5)
    assert model.samples.shape == (model.trace.cut_count,)
    assert model.points.shape == (model.trace.cut_count, ds.n)
    assert not model.samples.flags.writeable and not model.points.flags.writeable
    # every cut is a real constraint of the problem it came from
    data = ProblemData.assemble(ds, build_regions(ds), radius=0.1)
    assert CutPool(data).extend(model.samples, model.points) == len(model.samples)
    lr = fit_lr(ds)
    assert lr.samples is None and lr.points is None


def _no_solve(*args, **kwargs):
    raise AssertionError("a master solve started")


def test_bad_warm_theta_fails_before_any_solve(monkeypatch):
    ds = blob_dataset(43, 12, 2)
    monkeypatch.setattr(convex, "solve", _no_solve)
    short = FittedModel(theta=np.zeros(2), radius=0.0, kind="lr")
    with pytest.raises(ValueError, match="warm-start theta has shape"):
        fit_wrlr(ds, 0.1, warm=short)
    outside = FittedModel(theta=[0.0, 10.5, 0.0], radius=0.0, kind="lr")
    with pytest.raises(ValueError, match="outside the parameter box"):
        fit_wrlr(ds, 0.1, warm=outside)
    # the same theta lies inside a wider box
    monkeypatch.undo()
    assert fit_wrlr(ds, 0.1, theta_radius=11.0, warm=outside).trace.status == "optimal"


def test_warm_model_from_another_training_set_is_rejected(monkeypatch):
    other = fit_wrlr(blob_dataset(44, 16, 2), 0.1, eps=1e-5)
    monkeypatch.setattr(convex, "solve", _no_solve)
    with pytest.raises(ValueError, match="out of range"):
        fit_wrlr(blob_dataset(45, 12, 2), 0.1, warm=other)
    with pytest.raises(ValueError, match="outside its class region"):
        fit_wrlr(blob_dataset(46, 16, 2), 0.1, warm=other)


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


def regularized_lr_value(ds, r0, theta_radius=10.0):
    """min over the parameter box of average loss + r0 * max_j |theta_j|, j >= 1.

    Solved by SciPy's SLSQP in epigraph form, [theta, lam] with
    lam >= +-theta_j; shares no code with the library's solvers.
    """
    X, y = ds.features, ds.labels
    Z = np.hstack([np.ones((ds.m, 1)), X]) * (1.0 - 2.0 * y)[:, None]
    d = ds.n + 1

    def value(z):
        return np.mean(np.logaddexp(0.0, Z @ z[:d])) + r0 * z[d]

    def grad(z):
        weights = 0.5 * (1.0 + np.tanh(0.5 * (Z @ z[:d])))
        return np.concatenate([Z.T @ weights / ds.m, [r0]])

    rows = []
    for j in range(1, d):
        for sign in (1.0, -1.0):
            row = np.zeros(d + 1)
            row[j], row[d] = -sign, 1.0
            rows.append(row)
    cons = {"type": "ineq", "fun": lambda z: np.array(rows) @ z,
            "jac": lambda z: np.array(rows)}
    bounds = [(-theta_radius, theta_radius)] * d + [(0.0, None)]
    res = minimize(value, np.zeros(d + 1), jac=grad, method="SLSQP", bounds=bounds,
                   constraints=[cons], options={"ftol": 1e-14, "maxiter": 1000})
    assert res.success, res.message
    return float(res.fun)


def test_values_grow_toward_the_closed_form_limit():
    # With unbounded support and the L1 ground metric, the worst case is the
    # average loss plus r0 * ||theta_1:||_inf (the dual norm); as the class
    # boxes grow, the robust value must rise toward it and never pass it.
    ds = blob_dataset(3, 20, 3)
    r0, eps = 0.1, 1e-5
    limit = regularized_lr_value(ds, r0)
    values = []
    for spread in (1.0, 2.0, 4.0, 8.0, 16.0):
        regions = {}
        for label in (0, 1):
            pts = ds.features[ds.labels == label]
            center, sd = pts.mean(axis=0), pts.std(axis=0, ddof=1)
            regions[label] = BoxRegion(center - spread * sd, center + spread * sd, label)
        data = ProblemData.assemble(ds, regions, radius=r0)
        point, trace = solve_cutting_surface(data, eps)
        assert trace.status == "optimal"
        values.append(objective_f(point, r0))
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert max(values) <= limit + 2 * eps
    assert limit - values[-1] < 0.1 * (limit - values[0])


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


def test_auc_matches_rankdata_on_ties():
    # the average ranks against scipy.stats.rankdata's, bit for bit, on
    # scores with many ties
    rng = np.random.default_rng(6)
    for size in (2, 7, 50, 301):
        labels = np.arange(size) % 2
        rng.shuffle(labels)
        scores = rng.integers(0, max(2, size // 6), size) * 0.25
        ranks = rankdata(scores)
        n_pos, n_neg = labels.sum(), size - labels.sum()
        expected = (ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
        assert auc(scores, labels) == expected


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


def cold_cross_validation(ds, grid, folds, seed, eps, validating=None):
    """Mean validation AUC per radius over the folds ``validating`` (all
    by default), every fit cold, and the fold labels: each class is
    permuted and dealt round-robin into the folds."""
    rng = np.random.default_rng(seed)
    fold_of = np.zeros(ds.m, dtype=int)
    for label in (0, 1):
        for pos, i in enumerate(rng.permutation(np.flatnonzero(ds.labels == label))):
            fold_of[i] = pos % folds
    means = []
    for radius in grid:
        aucs = []
        for fold in range(folds) if validating is None else validating:
            val = np.flatnonzero(fold_of == fold)
            model = fit_wrlr(ds.subset(np.flatnonzero(fold_of != fold)), radius, eps=eps)
            aucs.append(auc(predict_score(model, ds.features[val]), ds.labels[val]))
        means.append(float(np.mean(aucs)))
    return means, fold_of


def test_select_r0_carrying_matches_cold_folds():
    grid = (0.0, 0.01, 0.05, 0.1)
    for seed in (47, 48):
        ds = blob_dataset(seed, 24, 3, flip=1.0)
        report = select_r0(ds, grid, folds=4, seed=seed, eps=1e-5)
        means, fold_of = cold_cross_validation(ds, grid, 4, seed, 1e-5)
        assert np.array_equal(report.fold_of_sample, fold_of)
        assert np.allclose(report.mean_aucs, means, rtol=0.0, atol=1e-9)
        assert report.chosen_radius == grid[means.index(max(means))]


def test_select_r0_skips_folds_that_miss_the_smaller_class():
    grid = (0.0, 0.05)
    full = blob_dataset(50, 30, 3, flip=1.0)
    keep = np.concatenate([np.flatnonzero(full.labels == 1)[:3],
                           np.flatnonzero(full.labels == 0)[:13]])
    ds = full.subset(np.sort(keep))
    report = select_r0(ds, grid, folds=4, seed=3, eps=1e-5)
    # three positives fill folds 0-2, so fold 3 validates on negatives only
    assert not np.any(ds.labels[report.fold_of_sample == 3])
    means, fold_of = cold_cross_validation(ds, grid, 4, 3, 1e-5, validating=range(3))
    assert np.array_equal(report.fold_of_sample, fold_of)
    assert np.allclose(report.mean_aucs, means, rtol=0.0, atol=1e-9)


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
    # one fold leaves no training part, and zero folds no fold at all
    for folds in (0, 1):
        with pytest.raises(ValueError, match=f"folds >= 2 .* got folds={folds}"):
            select_r0(blob_dataset(1, 8, 2), (0.0,), folds=folds)
    with pytest.raises(ValueError, match="grid"):
        select_r0(blob_dataset(1, 8, 2), ())


@pytest.mark.parametrize("folds", [2.5, 4.0, True, "4"])
def test_select_r0_rejects_non_integer_folds(folds):
    with pytest.raises(ValueError, match=f"folds must be an integer, got {folds!r}"):
        select_r0(blob_dataset(1, 16, 2), (0.0,), folds=folds)


def test_save_load_round_trip(tmp_path):
    model = fit_wrlr(blob_dataset(33, 10, 2), 0.05, eps=1e-4)
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert back.kind == model.kind
    assert back.radius == model.radius
    assert np.array_equal(back.theta, model.theta)
    assert back.trace is None
