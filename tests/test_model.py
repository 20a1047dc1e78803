"""Domain types: datasets, regions, scenarios, and the two evaluators."""

import math

import numpy as np
import pytest

from wassrobust import (
    BoxRegion,
    Dataset,
    DualPoint,
    FiniteRegion,
    LogisticLoss,
    Scenario,
    constraint_g,
    objective_f,
)

from conftest import write_csv


def test_sample_freezes_features():
    X = np.array([[1.0, 2.0]])
    ds = Dataset(X, [1])
    X[0, 0] = 9.0
    assert ds.features[0, 0] == 1.0
    with pytest.raises(ValueError):
        ds.features[0, 0] = 5.0
    with pytest.raises(ValueError):
        ds.labels[0] = 0


def test_sample_rejects_bad_label():
    with pytest.raises(ValueError, match="row 0: label must be 0 or 1, got 2"):
        Dataset(np.array([[0.0]]), [2])


def test_dataset_rejects_fractional_labels():
    with pytest.raises(ValueError, match="row 0: label must be 0 or 1, got 0.7"):
        Dataset.from_arrays(np.zeros((3, 2)), [0.7, 1.9, -0.5])
    with pytest.raises(ValueError, match="row 2: label must be 0 or 1, got -0.5"):
        Dataset.from_arrays(np.zeros((3, 2)), [0.0, 1.0, -0.5])
    with pytest.raises(ValueError, match="row 1: label must be 0 or 1, got nan"):
        Dataset.from_arrays(np.zeros((2, 2)), [1.0, np.nan])
    ds = Dataset.from_arrays(np.zeros((2, 2)), [1.0, 0.0])
    assert ds.labels.dtype.kind == "i"
    assert np.array_equal(ds.labels, [1, 0])


def test_dataset_from_arrays_basic():
    X = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    y = np.array([0, 1, 1])
    ds = Dataset.from_arrays(X, y, feature_names=("a", "b"))
    assert ds.m == 3 and ds.n == 2
    assert np.array_equal(ds.features, X)
    assert np.array_equal(ds.labels, y)
    assert ds.class_counts() == (1, 2)
    assert ds.feature_names == ("a", "b")


def test_dataset_subset_preserves_order_and_names():
    ds = Dataset.from_arrays(np.arange(8.0).reshape(4, 2), [0, 1, 0, 1],
                             feature_names=("u", "v"))
    sub = ds.subset([3, 0])
    assert sub.m == 2
    assert np.array_equal(sub.features, [[6.0, 7.0], [0.0, 1.0]])
    assert np.array_equal(sub.labels, [1, 0])
    assert sub.feature_names == ("u", "v")


def test_dataset_rejects_empty_and_ragged():
    with pytest.raises(ValueError, match="at least one sample"):
        Dataset(np.zeros((0, 2)), [])
    with pytest.raises(ValueError):
        Dataset([[0.0, 0.0], [0.0, 0.0, 0.0]], [0, 1])
    with pytest.raises(ValueError, match="2-D"):
        Dataset(np.zeros(3), [0, 1, 0])
    with pytest.raises(ValueError, match="labels length"):
        Dataset(np.zeros((3, 2)), [0, 1])
    with pytest.raises(ValueError, match="feature_names length"):
        Dataset(np.zeros((2, 2)), [0, 1], feature_names=("a",))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_features(bad, tmp_path):
    X = np.zeros((3, 2))
    X[2, 1] = bad
    with pytest.raises(ValueError, match="row 2, column 1.*not finite"):
        Dataset.from_arrays(X, [0, 1, 0])
    path = tmp_path / "bad.csv"
    path.write_text(f"a,b,label\n0,0,0\n1,{bad},1\n")
    with pytest.raises(ValueError, match="row 1, column 1.*not finite"):
        Dataset.from_csv(path, "label")


def test_dataset_labels_are_binary():
    with pytest.raises(ValueError):
        Dataset.from_arrays(np.zeros((2, 1)), [0, 3])


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    X = rng.normal(size=(6, 3))
    y = np.array([0, 1, 1, 0, 1, 0])
    path = tmp_path / "data.csv"
    write_csv(path, X, y)
    ds = Dataset.from_csv(path, "label")
    assert np.array_equal(ds.features, X)
    assert np.array_equal(ds.labels, y)
    assert ds.feature_names == ("x0", "x1", "x2")


def test_csv_label_column_in_the_middle(tmp_path):
    path = tmp_path / "mid.csv"
    path.write_text("a,cls,b\n1.5,0,2.5\n-1.0,1,0.25\n")
    ds = Dataset.from_csv(path, "cls")
    assert np.array_equal(ds.features, [[1.5, 2.5], [-1.0, 0.25]])
    assert np.array_equal(ds.labels, [0, 1])
    assert ds.feature_names == ("a", "b")


def test_csv_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,label\n1.0,0\noops,1\n")
    with pytest.raises(ValueError, match=r"bad\.csv:3: non-numeric"):
        Dataset.from_csv(path, "label")

    path2 = tmp_path / "badlabel.csv"
    path2.write_text("a,label\n1.0,2\n")
    with pytest.raises(ValueError, match=r"badlabel\.csv:2: label"):
        Dataset.from_csv(path2, "label")

    path3 = tmp_path / "nocol.csv"
    path3.write_text("a,b\n1.0,2.0\n")
    with pytest.raises(ValueError, match="no column named 'label'"):
        Dataset.from_csv(path3, "label")

    path4 = tmp_path / "short.csv"
    path4.write_text("a,label\n1.0\n")
    with pytest.raises(ValueError, match=r"short\.csv:2: expected 2 fields"):
        Dataset.from_csv(path4, "label")


def test_box_region_validation_and_membership():
    with pytest.raises(ValueError):
        BoxRegion(np.array([1.0]), np.array([0.0]), 0)
    box = BoxRegion(np.array([-1.0, 0.0]), np.array([1.0, 2.0]), 1)
    assert box.dimension == 2
    assert box.contains([0.0, 1.0])
    assert box.contains([1.0 + 1e-10, 2.0])
    assert not box.contains([1.1, 1.0])
    assert np.array_equal(box.clip([5.0, -5.0]), [1.0, 0.0])


def test_box_zero_width_is_allowed():
    box = BoxRegion(np.array([0.5]), np.array([0.5]), 0)
    assert box.contains([0.5])
    assert box.max_l1_distance_from([0.0]) == 0.5


def test_box_extremes_match_corner_enumeration():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = rng.integers(1, 4)
        lo = rng.normal(size=n)
        hi = lo + rng.uniform(0.0, 2.0, size=n)
        box = BoxRegion(lo, hi, 0)
        ref = rng.normal(size=n)
        corners = np.stack(np.meshgrid(*zip(lo, hi), indexing="ij"),
                           axis=-1).reshape(-1, n)
        assert box.max_l1_distance_from(ref) == pytest.approx(
            np.abs(corners - ref).sum(axis=1).max(), abs=1e-12)
        assert box.l1_norm_max() == pytest.approx(
            np.abs(corners).sum(axis=1).max(), abs=1e-12)
        assert box.l2_norm_sq_max() == pytest.approx(
            (corners**2).sum(axis=1).max(), abs=1e-12)


def test_finite_region_distance_and_membership():
    reg = FiniteRegion(np.array([[0.0, 0.0], [2.0, -1.0]]), 1)
    assert reg.dimension == 2
    assert reg.contains([2.0, -1.0])
    assert not reg.contains([1.0, 0.0])
    assert reg.max_l1_distance_from([0.0, 0.0]) == 3.0
    assert reg.l1_norm_max() == 3.0
    assert reg.l2_norm_sq_max() == 5.0


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(np.array([0.0]), -1, 0)
    with pytest.raises(ValueError):
        Scenario(np.array([0.0]), 0, 7)


def test_dual_point_budget_sign_and_vector_round_trip():
    with pytest.raises(ValueError):
        DualPoint(np.zeros(2), np.array([0.0, -0.5]))
    vec = np.array([0.5, -0.5, 1.0, 2.0, 0.25])
    x = DualPoint(vec[:2], vec[2:])
    assert x.multipliers[-1] == 0.25
    assert np.array_equal(np.concatenate([x.theta, x.multipliers]), vec)


def test_objective_hand_value():
    x = DualPoint(np.zeros(2), np.array([0.3, 0.7, 2.0]))
    assert objective_f(x, 0.5) == pytest.approx(0.5 + 1.0, abs=1e-15)
    assert objective_f(x, 0.0) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(ValueError):
        objective_f(x, -0.1)


def test_constraint_hand_value_at_zero_theta():
    ds = Dataset.from_arrays(np.array([[1.0, -1.0]]), [1])
    loss = LogisticLoss()
    x = DualPoint(np.zeros(3), np.array([0.25, 0.5]))
    sc = Scenario(np.array([2.0, 0.0]), 0, 1)
    # zero theta: loss is log 2 regardless of the point; L1 move is 2
    expected = math.log(2.0) - 0.25 - 0.5 * 2.0
    assert constraint_g(x, 0, sc, loss, ds) == pytest.approx(expected, abs=1e-15)


def test_constraint_matches_independent_formula():
    rng = np.random.default_rng(11)
    loss = LogisticLoss()
    for _ in range(50):
        m, n = 4, 3
        X = rng.normal(size=(m, n))
        y = rng.integers(0, 2, size=m)
        ds = Dataset.from_arrays(X, y)
        x = DualPoint(rng.normal(size=n + 1), np.abs(rng.normal(size=m + 1)))
        i = int(rng.integers(0, m))
        pt = rng.normal(size=n)
        sc = Scenario(pt, i, int(y[i]))
        u = x.theta[0] + pt @ x.theta[1:]
        sign = 2 * int(y[i]) - 1
        expected = (np.logaddexp(0.0, -sign * u) - x.multipliers[i]
                    - x.multipliers[-1] * np.abs(pt - X[i]).sum())
        assert constraint_g(x, i, sc, loss, ds) == pytest.approx(expected, abs=1e-12)


def test_constraint_rejects_label_dimension_and_index_mismatch():
    ds = Dataset.from_arrays(np.array([[0.0]]), [1])
    loss = LogisticLoss()
    x = DualPoint(np.zeros(2), np.array([0.0, 0.0]))
    with pytest.raises(ValueError, match="label"):
        constraint_g(x, 0, Scenario(np.array([0.0]), 0, 0), loss, ds)
    with pytest.raises(ValueError, match="dimension"):
        constraint_g(x, 0, Scenario(np.array([0.0, 1.0]), 0, 1), loss, ds)
    with pytest.raises(IndexError):
        constraint_g(x, 5, Scenario(np.array([0.0]), 5, 1), loss, ds)
