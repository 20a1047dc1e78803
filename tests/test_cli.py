"""Command-line entry points, invoked in-process."""

import csv
import io
import json

import numpy as np
import pytest

from wassrobust import (
    BoxRegion,
    Dataset,
    ExperimentConfig,
    ProblemData,
    load_model,
    load_results,
    objective_f,
    predict_score,
    solve_cutting_surface,
)
from wassrobust.cli import main
from wassrobust.harness import RESULT_COLUMNS

from conftest import blob_dataset, write_csv


def dataset_csv(tmp_path, seed=19, m=24, n=2):
    ds = blob_dataset(seed, m, n)
    path = tmp_path / "train.csv"
    write_csv(path, np.asarray(ds.features), np.asarray(ds.labels))
    return path


def test_fit_plain_and_robust(tmp_path, capsys):
    data = dataset_csv(tmp_path)
    lr_path = tmp_path / "lr.json"
    code = main(["fit", "--data", str(data), "--label-column", "label",
                 "--r0", "0", "--out", str(lr_path)])
    assert code == 0
    assert "fitted lr model" in capsys.readouterr().out
    lr = load_model(lr_path)
    assert lr.kind == "lr"
    assert lr.radius == 0.0

    robust_path = tmp_path / "wrlr.json"
    code = main(["fit", "--data", str(data), "--label-column", "label",
                 "--r0", "0.05", "--eps", "1e-4", "--out", str(robust_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "fitted wrlr model" in out
    assert "status optimal" in out
    robust = load_model(robust_path)
    assert robust.kind == "wrlr"
    assert robust.radius == 0.05
    score = predict_score(robust, np.zeros(2))
    assert 0.0 < score < 1.0


def test_fit_writes_trace_file(tmp_path):
    data = dataset_csv(tmp_path, seed=23, m=16)
    trace_path = tmp_path / "trace.jsonl"
    main(["fit", "--data", str(data), "--label-column", "label",
          "--r0", "0.05", "--eps", "1e-4", "--out", str(tmp_path / "m.json"),
          "--trace", str(trace_path)])
    lines = [json.loads(l) for l in trace_path.read_text().splitlines()]
    assert lines[0]["event"] == "iteration"
    assert lines[-1]["event"] == "done"


def test_fit_rejects_robust_flags_with_zero_radius(tmp_path, capsys):
    data = dataset_csv(tmp_path, seed=23, m=16)
    trace_path = tmp_path / "t0.jsonl"
    model_path = tmp_path / "m.json"
    code = main(["fit", "--data", str(data), "--label-column", "label",
                 "--r0", "0", "--out", str(model_path), "--trace", str(trace_path)])
    assert code == 2
    assert "--trace" in capsys.readouterr().err
    assert not trace_path.exists() and not model_path.exists()
    code = main(["fit", "--data", str(data), "--label-column", "label", "--r0", "0",
                 "--out", str(model_path), "--solver", "exchange", "--eps", "1e-3",
                 "--drop-cuts", "--alpha", "3"])
    assert code == 2
    err = capsys.readouterr().err
    assert "--solver, --eps, --drop-cuts, --alpha" in err
    assert not model_path.exists()


def solve_instance(tmp_path):
    payload = {
        "features": [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
        "labels": [1, 1, 0, 0],
        "regions": {
            "1": {"lower": [-2.0, -2.0], "upper": [2.0, 2.0]},
            "0": {"points": [[-1.0, 0.0], [0.0, -1.0], [-1.5, -1.5]]},
        },
        "radius": 0.1,
        "theta_radius": 10.0,
    }
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(payload))
    return path, payload


def reference_objective(payload, eps):
    from wassrobust import FiniteRegion

    dataset = Dataset.from_arrays(np.asarray(payload["features"]),
                                  np.asarray(payload["labels"]))
    regions = {
        1: BoxRegion(np.array([-2.0, -2.0]), np.array([2.0, 2.0]), 1),
        0: FiniteRegion(np.asarray(payload["regions"]["0"]["points"]), 0),
    }
    data = ProblemData.assemble(dataset, regions, radius=payload["radius"],
                                theta_radius=payload["theta_radius"])
    point, trace = solve_cutting_surface(data, eps)
    assert trace.status == "optimal"
    return objective_f(point, data.radius)


def test_solve_matches_library(tmp_path, capsys):
    instance, payload = solve_instance(tmp_path)
    out_path = tmp_path / "solution.json"
    code = main(["solve", "--instance", str(instance), "--eps", "1e-5",
                 "--out", str(out_path)])
    assert code == 0
    solution = json.loads(out_path.read_text())
    assert solution["status"] == "optimal"
    assert solution["final_violation"] <= 1e-5
    expected = reference_objective(payload, 1e-5)
    assert solution["objective"] == pytest.approx(expected, abs=1e-9)
    assert len(solution["theta"]) == 3
    assert len(solution["multipliers"]) == 5


def test_solve_writes_to_stdout_by_default(tmp_path, capsys):
    instance, payload = solve_instance(tmp_path)
    code = main(["solve", "--instance", str(instance), "--eps", "1e-4"])
    assert code == 0
    solution = json.loads(capsys.readouterr().out)
    assert solution["status"] == "optimal"
    assert solution["iterations"] >= 1


def test_solve_exchange_agrees(tmp_path, capsys):
    instance, payload = solve_instance(tmp_path)
    code = main(["solve", "--instance", str(instance), "--eps", "1e-6",
                 "--solver", "exchange"])
    assert code == 0
    solution = json.loads(capsys.readouterr().out)
    expected = reference_objective(payload, 1e-6)
    assert solution["objective"] == pytest.approx(expected, abs=2e-6)


def test_solve_exchange_rejects_cut_dropping_flags(tmp_path, capsys):
    instance, payload = solve_instance(tmp_path)
    code = main(["solve", "--instance", str(instance), "--solver", "exchange",
                 "--drop-cuts"])
    assert code == 2
    assert "--drop-cuts" in capsys.readouterr().err
    payload["solver"] = "exchange"
    instance.write_text(json.dumps(payload))
    code = main(["solve", "--instance", str(instance), "--alpha", "3"])
    assert code == 2
    captured = capsys.readouterr()
    assert "--alpha" in captured.err and captured.out == ""


def test_experiment_command(tmp_path, capsys):
    data = dataset_csv(tmp_path, seed=29, m=30)
    cfg = ExperimentConfig(dataset_csv=str(data), label_column="label",
                           train_size=15, repetitions=2, radius_grid=(0.0, 0.05),
                           eps=1e-4, seed=7, capture_timing=False)
    cfg_path = tmp_path / "config.json"
    cfg.to_json(cfg_path)
    csv_out = tmp_path / "results.csv"
    json_out = tmp_path / "results.json"
    code = main(["experiment", "--config", str(cfg_path),
                 "--csv-out", str(csv_out), "--json-out", str(json_out),
                 "--seed", "11"])
    assert code == 0
    assert "2 repetitions" in capsys.readouterr().out
    reps, payload = load_results(csv_out, json_out)
    assert len(reps) == 2
    assert payload["config"]["seed"] == 11
    assert tuple(payload["aggregate"]) >= ()  # payload parses
    header = csv_out.read_text().splitlines()[0]
    assert tuple(header.split(",")) == RESULT_COLUMNS


def test_separate_debug_profile_is_convex(tmp_path, capsys):
    data = dataset_csv(tmp_path, seed=31, m=20)
    code = main(["separate-debug", "--data", str(data), "--label-column", "label",
                 "--sample-index", "0", "--theta", "0.0,1.0,-0.5"])
    assert code == 0
    captured = capsys.readouterr()
    assert "breakpoints" in captured.err
    rows = list(csv.reader(io.StringIO(captured.out)))
    assert rows[0] == ["score", "transport_cost"]
    scores = np.array([float(r[0]) for r in rows[1:]])
    costs = np.array([float(r[1]) for r in rows[1:]])
    assert np.all(np.diff(scores) > 0)
    assert np.min(costs) == 0.0
    # minimal transport cost is convex in the achieved score
    slopes = np.diff(costs) / np.diff(scores)
    assert np.all(np.diff(slopes) >= -1e-9)


def test_separate_debug_writes_csv_file(tmp_path, capsys):
    data = dataset_csv(tmp_path, seed=37, m=12)
    out = tmp_path / "profile.csv"
    code = main(["separate-debug", "--data", str(data), "--label-column", "label",
                 "--sample-index", "3", "--out", str(out)])
    assert code == 0
    with out.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["score", "transport_cost"]
    assert len(rows) > 1


def test_separate_debug_rejects_bad_inputs(tmp_path):
    data = dataset_csv(tmp_path, seed=41, m=10)
    with pytest.raises(SystemExit):
        main(["separate-debug", "--data", str(data), "--label-column", "label",
              "--sample-index", "99"])
    with pytest.raises(SystemExit):
        main(["separate-debug", "--data", str(data), "--label-column", "label",
              "--sample-index", "0", "--theta", "1.0,2.0"])


def test_unknown_command_exits(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])
    with pytest.raises(SystemExit):
        main([])
