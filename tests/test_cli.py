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
    objective_f,
    predict_score,
    solve_cutting_surface,
)
from wassrobust import cli, convex, fit_wrlr
from wassrobust.cli import main
from wassrobust.harness import RESULT_COLUMNS

from conftest import blob_dataset, read_results, write_config, write_csv


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


def test_trace_summary_matches_the_solve_trace(tmp_path, capsys, monkeypatch):
    fits, fit_wrlr = [], cli.fit_wrlr

    def recorded_fit(*args, **kwargs):
        fits.append(fit_wrlr(*args, **kwargs))
        return fits[-1]

    monkeypatch.setattr(cli, "fit_wrlr", recorded_fit)
    data = dataset_csv(tmp_path, seed=23, m=16)
    trace_path = tmp_path / "trace.jsonl"
    assert main(["fit", "--data", str(data), "--label-column", "label", "--r0", "0.05",
                 "--out", str(tmp_path / "m.json"), "--trace", str(trace_path)]) == 0
    capsys.readouterr()
    assert main(["trace-summary", str(trace_path)]) == 0
    printed = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
    trace = fits[0].trace
    summary = trace.summary()
    steps = [r.newton_steps for r in trace.records]
    backtracks = [r.backtracks for r in trace.records]
    assert printed == {
        "status": repr(summary["status"]),
        "iterations": repr(summary["iterations"]),
        "master_seconds": repr(summary["master_seconds"]),
        "separation_seconds": repr(summary["separation_seconds"]),
        "completion_seconds": repr(summary["completion_seconds"]),
        "newton_steps_per_master": repr(sum(steps) / len(steps)),
        "backtracks_per_master": repr(sum(backtracks) / len(backtracks)),
        "worst_kkt_residual": repr(max(r.kkt_residual for r in trace.records)),
        "worst_kkt_over_tol": repr(max(r.kkt_residual / r.master_tol for r in trace.records)),
        "cuts": repr(summary["cut_count"]),
        "ridges": repr(sum(r.ridges for r in trace.records)),
        "robust_value": repr(trace.robust_value),
        "lower_bound": repr(trace.lower_bound),
        "gap": repr(trace.robust_value - trace.lower_bound),
        "failed_master": repr(None),
    }
    assert trace.robust_value - trace.lower_bound <= 1e-5
    # every master of an optimal solve meets its own tolerance
    assert float(printed["worst_kkt_over_tol"]) <= 1.0


def test_failed_master_reaches_the_trace_and_its_summary(tmp_path, capsys, monkeypatch):
    # no master can solve in two Newton steps: the fit raises, yet its
    # trace is written and names the master that failed
    monkeypatch.setattr(convex, "MAX_NEWTON", 2)
    path = tmp_path / "trace.jsonl"
    with pytest.raises(RuntimeError, match="master_iteration_limit"):
        fit_wrlr(blob_dataset(19, 24, 2), 0.05, trace_path=str(path))
    done = json.loads(path.read_text().splitlines()[-1])
    assert done["event"] == "done" and done["status"] == "master_iteration_limit"
    failed = done["failed_master"]
    assert failed["newton_steps"] == 2
    assert set(failed) == {"newton_steps", "backtracks", "kkt_residual", "ridges",
                           "master_tol"}
    assert main(["trace-summary", str(path)]) == 0
    printed = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
    assert printed["failed_master"] == repr(failed)


def test_trace_summary_refuses_unknown_schema_and_unfinished_trace(tmp_path, capsys):
    path = tmp_path / "old.jsonl"
    for schema in (4, 5, 6, 7, 8):
        path.write_text(json.dumps({"schema": schema, "event": "done",
                                    "status": "optimal"}) + "\n")
        assert main(["trace-summary", str(path)]) == 2
        assert f"trace schema {schema};" in capsys.readouterr().err
    path.write_text(json.dumps({"schema": 9, "event": "iteration", "newton_steps": 9,
                                "backtracks": 2, "master_tol": 1e-8, "kkt_residual": 0.0,
                                "ridges": 0}) + "\n")
    assert main(["trace-summary", str(path)]) == 2
    assert 'no "done" line' in capsys.readouterr().err
    done = {"schema": 9, "event": "done", "status": "optimal", "master_seconds": 0.1,
            "separation_seconds": 0.1, "cut_count": 3, "robust_value": 0.5}
    for lines, message in [
        ([{"schema": 9}], 'line 1 has no "event"'),
        ([done], 'line 1 has no "iterations", "completion_seconds", "lower_bound", '
                 '"failed_master"'),
        ([{"schema": 9, "event": "iteration", "newton_steps": 9, "kkt_residual": 0.0,
           "ridges": 0}], 'line 1 has no "backtracks", "master_tol"'),
        (["[4]", done], "line 1 is not a JSON object"),
    ]:
        path.write_text("".join((line if isinstance(line, str) else json.dumps(line))
                                + "\n" for line in lines))
        assert main(["trace-summary", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"wassrobust trace-summary: error: {path} {message}\n"
        assert captured.out == ""


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
                 "--out", str(model_path), "--solver", "exchange", "--eps", "1e-3"])
    assert code == 2
    err = capsys.readouterr().err
    assert "--solver, --eps only apply to a robust fit" in err
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
    # the returned point is the completion of its theta, within eps of the bound
    assert solution["robust_value"] == solution["objective"]
    assert solution["robust_value"] - solution["lower_bound"] <= 1e-5
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


def test_solve_rejects_unknown_instance_solver(tmp_path, capsys):
    instance, payload = solve_instance(tmp_path)
    payload["solver"] = "exchnage"
    instance.write_text(json.dumps(payload))
    code = main(["solve", "--instance", str(instance)])
    assert code == 2
    captured = capsys.readouterr()
    assert "'exchnage'" in captured.err and captured.out == ""


def test_solve_rejects_solver_flag_that_disagrees_with_instance(tmp_path, capsys):
    instance, payload = solve_instance(tmp_path)
    payload["solver"] = "cutting_surface"
    instance.write_text(json.dumps(payload))
    code = main(["solve", "--instance", str(instance), "--solver", "exchange"])
    assert code == 2
    captured = capsys.readouterr()
    assert "--solver exchange" in captured.err
    assert "cutting_surface" in captured.err and captured.out == ""


def test_experiment_command(tmp_path, capsys):
    data = dataset_csv(tmp_path, seed=29, m=30)
    cfg = ExperimentConfig(dataset_csv=str(data), label_column="label",
                           train_size=15, repetitions=2, radius_grid=(0.0, 0.05),
                           eps=1e-4, seed=7, capture_timing=False)
    cfg_path = tmp_path / "config.json"
    write_config(cfg, cfg_path)
    csv_out = tmp_path / "results.csv"
    json_out = tmp_path / "results.json"
    code = main(["experiment", "--config", str(cfg_path),
                 "--csv-out", str(csv_out), "--json-out", str(json_out),
                 "--seed", "11"])
    assert code == 0
    assert "2 repetitions" in capsys.readouterr().out
    rows, payload = read_results(csv_out, json_out)
    assert len(rows) == 2
    assert payload["config"]["seed"] == 11
    assert tuple(payload["aggregate"]) >= ()  # payload parses
    header = csv_out.read_text().splitlines()[0]
    assert tuple(header.split(",")) == RESULT_COLUMNS


@pytest.mark.parametrize("key, value, message", [
    ("folds", 0, "folds=0"),
    ("folds", 2.5, "folds must be an integer, got 2.5"),
    ("repetitions", 2.0, "repetitions must be an integer, got 2.0"),
    ("train_size", 20.0, "train_size must be an integer, got 20.0"),
    ("radius_grid", 0.1, "radius_grid must be a list of numbers, got 0.1"),
    ("eps", "1e-5", "eps must be a positive number, got '1e-5'"),
    ("eps", 0, "eps must be a positive number, got 0"),
    ("eps", True, "eps must be a positive number, got True"),
    ("theta_radius", "10", "theta_radius must be a positive number, got '10'"),
    ("capture_timing", "no", "capture_timing must be true or false, got 'no'"),
    ("standardize", "yes", "standardize must be true or false, got 'yes'"),
    ("dataset_csv", 5, "dataset_csv must be a string, got 5"),
    ("label_column", 1, "label_column must be a string, got 1"),
    ("trace_dir", 3, "trace_dir must be a string or null, got 3"),
], ids=["folds-0", "folds-2.5", "repetitions-2.0", "train_size-20.0", "radius_grid-0.1",
        "eps-str", "eps-0", "eps-bool", "theta_radius-str", "capture_timing-str",
        "standardize-str", "dataset_csv-int", "label_column-int", "trace_dir-int"])
def test_experiment_bad_config_value_exits_2_naming_the_key(tmp_path, capsys, key, value,
                                                             message):
    data = dataset_csv(tmp_path, seed=29, m=30)
    cfg = ExperimentConfig(dataset_csv=str(data), label_column="label",
                           train_size=15, repetitions=1, radius_grid=(0.0,))
    cfg_path = tmp_path / "config.json"
    write_config(cfg, cfg_path)
    payload = json.loads(cfg_path.read_text())
    cfg_path.write_text(json.dumps({**payload, key: value}))
    csv_out = tmp_path / "results.csv"
    assert main(["experiment", "--config", str(cfg_path), "--csv-out", str(csv_out),
                 "--json-out", str(tmp_path / "results.json")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("wassrobust experiment: error: ")
    assert message in captured.err and captured.err.count("\n") == 1
    assert not csv_out.exists()


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
    # one half of the profile, from the anchor the way the loss rises:
    # the score moves one way and the cost rises
    moves = np.diff(scores)
    assert np.all(moves > 0) or np.all(moves < 0)
    assert np.all(np.diff(costs) > 0)
    assert np.min(costs) == costs[0] == 0.0
    # minimal transport cost is convex in the achieved score
    slopes = np.diff(costs) / np.abs(moves)
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


def test_separate_debug_rejects_bad_inputs(tmp_path, capsys):
    data = dataset_csv(tmp_path, seed=41, m=10)
    code = main(["separate-debug", "--data", str(data), "--label-column", "label",
                 "--sample-index", "99"])
    assert code == 2
    assert "--sample-index 99 out of range (m=10)" in capsys.readouterr().err
    code = main(["separate-debug", "--data", str(data), "--label-column", "label",
                 "--sample-index", "0", "--theta", "1.0,2.0"])
    assert code == 2
    assert "--theta needs 3 values (intercept first), got 2" in capsys.readouterr().err


FIT = ["fit", "--data", "{csv}", "--label-column", "label"]


@pytest.mark.parametrize("argv, message", [
    (FIT + ["--theta-radius", "0"], "theta_radius must be positive, got 0.0"),
    (["fit", "--data", "{bad_csv}", "--label-column", "label"],
     "bad.csv:3: non-numeric field"),
    (["fit", "--data", "{missing}", "--label-column", "label"],
     "No such file or directory"),
    (["solve", "--instance", "{no_radius}"], "no_radius.json has no radius"),
    (["solve", "--instance", "{negative_radius}"], "radius must be positive"),
    (["solve", "--instance", "{no_upper}"],
     'region 1 needs "points" or "lower" and "upper"; it has no "upper"'),
    (["solve", "--instance", "{empty_region}"],
     'region 0 needs "points" or "lower" and "upper"; it has no "lower" or "upper"'),
    (["solve", "--instance", "{region_not_object}"],
     'region 0 must be an object with "points" or "lower" and "upper", got 5'),
    (["solve", "--instance", "{regions_list}"],
     'instance "regions" must be an object mapping each label to a region, got [1]'),
    (FIT + ["--eps", "-1"], "eps must be positive"),
    (FIT + ["--r0", "-1"], "radius must be non-negative"),
    (["separate-debug", "--data", "{csv}", "--label-column", "label",
      "--sample-index", "9"], "--sample-index 9 out of range (m=4)"),
], ids=["theta-radius-0", "non-numeric-field", "missing-csv", "instance-without-radius",
        "negative-radius", "region-without-upper", "region-without-points-or-lower",
        "region-not-object", "regions-list", "negative-eps", "negative-r0", "sample-index-9"])
def test_bad_input_exits_2_naming_the_problem(tmp_path, capsys, argv, message):
    csv_path = dataset_csv(tmp_path, seed=43, m=4)
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("x0,x1,label\n0.5,1.0,1\nabc,0.0,0\n")
    _, payload = solve_instance(tmp_path)
    paths = {"csv": csv_path, "bad_csv": bad_csv, "missing": tmp_path / "absent.csv"}
    instances = {
        "no_radius": {key: value for key, value in payload.items() if key != "radius"},
        "negative_radius": {**payload, "radius": -1.0},
        "no_upper": {**payload, "regions": {**payload["regions"],
                                            "1": {"lower": [-2.0, -2.0]}}},
        "empty_region": {**payload, "regions": {**payload["regions"], "0": {}}},
        "region_not_object": {**payload, "regions": {"0": 5}},
        "regions_list": {**payload, "regions": [1]},
    }
    for name, instance in instances.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(instance))
    out = tmp_path / "out.file"
    args = [arg.format(**paths) for arg in argv] + ["--out", str(out)]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"wassrobust {args[0]}: error: ")
    assert message in captured.err and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("argv, config", [
    (FIT + ["--out", "{out}", "--solver", "exchange", "--drop-cuts", "--alpha", "3"], {}),
    (FIT + ["--out", "{out}", "--alpha", "3"], {}),
    (FIT + ["--out", "{out}", "--drop-cuts"], {}),
    (["solve", "--instance", "{instance}", "--out", "{out}", "--alpha", "3"], {}),
    (["solve", "--instance", "{instance}", "--out", "{out}", "--drop-cuts"], {}),
    (["experiment", "--config", "{config}", "--csv-out", "{out}", "--drop-cuts",
      "--alpha", "5"], {"solver": "exchange"}),
    (["experiment", "--config", "{config}", "--csv-out", "{out}", "--alpha", "5"], {}),
    (["experiment", "--config", "{config}", "--csv-out", "{out}", "--drop-cuts"], {}),
], ids=["fit-exchange", "fit-alpha-alone", "fit-drop-cuts", "solve-alpha-alone",
        "solve-drop-cuts", "experiment-exchange", "experiment-alpha-alone",
        "experiment-drop-cuts"])
def test_cut_flags_that_would_not_take_effect_exit_2(tmp_path, capsys, argv, config):
    # every cut is kept, so no command has a cut-dropping flag to accept
    csv_path = dataset_csv(tmp_path, seed=43, m=12)
    instance, _ = solve_instance(tmp_path)
    cfg = ExperimentConfig(dataset_csv=str(csv_path), label_column="label",
                           train_size=8, repetitions=1, **config)
    cfg_path = tmp_path / "config.json"
    write_config(cfg, cfg_path)
    out = tmp_path / "out.file"
    paths = {"csv": csv_path, "instance": instance, "config": cfg_path, "out": out}
    with pytest.raises(SystemExit) as exit_info:
        main([arg.format(**paths) for arg in argv])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments: --" in captured.err
    assert captured.out == "" and not out.exists()


def test_unknown_command_exits(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])
    with pytest.raises(SystemExit):
        main([])
