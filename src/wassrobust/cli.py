"""Command-line interface.

Subcommands:

* ``fit``             train a plain or robust logistic model from a CSV
* ``solve``           solve a raw robust instance described in JSON
* ``experiment``      run the repeated train/test comparison harness
* ``separate-debug``  dump one sample's transport profile: its n'+1
                      breakpoints, in the direction the loss rises, with
                      repeated breakpoints dropped
* ``trace-summary``   summarise a ``--trace`` file: status, iterations,
                      master, separation and completion seconds, Newton
                      steps and line-search backtracks per master, the
                      worst KKT residual, absolute and as a share of
                      its master's tolerance, cuts and ridges, the robust
                      value of the returned theta, the certified lower
                      bound, their gap and the report of a master that
                      was not optimal (``failed_master``)

``experiment`` takes ``--seed`` for its train/test splits and folds;
``fit``, ``solve`` and ``experiment`` take ``--eps`` and ``--trace``.
A flag that the chosen path would ignore is an error (exit status 2):
``fit --r0 0`` rejects ``--solver``, ``--eps`` and ``--trace``.
``solve`` also exits with status 2 when the instance's ``"solver"`` is
not ``cutting_surface`` or ``exchange``, or when ``--solver`` names the
other one.  Bad input of any other kind (a value the library rejects, an
unreadable or malformed file, an instance without ``features``,
``labels`` or ``radius`` or whose ``regions`` are not an object of
region objects, an experiment config value of the wrong type or range,
an experiment ``--trace`` that is not an existing directory) prints one
line naming the problem and exits with status 2.  ``trace-summary`` exits with status 2 on a line whose
``schema`` it does not read, naming that schema, and on a line that is
not a JSON object or lacks a field it reads, naming the line number and
the field.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys

import numpy as np

from .harness import ExperimentConfig, emit_results, run_experiment
from .model import BoxRegion, Dataset, FiniteRegion, objective_f
from .reformulate import ProblemData
from .separation import transport_profile
from .solvers import TRACE_SCHEMA, solve_cutting_surface, solve_exchange
from .wrlr import SOLVERS, build_regions, fit_lr, fit_wrlr, save_model

__all__ = ["main"]


# Solver flags default to None, so that a flag given on the command line
# can be told apart from one left out; the library supplies the defaults.
def _add_solver_flags(parser):
    parser.add_argument("--solver", choices=SOLVERS,
                        default=None, help="semi-infinite solver (default cutting_surface)")
    parser.add_argument("--eps", type=float, default=None,
                        help="target feasibility tolerance (default 1e-5)")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write per-iteration JSON lines to PATH")


def _given(**flags):
    """The flags that were set on the command line."""
    return {name: value for name, value in flags.items() if value is not None}


def _error(args, message):
    print(f"wassrobust {args.command}: error: {message}", file=sys.stderr)
    return 2


def _reject(args, flags, reason):
    names = ", ".join("--" + name.replace("_", "-") for name in flags)
    return _error(args, f"{names} {reason}")


def _cmd_fit(args):
    flags = _given(solver=args.solver, eps=args.eps, trace=args.trace)
    if args.r0 == 0.0 and flags:
        return _reject(args, flags, "only apply to a robust fit, and --r0 0 "
                       "fits plain logistic regression")
    train = Dataset.from_csv(args.data, args.label_column)
    if args.r0 == 0.0:
        model = fit_lr(train, theta_radius=args.theta_radius)
    else:
        if "trace" in flags:
            flags["trace_path"] = flags.pop("trace")
        model = fit_wrlr(train, args.r0, theta_radius=args.theta_radius, **flags)
    save_model(model, args.out)
    print(f"fitted {model.kind} model on {train.m} samples "
          f"(radius {model.radius}), wrote {args.out}")
    if model.trace is not None:
        print(f"  iterations {model.trace.iterations}, cuts {model.trace.cut_count}, "
              f"status {model.trace.status}")
    return 0


def _region_from_payload(payload, label):
    if not isinstance(payload, dict):
        raise ValueError(f'region {label} must be an object with "points" or '
                         f'"lower" and "upper", got {payload!r}')
    if "points" in payload:
        return FiniteRegion(np.asarray(payload["points"], dtype=float), label)
    missing = [f'"{key}"' for key in ("lower", "upper") if key not in payload]
    if missing:
        raise ValueError(f'region {label} needs "points" or "lower" and "upper"; '
                         f"it has no {' or '.join(missing)}")
    return BoxRegion(np.asarray(payload["lower"], dtype=float),
                     np.asarray(payload["upper"], dtype=float), label)


def _cmd_solve(args):
    with open(args.instance) as fh:
        payload = json.load(fh)
    missing = [key for key in ("features", "labels", "radius") if key not in payload]
    if missing:
        return _error(args, f"instance {args.instance} has no {', '.join(missing)}")
    solver = payload.get("solver", args.solver or "cutting_surface")
    if solver not in SOLVERS:
        return _error(args, f'instance "solver" is {solver!r}; '
                      f"it must be one of {', '.join(SOLVERS)}")
    if args.solver not in (None, solver):
        return _error(args, f"--solver {args.solver} disagrees with the "
                      f'instance "solver" {solver}')
    dataset = Dataset.from_arrays(np.asarray(payload["features"], dtype=float),
                                  np.asarray(payload["labels"]))
    if "regions" in payload:
        if not isinstance(payload["regions"], dict):
            return _error(args, 'instance "regions" must be an object mapping each '
                          f"label to a region, got {payload['regions']!r}")
        regions = {int(k): _region_from_payload(v, int(k))
                   for k, v in payload["regions"].items()}
    else:
        regions = build_regions(dataset)
    data = ProblemData.assemble(
        dataset, regions, radius=float(payload["radius"]),
        theta_radius=float(payload.get("theta_radius", 10.0)),
    )
    eps = 1e-5 if args.eps is None else args.eps
    solve = solve_exchange if solver == "exchange" else solve_cutting_surface
    point, trace = solve(data, eps)
    if args.trace:
        trace.write_jsonl(args.trace)
    if point is None:
        print(f"solve failed: {trace.status}", file=sys.stderr)
        return 1
    out = {
        "status": trace.status,
        "objective": objective_f(point, data.radius),
        "theta": [float(v) for v in point.theta],
        "multipliers": [float(v) for v in point.multipliers],
        "iterations": trace.iterations,
        "cut_count": trace.cut_count,
        "final_violation": trace.final_violation,
        "robust_value": trace.robust_value,
        "lower_bound": trace.lower_bound,
    }
    text = json.dumps(out, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"solved: objective {out['objective']:.6f}, "
              f"status {trace.status}, wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_experiment(args):
    config = ExperimentConfig.from_json(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.eps is not None:
        overrides["eps"] = args.eps
    if args.trace is not None:
        overrides["trace_dir"] = args.trace
    config = dataclasses.replace(config, **overrides)
    result = run_experiment(config)
    emit_results(result, args.csv_out, args.json_out)
    agg = result.aggregate
    print(f"{config.repetitions} repetitions: "
          f"AUC plain {agg['mean_auc_lr']:.4f}, robust {agg['mean_auc_wrlr']:.4f}, "
          f"paired p {agg['p_value_paired']:.4f}")
    print(f"wrote {args.csv_out} and {args.json_out}")
    return 0


def _parse_theta(text, dim):
    if text is None:
        return np.zeros(dim)
    values = [float(v) for v in text.replace(",", " ").split()]
    if len(values) != dim:
        raise ValueError(f"--theta needs {dim} values (intercept first), got {len(values)}")
    return np.asarray(values)


def _cmd_separate_debug(args):
    dataset = Dataset.from_csv(args.data, args.label_column)
    regions = build_regions(dataset)
    i = args.sample_index
    if not 0 <= i < dataset.m:
        return _error(args, f"--sample-index {i} out of range (m={dataset.m})")
    theta = _parse_theta(args.theta, dataset.n + 1)
    label = int(dataset.labels[i])
    profile = transport_profile(theta, regions[label], dataset.features[i:i + 1])
    # a move along a coordinate already on its face repeats a breakpoint
    scores, costs = profile.breakpoints[0], profile.costs[0]
    keep = np.diff(scores, prepend=np.nan) != 0.0
    rows = [["score", "transport_cost"]]
    rows += [[repr(float(u)), repr(float(c))] for u, c in zip(scores[keep], costs[keep])]
    if args.out:
        with open(args.out, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    else:
        csv.writer(sys.stdout).writerows(rows)
    way = "falls" if label == 1 else "rises"
    print(f"sample {i} (label {label}): {keep.sum()} breakpoints as the score {way}, "
          f"entry cost {profile.base_cost[0]}", file=sys.stderr)
    return 0


# the fields trace-summary reads from each kind of trace line
_SUMMARY_FIELDS = {
    "iteration": ("newton_steps", "backtracks", "master_tol", "kkt_residual", "ridges"),
    "done": ("status", "iterations", "master_seconds", "separation_seconds",
             "completion_seconds", "cut_count", "robust_value", "lower_bound",
             "failed_master"),
}


def _trace_lines(path):
    """The lines of a trace file as dicts; a line that is not a JSON
    object of schema ``TRACE_SCHEMA`` with an "event" and every field
    the summary reads raises ValueError naming its line number."""
    lines = []
    with open(path) as fh:
        for number, text in enumerate(fh, 1):
            if not text.strip():
                continue
            where = f"{path} line {number}"
            try:
                line = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{where} is not JSON: {exc}") from None
            if not isinstance(line, dict):
                raise ValueError(f"{where} is not a JSON object")
            if line.get("schema") != TRACE_SCHEMA:
                raise ValueError(f"{where} has trace schema {line.get('schema')!r}; "
                                 f"this version reads schema {TRACE_SCHEMA}")
            wanted = ("event", *_SUMMARY_FIELDS.get(str(line.get("event")), ()))
            missing = [f'"{key}"' for key in wanted if key not in line]
            if missing:
                raise ValueError(f"{where} has no {', '.join(missing)}")
            lines.append(line)
    return lines


def _cmd_trace_summary(args):
    lines = _trace_lines(args.path)
    records = [line for line in lines if line["event"] == "iteration"]
    done = next((line for line in lines if line["event"] == "done"), None)
    if done is None:
        return _error(args, f"{args.path} has no \"done\" line")
    steps = [r["newton_steps"] for r in records]
    backtracks = [r["backtracks"] for r in records]
    summary = {
        "status": done["status"],
        "iterations": done["iterations"],
        "master_seconds": done["master_seconds"],
        "separation_seconds": done["separation_seconds"],
        "completion_seconds": done["completion_seconds"],
        "newton_steps_per_master": sum(steps) / len(steps) if steps else None,
        "backtracks_per_master": sum(backtracks) / len(backtracks) if backtracks else None,
        "worst_kkt_residual": max((r["kkt_residual"] for r in records), default=None),
        # at most 1 when every master was solved to its tolerance
        "worst_kkt_over_tol": max((r["kkt_residual"] / r["master_tol"] for r in records),
                                  default=None),
        "cuts": done["cut_count"],
        "ridges": sum(r["ridges"] for r in records),
        "robust_value": done["robust_value"],
        "lower_bound": done["lower_bound"],
        "gap": (None if done["robust_value"] is None or done["lower_bound"] is None
                else done["robust_value"] - done["lower_bound"]),
        "failed_master": done["failed_master"],
    }
    for name, value in summary.items():
        print(f"{name} {value!r}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wassrobust",
        description="Wasserstein-robust optimization and robust logistic regression",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="train a model from a CSV dataset")
    p_fit.add_argument("--data", required=True, help="training CSV with a header row")
    p_fit.add_argument("--label-column", required=True)
    p_fit.add_argument("--r0", type=float, default=0.1,
                       help="robustness radius; 0 trains plain logistic regression")
    p_fit.add_argument("--theta-radius", type=float, default=10.0,
                       help="half-width of the parameter box (default 10)")
    p_fit.add_argument("--out", required=True, help="where to write the model JSON")
    _add_solver_flags(p_fit)
    p_fit.set_defaults(func=_cmd_fit)

    p_solve = sub.add_parser("solve", help="solve a raw robust instance from JSON")
    p_solve.add_argument("--instance", required=True,
                         help="instance JSON: features, labels, regions, radius")
    p_solve.add_argument("--out", default=None, help="solution JSON path (default stdout)")
    _add_solver_flags(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_exp = sub.add_parser("experiment", help="run the train/test comparison harness")
    p_exp.add_argument("--config", required=True, help="experiment config JSON")
    p_exp.add_argument("--csv-out", default="results.csv")
    p_exp.add_argument("--json-out", default="results.json")
    p_exp.add_argument("--seed", type=int, default=None)
    p_exp.add_argument("--eps", type=float, default=None)
    p_exp.add_argument("--trace", default=None, metavar="DIR",
                       help="directory for per-repetition trace files")
    p_exp.set_defaults(func=_cmd_experiment)

    p_dbg = sub.add_parser("separate-debug",
                           help="dump the transport profile of one sample")
    p_dbg.add_argument("--data", required=True)
    p_dbg.add_argument("--label-column", required=True)
    p_dbg.add_argument("--sample-index", type=int, required=True)
    p_dbg.add_argument("--theta", default=None,
                       help="parameter vector, intercept first (default zeros)")
    p_dbg.add_argument("--out", default=None, help="breakpoint CSV path (default stdout)")
    p_dbg.set_defaults(func=_cmd_separate_debug)

    p_sum = sub.add_parser("trace-summary", help="summarise a solver trace file")
    p_sum.add_argument("path", help="JSON-lines trace written by --trace")
    p_sum.set_defaults(func=_cmd_trace_summary)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        return _error(args, str(exc))


if __name__ == "__main__":
    sys.exit(main())
