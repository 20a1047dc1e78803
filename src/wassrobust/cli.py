"""Command-line interface.

Subcommands:

* ``fit``             train a plain or robust logistic model from a CSV
* ``solve``           solve a raw robust instance described in JSON
* ``experiment``      run the repeated train/test comparison harness
* ``separate-debug``  dump one sample's transport profile

``experiment`` takes ``--seed`` for its train/test splits and folds;
``fit``, ``solve`` and ``experiment`` take ``--eps``, ``--trace``,
``--drop-cuts`` and ``--alpha``.  A flag that the chosen path would
ignore is an error (exit status 2): ``fit --r0 0`` rejects ``--solver``,
``--eps``, ``--trace``, ``--drop-cuts`` and ``--alpha``, and ``solve``
with the exchange solver rejects ``--drop-cuts`` and ``--alpha``.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from .harness import ExperimentConfig, emit_results, run_experiment
from .model import BoxRegion, Dataset, DualPoint, FiniteRegion
from .reformulate import ProblemData
from .separation import transport_profile
from .solvers import solve_cutting_surface, solve_exchange
from .wrlr import build_regions, fit_lr, fit_wrlr, save_model

__all__ = ["main"]


# Solver flags default to None, so that a flag given on the command line
# can be told apart from one left out; the library supplies the defaults.
def _add_solver_flags(parser):
    parser.add_argument("--solver", choices=["cutting_surface", "exchange"],
                        default=None, help="semi-infinite solver (default cutting_surface)")
    parser.add_argument("--eps", type=float, default=None,
                        help="target feasibility tolerance (default 1e-5)")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write per-iteration JSON lines to PATH")
    parser.add_argument("--drop-cuts", action="store_true", default=None,
                        help="drop cuts that have gone slack")
    parser.add_argument("--alpha", type=float, default=None,
                        help="staleness factor for cut dropping (default 2)")


def _given(**flags):
    """The flags that were set on the command line."""
    return {name: value for name, value in flags.items() if value is not None}


def _reject(args, flags, reason):
    names = ", ".join("--" + name.replace("_", "-") for name in flags)
    print(f"wassrobust {args.command}: error: {names} {reason}", file=sys.stderr)
    return 2


def _cmd_fit(args):
    flags = _given(solver=args.solver, eps=args.eps, trace=args.trace,
                   drop_cuts=args.drop_cuts, alpha=args.alpha)
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
    if "points" in payload:
        return FiniteRegion(np.asarray(payload["points"], dtype=float), label)
    return BoxRegion(np.asarray(payload["lower"], dtype=float),
                     np.asarray(payload["upper"], dtype=float), label)


def _cmd_solve(args):
    with open(args.instance) as fh:
        payload = json.load(fh)
    dataset = Dataset.from_arrays(np.asarray(payload["features"], dtype=float),
                                  np.asarray(payload["labels"]))
    if "regions" in payload:
        regions = {int(k): _region_from_payload(v, int(k))
                   for k, v in payload["regions"].items()}
    else:
        regions = build_regions(dataset)
    data = ProblemData.assemble(
        dataset, regions, radius=float(payload["radius"]),
        theta_radius=float(payload.get("theta_radius", 10.0)),
    )
    eps = 1e-5 if args.eps is None else args.eps
    cut_flags = _given(drop_cuts=args.drop_cuts, alpha=args.alpha)
    if payload.get("solver", args.solver) == "exchange":
        if cut_flags:
            return _reject(args, cut_flags, "only apply to the cutting_surface solver")
        point, trace = solve_exchange(data, eps, trace_path=args.trace)
    else:
        point, trace = solve_cutting_surface(data, eps, trace_path=args.trace,
                                             **cut_flags)
    if point is None:
        print(f"solve failed: {trace.status}", file=sys.stderr)
        return 1
    from .model import objective_f
    out = {
        "status": trace.status,
        "objective": objective_f(point, data.radius),
        "theta": [float(v) for v in point.theta],
        "multipliers": [float(v) for v in point.multipliers],
        "iterations": trace.iterations,
        "cut_count": trace.cut_count,
        "final_violation": trace.final_violation,
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
    if args.drop_cuts:
        overrides["drop_cuts"] = True
    if args.alpha is not None:
        overrides["alpha"] = args.alpha
    if args.trace is not None:
        overrides["trace_dir"] = args.trace
    if overrides:
        config = config.replace(**overrides)
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
        raise SystemExit(f"--theta needs {dim} values (intercept first), got {len(values)}")
    return np.asarray(values)


def _cmd_separate_debug(args):
    dataset = Dataset.from_csv(args.data, args.label_column)
    regions = build_regions(dataset)
    i = args.sample_index
    if not 0 <= i < dataset.m:
        raise SystemExit(f"--sample-index out of range (m={dataset.m})")
    theta = _parse_theta(args.theta, dataset.n + 1)
    label = int(dataset.labels[i])
    profile = transport_profile(theta, regions[label], dataset.features[i])
    rows = [["score", "transport_cost"]]
    rows += [[repr(float(u)), repr(float(c))]
             for u, c in zip(profile.breakpoints, profile.costs)]
    if args.out:
        with open(args.out, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    else:
        csv.writer(sys.stdout).writerows(rows)
    print(f"sample {i} (label {label}): {profile.breakpoints.size} breakpoints, "
          f"entry cost {profile.base_cost}", file=sys.stderr)
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
    p_exp.add_argument("--drop-cuts", action="store_true")
    p_exp.add_argument("--alpha", type=float, default=None)
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
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
