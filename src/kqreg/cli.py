"""Command-line entry point.

Subcommands:

    rates table --which {1|2} --out FILE.csv
    rates alpha --r R --beta B --theta T --zeta Z
    rates curve --r R --theta T --zeta Z --alpha-smooth A --d-max D --out FILE.csv
    fit --data FILE.csv --kernel FILE.json --lambda L --tau T --out model.json
    predict --model model.json --data FILE.csv --out FILE.csv
    experiment --config FILE.json --out-dir DIR [--workers N]
    verify {lemma2|capacity|approx|example1|solver} [--seed S] --out FILE.csv

Exit codes: 0 success, 1 verification failures, 2 input errors,
3 solver non-convergence (an experiment with a kernel left without a slope
still writes its CSVs).  Every run echoes its resolved configuration.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import experiments, kernels, rates, solver, verification
from .solver import ConvergenceError, DataSet, FitOptions


def _echo_config(args: argparse.Namespace) -> None:
    resolved = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    print(f"config: {json.dumps(resolved, default=str)}")


def _write_csv(path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _cmd_rates_table(args) -> int:
    if args.which == 2:
        rows = [[f"{r['r']:g}", f"{r['theta']:g}", f"{r['zeta']:g}", f"{r['alpha']:.3f}"]
                for r in rates.table2()]
        _write_csv(args.out, ["r", "theta", "zeta", "alpha"], rows)
    else:
        rows = [[f"{r['theta']:g}", f"{r['zeta']:g}", f"{r['r']:g}", r["kind"],
                 f"{r['alpha']:.3f}"] for r in rates.table1()]
        _write_csv(args.out, ["theta", "zeta", "r", "kind", "alpha"], rows)
    print(f"wrote {args.out}")
    return 0


def _cmd_rates_alpha(args) -> int:
    result = rates.alpha_general(args.r, args.beta, args.theta, args.zeta)
    print(f"alpha = {result.value:.3f} (term {result.argmin_term})")
    print("terms: " + ", ".join(f"T{i + 1}={t:.6f}" for i, t in enumerate(result.terms)))
    return 0


def _cmd_rates_curve(args) -> int:
    curve = rates.figure_curve(args.r, args.theta, args.zeta, args.alpha_smooth, args.d_max)
    rows = [[str(d), f"{ours:.6f}", f"{theirs:.6f}"] for d, ours, theirs in curve]
    _write_csv(args.out, ["d", "ours", "theirs"], rows)
    print(f"wrote {args.out}")
    return 0


def _cmd_fit(args) -> int:
    data = DataSet.from_csv(args.data)
    with open(args.kernel) as fh:
        spec = kernels.spec_from_dict(json.load(fh))
    opts = FitOptions(gap_tol=args.gap_tol, max_epochs=args.max_epochs)
    model = solver.fit(spec, data, lam=args.lam, tau=args.tau, opts=opts)
    model.save(args.out)
    print(f"fitted n={data.n} points: gap={model.gap:.3e}, "
          f"norm={model.norm_sq() ** 0.5:.6f}; wrote {args.out}")
    return 0


def _cmd_predict(args) -> int:
    model = solver.Model.load(args.model)
    preds = model.predict(solver.read_inputs(args.data, model.support.shape[1]))
    with open(args.out, "w", newline="") as fh:  # what csv.writer writes, one call
        fh.write("prediction\r\n" + "".join(f"{p!r}\r\n" for p in preds.tolist()))
    print(f"wrote {len(preds)} predictions to {args.out}")
    return 0


def _cmd_experiment(args) -> int:
    spec = experiments.ExperimentSpec.from_json(args.config)
    result = experiments.rate_experiment(spec, workers=args.workers)
    os.makedirs(args.out_dir, exist_ok=True)
    for name, rows in (("results.csv", result.rows), ("results_raw.csv", result.raw_rows)):
        _write_csv(
            os.path.join(args.out_dir, name),
            ["kernel", "n", "seed", "excess", "lambda", "gap"],
            [[r["kernel"], str(r["n"]), str(r["seed"]), repr(r["excess"]),
              repr(r["lambda"]), repr(r["gap"])] for r in rows],
        )
    _write_csv(
        os.path.join(args.out_dir, "summary.csv"),
        ["kernel", "slope", "intercept", "r2"],
        [[name, repr(s.slope), repr(s.intercept), repr(s.r_squared)]
         for name, s in sorted(result.summaries.items())],
    )
    for notice in result.notices:
        print(f"notice: {notice}", file=sys.stderr)
    for name, s in sorted(result.summaries.items()):
        print(f"{name}: slope={s.slope:.4f} intercept={s.intercept:.4f} r2={s.r_squared:.4f}")
    print(f"wrote results to {args.out_dir}")
    # a kernel without a slope did not converge often enough
    return 3 if {r["kernel"] for r in result.rows} - set(result.summaries) else 0


def _cmd_verify(args) -> int:
    suite = verification.SUITES[args.suite]
    rows, passed = suite(seed=args.seed)
    if args.suite == "capacity":
        header = ["eps", "block_id", "log_count", "bound", "pass"]
        out_rows = [[repr(float(r["eps"])), r["block_id"], repr(float(r["log_count"])),
                     repr(float(r["bound"])), str(bool(r["pass"]))] for r in rows]
    else:
        header = ["case", "lhs", "rhs", "pass"]
        out_rows = [[r["case"], repr(float(r["lhs"])), repr(float(r["rhs"])),
                     str(bool(r["pass"]))] for r in rows]
    if args.out:
        _write_csv(args.out, header, out_rows)
        print(f"wrote {args.out}")
    n_fail = sum(1 for r in rows if not r["pass"])
    print(f"{args.suite}: {len(rows) - n_fail}/{len(rows)} checks passed")
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kqreg",
        description="Kernel quantile regression with additive kernels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rates = sub.add_parser("rates", help="closed-form rate exponents")
    rates_sub = p_rates.add_subparsers(dest="rates_command", required=True)

    p_table = rates_sub.add_parser("table", help="emit an exponent table as CSV")
    p_table.add_argument("--which", type=int, choices=[1, 2], required=True)
    p_table.add_argument("--out", required=True)
    p_table.set_defaults(func=_cmd_rates_table)

    p_alpha = rates_sub.add_parser("alpha", help="evaluate the five-term exponent")
    p_alpha.add_argument("--r", type=float, required=True)
    p_alpha.add_argument("--beta", type=float, required=True)
    p_alpha.add_argument("--theta", type=float, required=True)
    p_alpha.add_argument("--zeta", type=float, required=True)
    p_alpha.set_defaults(func=_cmd_rates_alpha)

    p_curve = rates_sub.add_parser("curve", help="additive vs single-kernel exponents by dimension")
    p_curve.add_argument("--r", type=float, required=True)
    p_curve.add_argument("--theta", type=float, required=True)
    p_curve.add_argument("--zeta", type=float, required=True)
    p_curve.add_argument("--alpha-smooth", type=float, required=True)
    p_curve.add_argument("--d-max", type=int, required=True)
    p_curve.add_argument("--out", required=True)
    p_curve.set_defaults(func=_cmd_rates_curve)

    p_fit = sub.add_parser("fit", help="fit a quantile model to CSV data")
    p_fit.add_argument("--data", required=True)
    p_fit.add_argument("--kernel", required=True)
    p_fit.add_argument("--lambda", dest="lam", type=float, required=True)
    p_fit.add_argument("--tau", type=float, required=True)
    p_fit.add_argument("--out", required=True)
    p_fit.add_argument("--gap-tol", type=float, default=FitOptions.gap_tol)
    p_fit.add_argument("--max-epochs", type=int, default=FitOptions.max_epochs,
                       help="cap on Newton steps")
    p_fit.set_defaults(func=_cmd_fit)

    p_pred = sub.add_parser("predict", help="evaluate a saved model on CSV data")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--data", required=True)
    p_pred.add_argument("--out", required=True)
    p_pred.set_defaults(func=_cmd_predict)

    p_exp = sub.add_parser("experiment", help="run a convergence-rate experiment")
    p_exp.add_argument("--config", required=True)
    p_exp.add_argument("--out-dir", required=True)
    p_exp.add_argument("--workers", type=int, default=1)
    p_exp.set_defaults(func=_cmd_experiment)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite", choices=sorted(verification.SUITES))
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--out", default=None)
    p_ver.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _echo_config(args)
    try:
        return args.func(args)
    except ConvergenceError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
