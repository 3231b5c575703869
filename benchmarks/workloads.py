"""The benchmark's three workloads.

Each workload builds its input files once (set-up), then runs rounds.  A round
makes the program calls, timed, and only then checks their outputs with
``checks`` (untimed).  Every round attempts the same operations, so the share
of failed operations is the same in every run.

* ``rate_experiment``: ``kqreg experiment`` on the acceptance configuration
  (d = 4 Gaussian blocks, bump targets, tau = 0.5, lambda = n^(-4/3), additive
  vs product, 8192 risk points, one seed, one worker) cut to n = 100..400.
* ``csv_roundtrip``: ``kqreg fit`` on a weighted training CSV at three quantile
  levels, ``kqreg predict`` on 20,000 rows after each, then a recertification
  of every saved model against its training data.
* ``verify_suites``: ``kqreg verify`` for four suites and the first problem of
  the fifth, ``approx``.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import statistics
import time
from pathlib import Path

import numpy as np

import checks
from kqreg import cli, solver, verification


def _call(argv: list[str], log) -> tuple[int, float]:
    """Run one program command in-process; (exit code, seconds)."""
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
    return code, elapsed


def _read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _write_csv(path, header: list[str], columns: list[np.ndarray]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([repr(float(v)) for v in row])


class Probe:
    """Times ``solver.fit`` and ``Model.predict`` from outside and keeps the
    fitted models.  Two clock reads per call; used in untraced runs of the
    workloads whose fits and predictions happen inside program commands."""

    def __init__(self):
        self.calls: dict[str, list[float]] = {"fit": [], "predict": []}
        self.rows = 0
        self.models: list[solver.Model] = []
        fit, predict = solver.fit, solver.Model.predict

        def timed_fit(*args, **kwargs):
            start = time.perf_counter()
            model = fit(*args, **kwargs)
            self.calls["fit"].append(time.perf_counter() - start)
            self.models.append(model)
            return model

        def timed_predict(model, x):
            start = time.perf_counter()
            out = predict(model, x)
            self.calls["predict"].append(time.perf_counter() - start)
            self.rows += np.atleast_2d(np.asarray(x)).shape[0]
            return out

        solver.fit = timed_fit
        solver.Model.predict = timed_predict

    def take(self, rnd: "Round", work: Path) -> None:
        """Move this round's call times, rows and model bytes into ``rnd``.
        Model bytes are the sizes of the files ``Model.save`` writes, saved
        here after the timed part."""
        total = 0
        for i, model in enumerate(self.models):
            path = work / f"probe-model-{i}.json"
            model.save(path)
            total += path.stat().st_size
            path.unlink()
        rnd.calls.update(self.calls)
        rnd.predict_rows = self.rows
        rnd.metrics["model_bytes"] = total
        self.calls, self.rows, self.models = {"fit": [], "predict": []}, 0, []


class Round:
    """Outcome of one round: metric values, per-call times of fits and
    predictions, operation counts and problems."""

    def __init__(self):
        self.metrics: dict[str, float] = {}
        self.calls: dict[str, list[float]] = {"program": [], "fit": [], "predict": []}
        self.predict_rows = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []


def _best_per_call(rounds: list[Round], kind: str) -> float:
    """Sum over the calls of a round of each call's best time over the rounds.

    Every round makes the same calls in the same order.  This machine runs at
    full speed or up to 2x slower for stretches of seconds to tens of seconds,
    whatever the program does, so a short call is likelier than a whole round
    to have run once at full speed."""
    lists = [r.calls[kind] for r in rounds]
    if len({len(c) for c in lists}) != 1:  # calls differ between rounds
        return min(sum(c) for c in lists)
    return sum(min(times) for times in zip(*lists))


class Workload:
    name = ""
    needs_probe = False

    def summary(self, rounds: list[Round]) -> dict[str, float]:
        """The run's figures from each call's best time over the rounds:
        program calls for the wall time, fits and predictions for their own
        figures.  Medians of a run's rounds followed the machine's duty cycle:
        over five runs of rate_experiment they spread by 0.31, best rounds by
        0.21; over five of verify_suites, per-call best fit and predict
        figures spread by 0.06 where best rounds had spread by 0.13 and 0.24."""
        return {
            "wall_s": _best_per_call(rounds, "program"),
            "fit_s": _best_per_call(rounds, "fit"),
            "predict_rows_per_s": rounds[0].predict_rows / _best_per_call(rounds, "predict"),
            "model_bytes": statistics.median(r.metrics["model_bytes"] for r in rounds),
        }


# --- rate_experiment -------------------------------------------------------------

# The acceptance configuration of criteria 9-10 with n cut to 100..400.  With
# the full grid one round is one 50-90 s program call, most of it the additive
# n = 1600 fit, and this machine's speed changes up to 2x between stretches of
# a few seconds, so one call per run gave no steady figure.  At n <= 400 a
# round takes about 3.5 s and repeats within a run.
ACCEPTANCE = {
    "layout": {"dims": [1, 1, 1, 1]},
    "targets": [{"kind": "kernel_bump", "center": c, "sigma": 1.0} for c in (0.2, 0.4, 0.6, 0.8)],
    "noise": {"kind": "uniform", "halfwidth": 0.5},
    "tau": 0.5,
    "kernel_a": {"type": "additive", "dims": [1, 1, 1, 1],
                 "components": [{"type": "gaussian", "sigma": 1.0}] * 4},
    "kernel_b": {"type": "product", "dims": [1, 1, 1, 1],
                 "components": [{"type": "gaussian", "sigma": 1.0}] * 4},
    "n_grid": [100, 200, 400],
    "beta": 4.0 / 3.0,
    "risk_eval": 8192,
    "gap_tol": 1e-8,
    "max_epochs": 1000000,
}


# Experiment seed 0 whatever --seed says: the sweep count of each additive fit
# depends on the drawn data.  Over experiment seeds 0-3 the additive fits at
# n <= 400 took 2.9, 4.9, 3.1 and 2.7 s, and with n up to 1600 seed 2 took
# 173 s in all, close to a run's 180 s limit.
EXPERIMENT_SEED = 0


class RateExperiment(Workload):
    name = "rate_experiment"
    needs_probe = True

    def __init__(self, work: Path, seed: int, probe: Probe | None):
        self.work, self.probe = work, probe
        self.config = work / "experiment.json"
        self.config.write_text(json.dumps(dict(ACCEPTANCE, seeds=[EXPERIMENT_SEED])))

    def run_round(self, idx: int) -> Round:
        out_dir = self.work / f"round{idx}"
        rnd = Round()
        with open(self.work / "program.log", "a") as log:
            code, wall = _call(["experiment", "--config", str(self.config),
                                "--out-dir", str(out_dir), "--workers", "1"], log)
        rnd.metrics["wall_s"] = wall
        rnd.calls["program"].append(wall)
        if self.probe is not None:
            self.probe.take(rnd, self.work)
        jobs = 2 * len(ACCEPTANCE["n_grid"])
        rnd.attempted = jobs
        if code != 0:
            rnd.failed = jobs
            return rnd
        rows = _read_csv(out_dir / "results.csv")
        raw = _read_csv(out_dir / "results_raw.csv")
        rnd.failed = sum(1 for r in rows if not math.isfinite(float(r["excess"])))
        rnd.problems = checks.check_rate_results(
            rows, raw, _read_csv(out_dir / "summary.csv"),
            kernels=("additive", "product"), n_grid=tuple(ACCEPTANCE["n_grid"]))
        return rnd


# --- csv_roundtrip ---------------------------------------------------------------

TRAIN_N = 1000
PREDICT_ROWS = 20000
TAUS = (0.1, 0.5, 0.9)
LAMBDA = 1e-3
GAP_TOL = 1e-8  # kqreg fit's default --gap-tol, used unchanged
# The training set is fixed, not drawn from --seed: the weighted
# recertification, the one operation that fails today, must fail on inputs
# that do not depend on the seed.  The prediction rows come from the seed.
TRAIN_SEED = 1405
KERNEL = {"type": "additive", "dims": [1, 1, 1],
          "components": [{"type": "gaussian", "sigma": 0.5},
                         {"type": "gaussian", "sigma": 1.0},
                         {"type": "sobolev_min"}]}


def _csv_target(X: np.ndarray) -> np.ndarray:
    return (np.sin(2.0 * np.pi * X[:, 0]) + np.exp(-((X[:, 1] - 0.5) ** 2) / 0.1)
            + X[:, 2] ** 2)


class CsvRoundtrip(Workload):
    name = "csv_roundtrip"
    needs_probe = False  # its fits and predictions are whole program commands

    def __init__(self, work: Path, seed: int, probe: Probe | None):
        self.work = work
        rng = np.random.default_rng(TRAIN_SEED)
        X = rng.random((TRAIN_N, 3))
        y = _csv_target(X) + (0.2 + 0.3 * X[:, 2]) * rng.standard_normal(TRAIN_N)
        w = rng.uniform(0.2, 1.8, size=TRAIN_N)
        w /= w.sum()
        w[-1] = 1.0 - w[:-1].sum()
        self.train = (X, y, w)
        self.train_csv = work / "train.csv"
        _write_csv(self.train_csv, ["x1", "x2", "x3", "y", "w"], [X[:, 0], X[:, 1], X[:, 2], y, w])
        self.kernel_json = work / "kernel.json"
        self.kernel_json.write_text(json.dumps(KERNEL))
        # kqreg predict insists on a y column, which it ignores; it gets f*(x).
        rng = np.random.default_rng([seed, 1])
        self.pred_X = rng.random((PREDICT_ROWS, 3))
        self.pred_csv = work / "predict.csv"
        _write_csv(self.pred_csv, ["x1", "x2", "x3", "y"],
                   [self.pred_X[:, 0], self.pred_X[:, 1], self.pred_X[:, 2],
                    _csv_target(self.pred_X)])

    def run_round(self, idx: int) -> Round:
        rnd = Round()
        outcome = {}
        with open(self.work / "program.log", "a") as log:
            start = time.perf_counter()
            for tau in TAUS:
                model = self.work / f"model-{tau}.json"
                preds = self.work / f"preds-{tau}.csv"
                fit_code, t = _call(["fit", "--data", str(self.train_csv),
                                     "--kernel", str(self.kernel_json), "--lambda", repr(LAMBDA),
                                     "--tau", repr(tau), "--gap-tol", repr(GAP_TOL),
                                     "--out", str(model)], log)
                rnd.calls["fit"].append(t)
                rnd.calls["program"].append(t)
                pred_code, t = _call(["predict", "--model", str(model),
                                      "--data", str(self.pred_csv), "--out", str(preds)], log)
                rnd.calls["predict"].append(t)
                rnd.calls["program"].append(t)
                rnd.predict_rows += PREDICT_ROWS
                outcome[tau] = (model, preds, fit_code, pred_code)
            recert_start = time.perf_counter()
            training = solver.DataSet.from_csv(self.train_csv)
            recert = {}
            for tau, (model, _, fit_code, _) in outcome.items():
                if fit_code == 0:
                    loaded = solver.Model.load(model)
                    recert[tau] = (solver.duality_gap(loaded, training), loaded.dual)
            end = time.perf_counter()
            rnd.calls["program"].append(end - recert_start)
            rnd.metrics["wall_s"] = end - start
        rnd.metrics["model_bytes"] = sum(m.stat().st_size for m, _, c, _ in outcome.values()
                                         if c == 0)

        X, y, w = self.train
        checked, predictions = [], []
        for tau, (model_path, preds_path, fit_code, pred_code) in outcome.items():
            rnd.attempted += 3
            if fit_code != 0:
                rnd.failed += 3
                continue
            model = json.loads(model_path.read_text())
            rnd.problems += [f"tau={tau}: {p}" for p in
                             checks.check_certificate(model, X, y, w, GAP_TOL)]
            if pred_code != 0:
                rnd.failed += 1
            else:
                checked.append(model)
                predictions.append(np.loadtxt(preds_path, delimiter=",", skiprows=1, ndmin=1))
            gap, dual = recert[tau]
            if checks.check_recertification(model, X, y, w, dual, gap, GAP_TOL):
                rnd.failed += 1
        rnd.problems += checks.check_predictions(checked, self.pred_X, predictions)
        return rnd


# --- verify_suites ---------------------------------------------------------------

# Report rows of each suite run through `kqreg verify`, at suite seed 0.
CLI_SUITES = {"lemma2": 100, "capacity": 6, "example1": 3, "solver": 33}
SERIES_M = 10000  # kqreg verify example1 runs the series to M = 10^4
# The approx suite is called as the function `kqreg verify approx` runs, cut to
# its first problem (four weighted n = 36 fits): the whole suite takes 24 s,
# 20 of them in its second problem, and could not repeat within a run.
APPROX_PROBLEMS = 1
# The suites run at their seed 0 whatever --seed says: at suite seed 2 the
# approx suite stops with a ConvergenceError (exit 3), and between seeds 0-3
# its time ranged from 10 to 32 s.
SUITE_SEED = 0


class VerifySuites(Workload):
    name = "verify_suites"
    needs_probe = True

    def __init__(self, work: Path, seed: int, probe: Probe | None):
        self.work, self.probe = work, probe

    def run_round(self, idx: int) -> Round:
        rnd = Round()
        codes = {}
        approx_rows = None
        with open(self.work / "program.log", "a") as log:
            start = time.perf_counter()
            for suite in CLI_SUITES:
                report = self.work / f"round{idx}-{suite}.csv"
                codes[suite], t = _call(["verify", suite, "--seed", str(SUITE_SEED),
                                         "--out", str(report)], log)
                rnd.calls["program"].append(t)
            approx_start = time.perf_counter()
            try:
                approx_rows, _ = verification.SUITES["approx"](
                    seed=SUITE_SEED, n_problems=APPROX_PROBLEMS)
            except (solver.ConvergenceError, ValueError) as err:
                print(f"approx: {err!r}", file=log)
            end = time.perf_counter()
            rnd.calls["program"].append(end - approx_start)
            rnd.metrics["wall_s"] = end - start
        if self.probe is not None:
            self.probe.take(rnd, self.work)
        for suite, code in codes.items():
            rnd.attempted += 1
            if code not in (0, 1):  # 1 is a failed check, judged below; others are errors
                rnd.failed += 1
                continue
            rows = _read_csv(self.work / f"round{idx}-{suite}.csv")
            rnd.problems += checks.check_suite_report(suite, rows, CLI_SUITES[suite])
            if suite == "example1":
                rnd.problems += checks.check_series(rows, SERIES_M)
        rnd.attempted += 1
        if approx_rows is None:
            rnd.failed += 1
        else:
            # the report's text form, as `kqreg verify` writes it
            rows = [{"case": r["case"], "lhs": repr(float(r["lhs"])),
                     "rhs": repr(float(r["rhs"])), "pass": str(bool(r["pass"]))}
                    for r in approx_rows]
            rnd.problems += checks.check_suite_report("approx", rows, 4 * APPROX_PROBLEMS)
        return rnd


WORKLOADS = {cls.name: cls for cls in (RateExperiment, CsvRoundtrip, VerifySuites)}
