"""Acceptance gate: every release criterion at its stated tolerance.

Each test records one `criterion N: PASS/FAIL` line, echoed in an
"acceptance criteria" section at the end of the pytest run.  Criteria 9 and
10 run the full convergence-rate experiment through the CLI and dominate the
runtime (a few minutes; bounded at 30 together).
"""

import csv
import json
import math
import time

import numpy as np
import pytest

import acceptance_report
from table_values import TABLE2_EXPECTED

from kqreg.cli import main as cli_main
from kqreg.experiments import BlockTarget, ExperimentSpec
from kqreg.kernels import Additive, BlockLayout, Gaussian, Product
from kqreg.rates import alpha_general, alpha_quantile, beta_quantile
from kqreg.verification import (
    verify_approx,
    verify_capacity,
    verify_filter_bound,
    verify_series,
    verify_solver,
)


def report(num: int, ok: bool, detail: str) -> None:
    mark = "PASS" if ok else "FAIL"
    line = f"criterion {num:2d}: {mark}  {detail}"
    print(line)
    acceptance_report.LINES.append(line)
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_table2_reproduction(tmp_path):
    t0 = time.time()
    out = tmp_path / "table2.csv"
    code = cli_main(["rates", "table", "--which", "2", "--out", str(out)])
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    elapsed = time.time() - t0
    worst = 0.0
    for row in rows:
        key = (float(row["r"]), float(row["theta"]), float(row["zeta"]))
        worst = max(worst, abs(float(row["alpha"]) - TABLE2_EXPECTED[key]))
    ok = code == 0 and len(rows) == 27 and worst <= 5e-4 and elapsed < 1.0
    report(1, ok, f"27 table cells, max |err| = {worst:.2e} (tol 5e-4), {elapsed:.2f}s")


def test_criterion_2_table1_reproduction():
    t0 = time.time()
    worst = 0.0
    for r in (0.1, 0.25, 0.5):
        worst = max(worst, abs(alpha_general(r, 1.0, 1.0, 1.0).value - min(r, 1 / 3)))
        worst = max(worst, abs(alpha_general(r, 1.0, 1.0, 1.5).value - min(r, 1 / 7)))
        worst = max(worst, abs(alpha_general(r, 1.0, 0.5, 1.0).value - min(r, 1 / 7)))
        worst = max(worst, abs(alpha_general(r, 1.0, 0.0, 1.0).value))
        worst = max(worst, abs(alpha_general(r, 1.0, 1.0, 2.0 - 1e-9).value))
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed < 1.0
    report(2, ok, f"limit rows max |err| = {worst:.2e} (tol 1e-6), {elapsed:.2f}s")


def test_criterion_3_quantile_schedule_equalizes_terms():
    t0 = time.time()
    worst = 0.0
    for p in (1.0, 2.0, 5.0, 10.0, 100.0, math.inf):
        theta = 1.0 if math.isinf(p) else p / (p + 1.0)
        res = alpha_general(0.5, beta_quantile(p), theta, 1e-6)
        target = alpha_quantile(p)
        worst = max(worst, max(abs(t - target) for t in res.terms))
    elapsed = time.time() - t0
    ok = worst <= 1e-5 and elapsed < 1.0
    report(3, ok, f"five terms vs quantile exponent, max |err| = {worst:.2e} (tol 1e-5), {elapsed:.2f}s")


def test_criterion_4_filter_inequality_100_configs():
    t0 = time.time()
    rows, ok = verify_filter_bound(seed=0)
    elapsed = time.time() - t0
    margin = min(r["rhs"] + 1e-9 - r["lhs"] for r in rows)
    ok = ok and len(rows) == 100 and elapsed < 10.0
    report(4, ok, f"100 configs, min slack = {margin:.2e} (tol 1e-9), {elapsed:.1f}s")


def test_criterion_5_approximation_bound():
    t0 = time.time()
    rows, ok = verify_approx(seed=0, n_problems=10)
    elapsed = time.time() - t0
    margin = min(r["rhs"] + 1e-6 - r["lhs"] for r in rows)
    ok = ok and len(rows) == 40 and elapsed < 60.0
    report(5, ok, f"10 problems x 4 lambdas, min slack = {margin:.2e} (tol 1e-6), {elapsed:.1f}s")


def test_criterion_6_solver_correctness():
    t0 = time.time()
    rows, ok = verify_solver(seed=0)
    elapsed = time.time() - t0
    oracle = [r for r in rows if r["case"].startswith("oracle")]
    gaps = [r for r in rows if r["case"].startswith("gap")]
    norms = [r for r in rows if r["case"].startswith("norm")]
    ok = ok and len(oracle) == 9 and len(gaps) == 4 and len(norms) == 20 and elapsed < 60.0
    worst_gap = max(r["lhs"] for r in gaps)
    report(6, ok, f"{len(oracle)} oracle + {len(gaps)} gap (max {worst_gap:.1e}, tol 1e-8) "
                  f"+ {len(norms)} norm-bound checks, {elapsed:.1f}s")


def test_criterion_7_additive_net_construction():
    t0 = time.time()
    rows, ok = verify_capacity(seed=0, eps_grid=(0.5, 0.25, 0.125), n_fresh=1000)
    elapsed = time.time() - t0
    cover = [r for r in rows if r["block_id"] == "coverage"]
    worst = max(r["log_count"] / r["bound"] for r in cover)
    ok = ok and len(cover) == 3 and elapsed < 60.0
    report(7, ok, f"1000 additive samples covered at 2*eps for 3 radii "
                  f"(worst fill {worst:.2f}), product counts exact, {elapsed:.1f}s")


def test_criterion_8_series_divergence():
    t0 = time.time()
    rows, ok = verify_series(seed=0)
    elapsed = time.time() - t0
    ok = ok and elapsed < 1.0
    report(8, ok, f"additive norm exactly 1, partial sums dominate bound up to M=1e4, "
                  f"S_10000 = {rows[2]['lhs']:.1f} vs {rows[2]['rhs']:.1f} (2%), {elapsed:.2f}s")


ACCEPTANCE_EXPERIMENT = ExperimentSpec(
    layout=BlockLayout([1, 1, 1, 1]),
    targets=tuple(
        BlockTarget(kind="kernel_bump", center=c, sigma=1.0)
        for c in (0.2, 0.4, 0.6, 0.8)
    ),
    noise_halfwidth=0.5,
    tau=0.5,
    kernel_a=Additive(BlockLayout([1, 1, 1, 1]), [Gaussian(1.0)] * 4),
    kernel_b=Product(BlockLayout([1, 1, 1, 1]), [Gaussian(1.0)] * 4),
    n_grid=(100, 200, 400, 800, 1600),
    beta=4.0 / 3.0,
    seeds=(0, 1, 2, 3, 4),
    risk_eval=8192,
)


@pytest.fixture(scope="module")
def experiment_run(tmp_path_factory):
    def run(tag):
        out_dir = tmp_path_factory.mktemp(f"exp_{tag}")
        config = out_dir / "config.json"
        config.write_text(json.dumps(ACCEPTANCE_EXPERIMENT.to_dict()))
        t0 = time.time()
        code = cli_main(["experiment", "--config", str(config), "--out-dir", str(out_dir)])
        return code, out_dir, time.time() - t0

    cache = {}

    def get(tag):
        if tag not in cache:
            cache[tag] = run(tag)
        return cache[tag]

    return get


def test_criterion_9_empirical_rates(experiment_run):
    code, out_dir, elapsed = experiment_run("a")
    with open(out_dir / "summary.csv", newline="") as fh:
        slopes = {row["kernel"]: float(row["slope"]) for row in csv.DictReader(fh)}
    with open(out_dir / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    excesses = np.array([float(r["excess"]) for r in rows])
    floor = -3.0 / math.sqrt(ACCEPTANCE_EXPERIMENT.risk_eval)
    ok = (
        code == 0
        and slopes["additive"] <= -0.3
        and slopes["additive"] <= slopes["product"] + 0.05
        and np.all(excesses[np.isfinite(excesses)] >= floor)
        and elapsed < 1800.0
    )
    report(9, ok, f"slopes: additive {slopes['additive']:.3f} (<= -0.3), "
                  f"product {slopes['product']:.3f}; excess >= {floor:.3f}; {elapsed:.0f}s")


def test_criterion_10_experiment_determinism(experiment_run):
    _, dir_a, _ = experiment_run("a")
    code, dir_b, elapsed = experiment_run("b")
    same = (dir_a / "results.csv").read_bytes() == (dir_b / "results.csv").read_bytes()
    same_raw = (dir_a / "results_raw.csv").read_bytes() == (dir_b / "results_raw.csv").read_bytes()
    ok = code == 0 and same and same_raw
    report(10, ok, f"repeat run produced byte-identical results CSVs, {elapsed:.0f}s")
