"""The benchmark's output checks pass right outputs and refuse wrong ones.

    python3 -m pytest benchmarks/test_checks.py

Each check is fed an output made by kqreg (it must pass) and the same output
deliberately altered (it must be refused).
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
from kqreg import experiments, solver  # noqa: E402
from kqreg.kernels import spec_from_dict  # noqa: E402

KERNEL = {"type": "additive", "dims": [1, 1, 1],
          "components": [{"type": "gaussian", "sigma": 0.5},
                         {"type": "gaussian", "sigma": 1.0},
                         {"type": "sobolev_min"}]}
GAP_TOL = 1e-8


def _weighted_data(n=40, seed=3):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 3))
    y = np.sin(2 * np.pi * X[:, 0]) + X[:, 2] + 0.3 * rng.standard_normal(n)
    w = rng.uniform(0.2, 1.8, size=n)
    w /= w.sum()
    w[-1] = 1.0 - w[:-1].sum()
    return X, y, w


@pytest.fixture(scope="module")
def fitted():
    X, y, w = _weighted_data()
    data = solver.DataSet(inputs=X, responses=y, weights=w)
    model = solver.fit(spec_from_dict(KERNEL), data, lam=1e-2, tau=0.3,
                       opts=solver.FitOptions(gap_tol=GAP_TOL))
    return model, model.to_dict(), (X, y, w)


def test_predictions_pass_and_refuse_a_shift(fitted):
    model, obj, _ = fitted
    Xq = np.random.default_rng(5).random((500, 3))
    preds = model.predict(Xq)
    assert checks.check_predictions([obj], Xq, [preds]) == []
    shifted = preds.copy()
    shifted[123] += 1e-3
    assert checks.check_predictions([obj], Xq, [shifted])
    assert checks.check_predictions([obj], Xq, [preds[:-1]])


def test_certificate_passes_and_refuses_a_dual_out_of_its_box(fitted):
    _, obj, (X, y, w) = fitted
    assert checks.check_certificate(obj, X, y, w, GAP_TOL) == []
    bad = dict(obj, alpha=list(obj["alpha"]))
    i = int(np.argmax(np.abs(obj["alpha"])))
    bad["alpha"][i] *= 1.5  # u_i = -2 lambda alpha_i / w_i leaves [-tau, 1 - tau]
    assert any("outside the box" in p for p in checks.check_certificate(bad, X, y, w, GAP_TOL))


def test_certificate_refuses_a_model_short_of_optimal(fitted):
    _, obj, (X, y, w) = fitted
    bad = dict(obj, alpha=[0.5 * a for a in obj["alpha"]])  # stays in the box
    assert any("certificate" in p for p in checks.check_certificate(bad, X, y, w, GAP_TOL))


def test_recertification_passes_uniform_weights_and_refuses_a_moved_dual():
    X, y, _ = _weighted_data(seed=4)
    data = solver.DataSet(inputs=X, responses=y)
    model = solver.fit(spec_from_dict(KERNEL), data, lam=1e-2, tau=0.9,
                       opts=solver.FitOptions(gap_tol=GAP_TOL))
    loaded = solver.Model.from_dict(model.to_dict())
    w = data.weight_vector()
    gap = solver.duality_gap(loaded, data)
    obj = model.to_dict()
    assert checks.check_recertification(obj, X, y, w, loaded.dual, gap, GAP_TOL) == []
    moved = loaded.dual.copy()
    moved[0] = 0.2  # above 1 - tau = 0.1
    assert checks.check_recertification(obj, X, y, w, moved, gap, GAP_TOL)
    assert checks.check_recertification(obj, X, y, w, loaded.dual, gap - 1e-6, GAP_TOL)


def _rate_tables(slope=-0.8):
    ns = (100, 200, 400, 800, 1600)
    rows, raw, summary = [], [], []
    for kernel, c in (("additive", 0.4), ("product", 0.9)):
        for n in ns:
            e = c * n ** slope
            rows.append({"kernel": kernel, "n": str(n), "seed": "0", "excess": repr(e)})
            raw.append({"kernel": kernel, "n": str(n), "seed": "0", "excess": repr(1.1 * e)})
        s = float(np.polyfit(np.log(ns), np.log([c * n ** slope for n in ns]), 1)[0])
        summary.append({"kernel": kernel, "slope": repr(s)})
    return rows, raw, summary, ns


def test_rate_results_pass_and_refuse_an_altered_slope():
    rows, raw, summary, ns = _rate_tables()
    kernels = ("additive", "product")
    assert checks.check_rate_results(rows, raw, summary, kernels, ns) == []
    summary[1] = dict(summary[1], slope=repr(float(summary[1]["slope"]) + 1e-6))
    assert any("OLS" in p for p in checks.check_rate_results(rows, raw, summary, kernels, ns))


def test_rate_results_refuse_bad_rows_and_a_flat_slope():
    kernels = ("additive", "product")
    rows, raw, summary, ns = _rate_tables()
    rows[2] = dict(rows[2], excess=repr(2.0 * float(raw[2]["excess"])))
    assert any("above raw" in p for p in checks.check_rate_results(rows, raw, summary, kernels, ns))
    rows, raw, summary, ns = _rate_tables()
    rows[3] = dict(rows[3], excess="nan")
    assert checks.check_rate_results(rows, raw, summary, kernels, ns)
    rows, raw, summary, ns = _rate_tables(slope=-0.2)
    assert any("above -0.3" in p for p in checks.check_rate_results(rows, raw, summary, kernels, ns))


def test_series_sum_matches_the_program_and_refuses_one_term_off():
    M = 10000
    sums = experiments.product_norm_partial_sums(M)
    assert math.isclose(checks.series_partial_sum(M), float(sums[-1]), rel_tol=1e-12)
    row = {"case": f"S_{M}_asymptote", "lhs": repr(float(sums[-1])), "rhs": "1", "pass": "True"}
    assert checks.check_series([row], M) == []
    for off in (sums[-2], sums[-1] + (sums[-1] - sums[-2])):
        assert checks.check_series([dict(row, lhs=repr(float(off)))], M)


def test_suite_report_refuses_a_failed_or_mislabelled_row():
    good = {"case": "gap-n20", "lhs": "1e-10", "rhs": "1e-08", "pass": "True"}
    assert checks.check_suite_report("solver", [good], 1) == []
    assert checks.check_suite_report("solver", [{**good, "pass": "False"}], 1)
    assert checks.check_suite_report("solver", [dict(good, lhs="1e-07")], 1)
    assert checks.check_suite_report("solver", [good, good], 1)
