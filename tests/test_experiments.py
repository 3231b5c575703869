"""Synthetic data generation, closed-form excess risk, slopes, and series."""

import json
import math

import numpy as np
import pytest

from kqreg.experiments import (
    BlockTarget,
    ExperimentSpec,
    bump_membership_report,
    conditional_excess,
    fit_slope,
    generate,
    product_norm_partial_sums,
    rate_experiment,
    series_lower_bounds,
    target_values,
    true_excess_risk,
)
from kqreg.kernels import Additive, BlockLayout, Gaussian, Product
from kqreg.loss import pinball


def small_spec(tau=0.5, a=0.5, kernel_b=True, **kw):
    lay = BlockLayout([1, 1])
    targets = (
        BlockTarget(kind="kernel_bump", center=0.3, sigma=1.0),
        BlockTarget(kind="sine", freq=1.0, amp=0.5),
    )
    return ExperimentSpec(
        layout=lay,
        targets=targets,
        noise_halfwidth=a,
        tau=tau,
        kernel_a=Additive(lay, [Gaussian(1.0), Gaussian(1.0)]),
        kernel_b=Product(lay, [Gaussian(1.0), Gaussian(1.0)]) if kernel_b else None,
        n_grid=kw.pop("n_grid", (30, 60, 120)),
        beta=kw.pop("beta", 1.0),
        seeds=kw.pop("seeds", (0, 1)),
        risk_eval=kw.pop("risk_eval", 2000),
        **kw,
    )


def quadrature_excess(tau, a, delta, n_grid=2_000_001):
    """Independent oracle: integrate the pinball risk over the noise density.

    Y - f*(x) is uniform on [-a, a] shifted by -a(2 tau - 1); the predictor
    offset is delta.  Midpoint rule on a dense grid.
    """
    shift = a * (2.0 * tau - 1.0)
    edges = np.linspace(-a, a, n_grid)
    mids = 0.5 * (edges[1:] + edges[:-1]) - shift
    risk_delta = np.mean(pinball(tau, mids, delta))
    risk_zero = np.mean(pinball(tau, mids, 0.0))
    return risk_delta - risk_zero


class TestTargets:
    def test_kernel_bump(self):
        t = BlockTarget(kind="kernel_bump", center=0.5, sigma=2.0)
        assert t(np.array([0.5]))[0] == 1.0
        assert t(np.array([1.5]))[0] == pytest.approx(math.exp(-0.25), abs=1e-14)

    def test_sine_and_poly(self):
        s = BlockTarget(kind="sine", freq=1.0, amp=2.0)
        assert s(np.array([0.25]))[0] == pytest.approx(2.0, abs=1e-12)
        p = BlockTarget(kind="poly", coeffs=(1.0, 0.0, 3.0))
        assert p(np.array([2.0]))[0] == pytest.approx(13.0, abs=1e-12)

    def test_additive_sum(self):
        spec = small_spec()
        X = np.array([[0.3, 0.25]])
        expected = 1.0 + 0.5 * math.sin(2 * math.pi * 0.25)
        assert target_values(spec, X)[0] == pytest.approx(expected, abs=1e-12)


class TestGenerate:
    def test_noise_band_and_quantile_shift(self):
        spec = small_spec(tau=0.7, a=0.5)
        data = generate(spec, 50000, seed=0)
        resid = data.responses - target_values(spec, data.inputs)
        # noise support is [-2 a tau, 2 a (1 - tau)]
        assert resid.min() >= -2 * 0.5 * 0.7 - 1e-12
        assert resid.max() <= 2 * 0.5 * 0.3 + 1e-12

    def test_symmetric_for_median(self):
        spec = small_spec(tau=0.5, a=0.4)
        data = generate(spec, 50000, seed=1)
        resid = data.responses - target_values(spec, data.inputs)
        assert abs(resid.min() + 0.4) < 1e-3 and abs(resid.max() - 0.4) < 1e-3

    def test_empirical_quantile_converges(self):
        for tau in (0.3, 0.5, 0.8):
            spec = small_spec(tau=tau)
            data = generate(spec, 100000, seed=2)
            frac = np.mean(data.responses <= target_values(spec, data.inputs))
            assert frac == pytest.approx(tau, abs=0.01)

    def test_deterministic(self):
        spec = small_spec()
        d1, d2 = generate(spec, 100, seed=7), generate(spec, 100, seed=7)
        np.testing.assert_array_equal(d1.inputs, d2.inputs)
        np.testing.assert_array_equal(d1.responses, d2.responses)


class TestExcessRisk:
    def test_closed_form_matches_quadrature(self):
        for tau in (0.5, 0.3, 0.85):
            spec = small_spec(tau=tau, a=0.5)
            for delta in (-1.3, -0.4, -0.05, 0.0, 0.1, 0.45, 2.0):
                closed = conditional_excess(spec, delta)
                oracle = quadrature_excess(tau, 0.5, delta)
                assert closed == pytest.approx(oracle, abs=5e-7), (tau, delta)

    def test_in_band_quadratic(self):
        # inside the noise band the excess is delta^2 / (4a) for every tau
        for tau in (0.5, 0.25):
            spec = small_spec(tau=tau, a=0.5)
            assert conditional_excess(spec, 0.2) == pytest.approx(0.2**2 / 2.0, abs=1e-14)

    def test_zero_at_target_and_nonnegative(self):
        spec = small_spec()
        assert true_excess_risk(lambda X: target_values(spec, X), spec, 5000, seed=0) == 0.0
        rng = np.random.default_rng(3)
        for _ in range(10):
            shift = rng.normal()
            pred = lambda X: target_values(spec, X) + shift
            assert true_excess_risk(pred, spec, 2000, seed=1) >= 0.0

    def test_monotone_in_absolute_offset_per_side(self):
        spec = small_spec(tau=0.35)
        grid = np.linspace(0, 3, 200)
        up = conditional_excess(spec, grid)
        down = conditional_excess(spec, -grid)
        assert np.all(np.diff(up) >= -1e-15)
        assert np.all(np.diff(down) >= -1e-15)

    def test_clipping_never_hurts_pointwise(self):
        spec = small_spec()
        rng = np.random.default_rng(4)
        X = rng.random((500, 2))
        fstar = target_values(spec, X)
        bound = float(np.abs(fstar).max()) + 0.1
        preds = fstar + rng.normal(scale=2.0, size=500)
        clipped = np.clip(preds, -bound, bound)
        raw_excess = conditional_excess(spec, preds - fstar)
        clip_excess = conditional_excess(spec, clipped - fstar)
        assert np.all(clip_excess <= raw_excess + 1e-12)


class TestFitSlope:
    def test_exact_power_law(self):
        pts = [(n, n**-0.5) for n in (100, 200, 400, 800)]
        fitres = fit_slope(pts)
        assert fitres.slope == pytest.approx(-0.5, abs=1e-12)
        assert fitres.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_excess(self):
        assert fit_slope([(n, 0.3) for n in (10, 20, 40)]).slope == pytest.approx(0.0, abs=1e-12)

    def test_scaled_power_law_intercept(self):
        pts = [(n, 3.0 * n ** (-2.0 / 3.0)) for n in (50, 100, 200, 400)]
        fitres = fit_slope(pts)
        assert fitres.slope == pytest.approx(-2.0 / 3.0, abs=1e-12)
        assert fitres.intercept == pytest.approx(math.log(3.0), abs=1e-12)

    def test_drops_nonpositive_points(self):
        pts = [(100, 1.0), (200, 0.5), (400, 0.25), (800, 0.0)]
        assert fit_slope(pts).n_used == 3

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_slope([(10, 1.0), (20, 0.0), (40, -1.0)])


class TestNormSeries:
    def test_first_terms_exact(self):
        sums = product_norm_partial_sums(3)
        # terms are central binomial coefficients over 4^m
        expected = [1.0, 1.5, 1.875, 2.1875]
        np.testing.assert_allclose(sums, expected, atol=1e-15)
        assert math.comb(4, 2) / 16 == 0.375
        assert math.comb(6, 3) / 64 == 0.3125

    def test_strictly_increasing(self):
        sums = product_norm_partial_sums(500)
        assert np.all(np.diff(sums) > 0)

    def test_partial_sums_dominate_lower_bound_everywhere(self):
        M = 10000
        sums = product_norm_partial_sums(M)
        ms = np.arange(1, M + 1, dtype=float)
        lower = 1.0 + 2.0 * math.sqrt(math.pi) / math.e**2 * np.cumsum(ms**-0.5)
        assert np.all(sums[1:] >= lower)
        np.testing.assert_array_equal(series_lower_bounds(M), lower)

    def test_asymptotic_value(self):
        s = product_norm_partial_sums(10000)[-1]
        assert s == pytest.approx(2.0 * math.sqrt(10000 / math.pi), rel=0.02)
        assert s >= series_lower_bounds(10000)[-1]

    def test_crosses_100(self):
        sums = product_norm_partial_sums(10000)
        assert sums[-1] > 100

    def test_membership_report(self):
        rep = bump_membership_report(sigma=1.7, grid_m=1000)
        assert rep["additive_norm"] == 1.0
        sums = [row["partial_sum"] for row in rep["partial_sums"]]
        assert sums == sorted(sums)
        for row in rep["partial_sums"]:
            assert row["partial_sum"] >= row["lower_bound"]


class TestRateExperiment:
    def test_small_run_schema_and_determinism(self):
        spec = small_spec()
        r1 = rate_experiment(spec)
        r2 = rate_experiment(spec)
        assert r1.rows == r2.rows
        assert r1.raw_rows == r2.raw_rows
        assert not r1.notices
        assert {row["kernel"] for row in r1.rows} == {"additive", "product"}
        assert len(r1.rows) == 2 * 3 * 2  # kernels x grid x seeds
        for row in r1.rows:
            assert row["excess"] >= 0.0
            assert row["gap"] <= 1e-8 * 2  # relative tolerance, |D| < 1
        assert set(r1.summaries) == {"additive", "product"}

    def test_excess_decreases_with_n(self):
        spec = small_spec(seeds=(0, 1, 2), n_grid=(30, 120, 480))
        res = rate_experiment(spec)
        for kernel in ("additive", "product"):
            per_n = {}
            for row in res.rows:
                if row["kernel"] == kernel:
                    per_n.setdefault(row["n"], []).append(row["excess"])
            means = [np.mean(per_n[n]) for n in sorted(per_n)]
            assert means[-1] < means[0]

    def test_workers_do_not_change_results(self):
        spec = small_spec(seeds=(0,), n_grid=(30, 60, 120), kernel_b=False)
        serial = rate_experiment(spec, workers=1)
        parallel = rate_experiment(spec, workers=2)
        assert serial.rows == parallel.rows

    def test_spec_json_round_trip(self):
        spec = small_spec()
        blob = json.dumps(spec.to_dict())
        back = ExperimentSpec.from_dict(json.loads(blob))
        assert back == spec

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            small_spec(n_grid=(100, 50))
        with pytest.raises(ValueError):
            small_spec(tau=1.2)
        lay = BlockLayout([1, 1])
        with pytest.raises(ValueError):
            ExperimentSpec(
                layout=lay, targets=(BlockTarget(kind="kernel_bump"),),
                noise_halfwidth=0.5, tau=0.5,
                kernel_a=Additive(lay, [Gaussian(1.0), Gaussian(1.0)]),
                kernel_b=None, n_grid=(10, 20, 40), beta=1.0, seeds=(0,),
            )
