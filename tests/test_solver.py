"""Solver correctness against independent oracles, plus its invariants."""

import json
import math

import numpy as np
import pytest
from scipy.optimize import minimize

from kqreg.kernels import Additive, BlockLayout, Gaussian, gram
from kqreg.loss import pinball
from kqreg.solver import (
    ConvergenceError,
    DataSet,
    FitOptions,
    Model,
    duality_gap,
    fit,
    objective,
)
from kqreg.spectral import DiscreteMeasure
from kqreg.verification import dual_grid_oracle

SPEC = Gaussian(sigma=1.0)
TIGHT = FitOptions(gap_tol=1e-10)


def lbfgsb_dual_max(spec, data, lam, tau):
    """Box-constrained dual maximum via an optimizer independent of the
    Newton path."""
    K = gram(spec, data.inputs).entries
    y = data.responses
    w = data.weight_vector()
    n = data.n

    def neg_dual(u):
        c = w * u
        Kc = K @ c
        return float(c @ y + (c @ Kc) / (4.0 * lam)), y * w + (w * Kc) / (2.0 * lam)

    res = minimize(
        neg_dual,
        np.zeros(n),
        jac=True,
        bounds=[(-tau, 1.0 - tau)] * n,
        method="L-BFGS-B",
        options={"maxiter": 2000, "ftol": 1e-15, "gtol": 1e-12},
    )
    return -float(res.fun)


class TestSmallInstances:
    def test_single_zero_response_gives_zero_function(self):
        data = DataSet(inputs=np.array([[0.3]]), responses=np.array([0.0]))
        model = fit(SPEC, data, lam=0.5, tau=0.7, opts=TIGHT)
        assert model.predict(np.array([0.9])) == 0.0
        shifted, unshifted = objective(model, data)
        assert shifted == 0.0 and unshifted == 0.0

    def test_identical_inputs_recover_sample_median(self):
        x0 = np.array([0.4, 0.6])
        data = DataSet(inputs=np.tile(x0, (3, 1)), responses=np.array([-1.0, 0.0, 1.0]))
        model = fit(SPEC, data, lam=0.1, tau=0.5, opts=TIGHT)
        # oracle: all candidate functions are multiples of the section at x0,
        # so minimize over the predicted value c on a fine grid
        k0 = SPEC.eval(x0, x0)
        cs = np.linspace(-1.5, 1.5, 60001)
        objs = [np.mean(pinball(0.5, data.responses, np.full(3, c))) + 0.1 * c**2 / k0
                for c in cs]
        c_star = cs[int(np.argmin(objs))]
        assert c_star == pytest.approx(0.0, abs=1e-9)
        assert model.predict(x0) == pytest.approx(c_star, abs=1e-4)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_objective_beats_dual_grid_oracle(self, n):
        for rep in range(4):
            rng = np.random.default_rng(10 * n + rep)
            data = DataSet(inputs=rng.random((n, 2)), responses=rng.normal(size=n))
            tau = float(rng.uniform(0.15, 0.85))
            lam = float(rng.uniform(0.05, 1.0))
            model = fit(SPEC, data, lam=lam, tau=tau, opts=TIGHT)
            _, obj = objective(model, data)
            oracle = dual_grid_oracle(SPEC, data, lam, tau)
            assert obj <= oracle + 1e-3

    def test_matches_independent_box_qp_solver(self):
        rng = np.random.default_rng(42)
        for rep in range(5):
            n = int(rng.integers(10, 40))
            data = DataSet(inputs=rng.random((n, 2)), responses=rng.normal(size=n))
            tau = float(rng.uniform(0.2, 0.8))
            lam = float(rng.uniform(0.05, 0.5))
            model = fit(SPEC, data, lam=lam, tau=tau, opts=TIGHT)
            _, obj = objective(model, data)
            dual_ref = lbfgsb_dual_max(SPEC, data, lam, tau)
            # strong duality: primal minimum equals dual maximum
            assert obj >= dual_ref - 1e-7
            assert obj <= dual_ref + 1e-6


class TestInvariants:
    def test_box_feasibility(self):
        rng = np.random.default_rng(0)
        for rep in range(10):
            n = int(rng.integers(2, 50))
            data = DataSet(inputs=rng.random((n, 2)), responses=rng.normal(size=n))
            tau = float(rng.uniform(0.1, 0.9))
            model = fit(SPEC, data, lam=0.1, tau=tau)
            assert np.all(model.dual >= -tau - 1e-12)
            assert np.all(model.dual <= 1.0 - tau + 1e-12)

    def test_norm_bound_from_zero_comparison(self):
        # the fitted norm never exceeds sqrt(max|y| / lambda)
        rng = np.random.default_rng(1)
        for rep in range(20):
            n = int(rng.integers(5, 40))
            data = DataSet(inputs=rng.random((n, 2)), responses=rng.uniform(-2, 2, size=n))
            lam = float(rng.uniform(0.01, 1.0))
            tau = float(rng.uniform(0.1, 0.9))
            model = fit(SPEC, data, lam=lam, tau=tau, opts=TIGHT)
            bound = math.sqrt(np.max(np.abs(data.responses)) / lam)
            assert math.sqrt(model.norm_sq()) <= bound + 1e-6

    def test_norm_nonincreasing_in_lambda(self):
        rng = np.random.default_rng(2)
        data = DataSet(inputs=rng.random((30, 2)), responses=rng.normal(size=30))
        lams = [0.01, 0.05, 0.2, 1.0, 5.0]
        norms = [
            math.sqrt(fit(SPEC, data, lam=lam, tau=0.3, opts=TIGHT).norm_sq())
            for lam in lams
        ]
        for a, b in zip(norms, norms[1:]):
            assert b <= a + 1e-6

    def test_refit_is_identical(self):
        rng = np.random.default_rng(3)
        data = DataSet(inputs=rng.random((25, 3)), responses=rng.normal(size=25))
        m1 = fit(SPEC, data, lam=0.05, tau=0.4)
        m2 = fit(SPEC, data, lam=0.05, tau=0.4)
        assert np.array_equal(m1.dual, m2.dual)
        assert np.array_equal(m1.alpha, m2.alpha)

    def test_fitted_objective_beats_zero_model(self):
        rng = np.random.default_rng(4)
        data = DataSet(inputs=rng.random((15, 2)), responses=rng.normal(size=15))
        model = fit(SPEC, data, lam=0.2, tau=0.6, opts=TIGHT)
        shifted, _ = objective(model, data)
        assert shifted <= 0.0 + 1e-12  # zero model scores exactly 0 in shifted form

    def test_objective_shift_identity(self):
        rng = np.random.default_rng(5)
        data = DataSet(inputs=rng.random((12, 2)), responses=rng.normal(size=12))
        model = fit(SPEC, data, lam=0.3, tau=0.25, opts=TIGHT)
        shifted, unshifted = objective(model, data)
        at_zero = float(np.mean(pinball(0.25, data.responses, 0.0)))
        assert unshifted - shifted == pytest.approx(at_zero, abs=1e-12)

    def test_residual_signs_match_dual_bounds(self):
        # complementarity: strictly positive residuals sit at the lower dual
        # bound, strictly negative ones at the upper
        for tau, n in ((0.3, 60), (0.5, 150), (0.7, 60)):
            rng = np.random.default_rng(n + int(10 * tau))
            X = rng.random((n, 2))
            y = np.sin(2 * np.pi * X[:, 0]) + X[:, 1] + rng.uniform(-0.5, 0.5, n)
            data = DataSet(inputs=X, responses=y)
            model = fit(SPEC, data, lam=1.0 / n, tau=tau, opts=FitOptions(gap_tol=1e-12))
            res = y - model.predict(X)
            pos, neg = res > 1e-7, res < -1e-7
            zeros = int(np.sum(~pos & ~neg))
            assert np.all(np.abs(model.dual[pos] + tau) < 1e-5)
            assert np.all(np.abs(model.dual[neg] - (1 - tau)) < 1e-5)
            # sample-quantile count bounds (hold at the near-interpolating
            # lambda ~ 1/n used here)
            assert int(np.sum(pos)) <= (1 - tau) * n + zeros
            assert int(np.sum(neg)) <= tau * n + zeros

    def test_weighted_fit_matches_replicated_points(self):
        # weight 2/3 on a point is the same problem as duplicating it
        rng = np.random.default_rng(7)
        X = rng.random((2, 1))
        y = np.array([1.0, -0.5])
        weighted = DataSet(inputs=X, responses=y, weights=np.array([2.0 / 3.0, 1.0 / 3.0]))
        replicated = DataSet(
            inputs=np.vstack([X[0], X[0], X[1]]), responses=np.array([1.0, 1.0, -0.5])
        )
        mw = fit(SPEC, weighted, lam=0.2, tau=0.4, opts=TIGHT)
        mr = fit(SPEC, replicated, lam=0.2, tau=0.4, opts=TIGHT)
        _, ow = objective(mw, weighted)
        _, orr = objective(mr, replicated)
        assert ow == pytest.approx(orr, abs=1e-8)

    def test_convergence_error_carries_gap(self):
        rng = np.random.default_rng(8)
        data = DataSet(inputs=rng.random((50, 2)), responses=rng.normal(size=50))
        with pytest.raises(ConvergenceError) as err:
            fit(SPEC, data, lam=1e-7, tau=0.5, opts=FitOptions(max_epochs=2))
        assert err.value.gap > 0


class TestPredict:
    def test_zero_alpha_predicts_zero(self):
        data = DataSet(inputs=np.array([[0.3]]), responses=np.array([0.0]))
        model = fit(SPEC, data, lam=0.5, tau=0.7, opts=TIGHT)
        grid = np.linspace(0, 1, 7)[:, None]
        np.testing.assert_allclose(model.predict(grid), 0.0)

    def test_single_support_point_is_kernel_section(self):
        model = Model(
            spec=SPEC, support=np.array([[0.2, 0.8]]), dual=np.array([-0.5]),
            alpha=np.array([1.0]), lam=1.0, tau=0.5, gap=0.0,
        )
        x = np.array([0.7, 0.1])
        expected = np.exp(-np.sum((x - np.array([0.2, 0.8])) ** 2))
        assert model.predict(x) == pytest.approx(expected, abs=1e-14)

    def test_predictions_at_support_match_training_values(self):
        rng = np.random.default_rng(9)
        data = DataSet(inputs=rng.random((20, 2)), responses=rng.normal(size=20))
        model = fit(SPEC, data, lam=0.1, tau=0.5, opts=TIGHT)
        K = gram(SPEC, data.inputs).entries
        np.testing.assert_allclose(model.predict(data.inputs), K @ model.alpha, atol=1e-10)

    def test_dimension_mismatch_rejected(self):
        data = DataSet(inputs=np.array([[0.3, 0.1]]), responses=np.array([1.0]))
        model = fit(SPEC, data, lam=0.5, tau=0.7, opts=TIGHT)
        with pytest.raises(ValueError):
            model.predict(np.array([[0.1, 0.2, 0.3]]))


class TestDualityGap:
    def test_optimal_tiny_instance(self):
        data = DataSet(inputs=np.array([[0.3]]), responses=np.array([0.0]))
        model = fit(SPEC, data, lam=0.5, tau=0.7, opts=TIGHT)
        assert duality_gap(model, data) <= 1e-12

    def test_zero_duals_gap_is_primal_of_zero_function(self):
        rng = np.random.default_rng(10)
        data = DataSet(inputs=rng.random((8, 1)), responses=rng.normal(size=8))
        model = Model(spec=SPEC, support=data.inputs, dual=np.zeros(8),
                      alpha=np.zeros(8), lam=0.3, tau=0.4, gap=np.nan)
        zero_primal = float(np.mean(pinball(0.4, data.responses, 0.0)))
        assert duality_gap(model, data) == pytest.approx(zero_primal, abs=1e-12)

    def test_gap_nonnegative_for_any_feasible_duals(self):
        rng = np.random.default_rng(11)
        data = DataSet(inputs=rng.random((10, 1)), responses=rng.normal(size=10))
        tau, lam = 0.3, 0.2
        for _ in range(20):
            u = rng.uniform(-tau, 1 - tau, size=10)
            model = Model(spec=SPEC, support=data.inputs, dual=u,
                          alpha=-u / (10 * 2 * lam), lam=lam, tau=tau, gap=np.nan)
            assert duality_gap(model, data) >= -1e-10


class TestValidationAndIO:
    def test_invalid_parameters(self):
        data = DataSet(inputs=np.array([[0.0]]), responses=np.array([1.0]))
        with pytest.raises(ValueError):
            fit(SPEC, data, lam=0.0, tau=0.5)
        with pytest.raises(ValueError):
            fit(SPEC, data, lam=1.0, tau=1.0)
        with pytest.raises(ValueError):
            FitOptions(gap_tol=0.0)
        with pytest.raises(ValueError):
            FitOptions(max_epochs=0)

    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            DataSet(inputs=np.zeros((2, 1)), responses=np.zeros(3))
        with pytest.raises(ValueError):
            DataSet(inputs=np.array([[np.nan]]), responses=np.array([0.0]))
        with pytest.raises(ValueError):
            DataSet(inputs=np.zeros((2, 1)), responses=np.zeros(2),
                    weights=np.array([0.9, 0.2]))
        with pytest.raises(ValueError):
            DataSet(inputs=np.zeros((2, 1)), responses=np.zeros(2),
                    weights=np.array([1.1, -0.1]))

    def test_weight_sum_tolerance_shared(self):
        # DataSet and DiscreteMeasure accept and refuse the same weight sums
        near, far = np.array([0.5, 0.5 + 5e-10]), np.array([0.5, 0.5 + 2e-9])
        DataSet(inputs=np.zeros((2, 1)), responses=np.zeros(2), weights=near)
        DiscreteMeasure(points=np.zeros((2, 1)), weights=near)
        with pytest.raises(ValueError):
            DataSet(inputs=np.zeros((2, 1)), responses=np.zeros(2), weights=far)
        with pytest.raises(ValueError):
            DiscreteMeasure(points=np.zeros((2, 1)), weights=far)

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        w = rng.uniform(0.1, 1.0, size=6)
        w /= w.sum()
        w[-1] = 1.0 - w[:-1].sum()
        data = DataSet(inputs=rng.random((6, 3)), responses=rng.normal(size=6), weights=w)
        path = tmp_path / "data.csv"
        data.to_csv(path)
        assert path.read_text().splitlines()[0] == "x1,x2,x3,y,w"
        back = DataSet.from_csv(path)
        np.testing.assert_array_equal(back.inputs, data.inputs)
        np.testing.assert_array_equal(back.responses, data.responses)
        np.testing.assert_array_equal(back.weights, data.weights)

    def test_csv_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,y\n1,2,3\n")
        with pytest.raises(ValueError):
            DataSet.from_csv(path)
        path.write_text("\n1,2,3\n")  # blank header line
        with pytest.raises(ValueError):
            DataSet.from_csv(path)

    def test_model_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        lay = BlockLayout([1, 1])
        spec = Additive(lay, [Gaussian(1.0), Gaussian(2.0)])
        data = DataSet(inputs=rng.random((10, 2)), responses=rng.normal(size=10))
        model = fit(spec, data, lam=0.1, tau=0.3, opts=TIGHT)
        path = tmp_path / "model.json"
        model.save(path)
        back = Model.load(path)
        assert back.spec == model.spec
        assert back.lam == model.lam and back.tau == model.tau
        grid = rng.random((20, 2))
        np.testing.assert_allclose(back.predict(grid), model.predict(grid), atol=1e-15)
        assert "\n" not in path.read_text()  # compact: one line

    def test_indented_model_file_loads(self, tmp_path):
        rng = np.random.default_rng(15)
        data = DataSet(inputs=rng.random((8, 2)), responses=rng.normal(size=8))
        model = fit(SPEC, data, lam=0.1, tau=0.6)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model.to_dict(), indent=2))
        back = Model.load(path)
        assert np.array_equal(back.alpha, model.alpha)
        assert np.array_equal(back.dual, model.dual)

    def test_weighted_model_recertifies_after_load(self, tmp_path):
        rng = np.random.default_rng(14)
        w = rng.uniform(0.2, 1.8, size=6)
        w /= w.sum()
        w[-1] = 1.0 - w[:-1].sum()
        data = DataSet(inputs=rng.random((6, 2)), responses=rng.normal(size=6), weights=w)
        tau, lam = 0.3, 0.1
        model = fit(SPEC, data, lam=lam, tau=tau)
        path = tmp_path / "model.json"
        model.save(path)
        back = Model.load(path)
        assert np.all(back.dual >= -tau) and np.all(back.dual <= 1.0 - tau)
        K = gram(SPEC, data.inputs).entries
        dual_obj = -float(np.sum(w * back.dual * data.responses)) - lam * float(
            back.alpha @ K @ back.alpha)
        assert -1e-12 <= duality_gap(back, data) <= FitOptions().gap_tol * (1.0 + abs(dual_obj))

    def test_model_file_without_dual_recovers_it_from_alpha(self):
        # files written before the dual was stored: uniform-weight recovery
        blob = {"kernel": {"type": "gaussian", "sigma": 1.0},
                "support": {"points": [0.1, 0.5], "n": 2, "d": 1},
                "alpha": [0.25, -1.0], "lambda": 0.2, "tau": 0.5, "gap": 0.0}
        back = Model.from_dict(blob)
        np.testing.assert_allclose(back.dual, [-0.2, 0.8])
