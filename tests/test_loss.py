"""Pinball loss identities, convexity, clipping, and weighted risks."""

import numpy as np
import pytest

from kqreg.loss import clip, empirical_risk, pinball, shifted_pinball
from kqreg.solver import DataSet


class TestPinball:
    def test_upper_branch(self):
        assert pinball(0.5, 1.0, 3.0) == 1.0

    def test_zero_at_match(self):
        for tau in (0.1, 0.5, 0.93):
            assert pinball(tau, 2.0, 2.0) == 0.0

    def test_lower_branch(self):
        assert pinball(0.9, 0.0, -1.0) == pytest.approx(0.9, abs=1e-15)

    def test_rejects_tau_outside_unit_interval(self):
        for tau in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                pinball(tau, 0.0, 0.0)

    def test_max_representation(self):
        # the loss equals max over u in {-tau, 1-tau} of u * (t - y); this
        # duality kernel is what the solver exploits
        rng = np.random.default_rng(0)
        for _ in range(500):
            tau = rng.uniform(0.01, 0.99)
            y, t = rng.normal(size=2) * 3
            expected = max(-tau * (t - y), (1 - tau) * (t - y))
            assert pinball(tau, y, t) == pytest.approx(expected, abs=1e-12)

    def test_convexity_in_prediction(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            tau = rng.uniform(0.01, 0.99)
            y, t1, t2 = rng.normal(size=3) * 2
            a = rng.random()
            mix = pinball(tau, y, a * t1 + (1 - a) * t2)
            assert mix <= a * pinball(tau, y, t1) + (1 - a) * pinball(tau, y, t2) + 1e-12

    def test_lipschitz_constant(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            tau = rng.uniform(0.01, 0.99)
            y, t, tp = rng.normal(size=3) * 4
            lhs = abs(pinball(tau, y, t) - pinball(tau, y, tp))
            assert lhs <= max(tau, 1 - tau) * abs(t - tp) + 1e-12

    def test_sample_quantile_property(self):
        # any minimizer of the summed loss over constants is a sample
        # tau-quantile; the piecewise-linear objective attains its minimum at
        # a data point, so enumerating data points is an exact oracle
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = int(rng.integers(3, 25))
            y = rng.normal(size=m)
            tau = rng.uniform(0.05, 0.95)
            objective = lambda t: pinball(tau, y, np.full(m, t)).sum()
            tstar = min(y, key=objective)
            assert np.sum(y <= tstar) >= tau * m - 1e-9
            assert np.sum(y >= tstar) >= (1 - tau) * m - 1e-9

    def test_vectorized_matches_scalar(self):
        y = np.array([0.0, 1.0, -2.0])
        t = np.array([1.0, 1.0, 0.5])
        out = pinball(0.3, y, t)
        assert out.shape == (3,)
        for i in range(3):
            assert out[i] == pinball(0.3, float(y[i]), float(t[i]))


class TestShifted:
    def test_zero_prediction_gives_zero(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            assert shifted_pinball(rng.uniform(0.01, 0.99), rng.normal(), 0.0) == 0.0

    def test_shift_example(self):
        assert shifted_pinball(0.5, 1.0, 3.0) == pytest.approx(0.5, abs=1e-15)

    def test_same_lipschitz_constant(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            tau = rng.uniform(0.01, 0.99)
            y, t, tp = rng.normal(size=3) * 4
            lhs = abs(shifted_pinball(tau, y, t) - shifted_pinball(tau, y, tp))
            assert lhs <= max(tau, 1 - tau) * abs(t - tp) + 1e-12

    def test_can_be_negative(self):
        # predicting closer to y than 0 does earns a negative shifted loss
        assert shifted_pinball(0.5, 5.0, 4.0) < 0


class TestClip:
    def test_identity_inside_band(self):
        assert clip(1.0, 0.5) == 0.5

    def test_upper_saturation(self):
        assert clip(1.0, 7.0) == 1.0

    def test_lower_saturation(self):
        assert clip(1.0, -7.0) == -1.0

    def test_vectorized(self):
        np.testing.assert_allclose(clip(2.0, np.array([-5.0, 0.3, 9.0])), [-2.0, 0.3, 2.0])

    def test_bound_must_be_positive(self):
        with pytest.raises(ValueError):
            clip(0.0, 1.0)


class TestEmpiricalRisk:
    def test_perfect_predictions(self):
        data = DataSet(inputs=np.zeros((3, 1)), responses=np.array([1.0, -2.0, 0.5]))
        assert empirical_risk(0.3, data.responses, data) == 0.0

    def test_two_point_average(self):
        data = DataSet(inputs=np.zeros((2, 1)), responses=np.array([0.0, 2.0]))
        risk = empirical_risk(0.5, np.array([1.0, 1.0]), data)
        assert risk == pytest.approx(0.5, abs=1e-15)

    def test_shifted_risk_of_zero_predictor_vanishes(self):
        rng = np.random.default_rng(6)
        data = DataSet(inputs=rng.random((10, 2)), responses=rng.normal(size=10))
        shifted = shifted_pinball(0.4, data.responses, np.zeros(10))
        assert np.sum(data.weight_vector() * shifted) == 0.0

    def test_shift_identity(self):
        rng = np.random.default_rng(7)
        data = DataSet(inputs=rng.random((12, 2)), responses=rng.normal(size=12))
        preds = rng.normal(size=12)
        shifted = float(np.sum(data.weight_vector() * shifted_pinball(0.25, data.responses, preds)))
        plain = empirical_risk(0.25, preds, data)
        at_zero = empirical_risk(0.25, np.zeros(12), data)
        assert shifted == pytest.approx(plain - at_zero, abs=1e-12)

    def test_weights_are_honored(self):
        w = np.array([0.75, 0.25])
        data = DataSet(inputs=np.zeros((2, 1)), responses=np.array([0.0, 2.0]), weights=w)
        risk = empirical_risk(0.5, np.array([1.0, 1.0]), data)
        # losses are 0.5 and 0.5 regardless, so weighting keeps the value
        assert risk == pytest.approx(0.5, abs=1e-15)
        data2 = DataSet(inputs=np.zeros((2, 1)), responses=np.array([0.0, 4.0]), weights=w)
        risk2 = empirical_risk(0.5, np.array([1.0, 1.0]), data2)
        assert risk2 == pytest.approx(0.75 * 0.5 + 0.25 * 1.5, abs=1e-15)

    def test_length_mismatch_rejected(self):
        data = DataSet(inputs=np.zeros((2, 1)), responses=np.array([0.0, 2.0]))
        with pytest.raises(ValueError):
            empirical_risk(0.5, np.zeros(3), data)
