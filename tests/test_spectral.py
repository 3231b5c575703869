"""Integral-operator calculus: decomposition, powers, filters, approximation."""

import numpy as np
import pytest

from kqreg.kernels import Gaussian, SobolevMin, gram
from kqreg.spectral import (
    DiscreteMeasure,
    approx_error,
    decompose,
    filter_error_bound,
    intermediate,
    operator_matrix,
    power_apply,
)
from kqreg.verification import verify_approx


def random_measure(rng, m, d=1):
    w = rng.uniform(0.2, 1.0, size=m)
    w /= w.sum()
    w[-1] = 1.0 - w[:-1].sum()
    return DiscreteMeasure(points=rng.random((m, d)), weights=w)


def random_decomp(rng, m, spec=None):
    spec = spec or Gaussian(sigma=1.0)
    mu = random_measure(rng, m)
    return decompose(operator_matrix(spec, mu), mu.weights), mu, spec


class TestOperatorMatrix:
    def test_single_point_unit_weight(self):
        mu = DiscreteMeasure(points=np.array([[0.4]]), weights=np.array([1.0]))
        M = operator_matrix(Gaussian(1.0), mu)
        np.testing.assert_allclose(M, [[1.0]])

    def test_uniform_weights_give_gram_over_m(self):
        rng = np.random.default_rng(0)
        pts = rng.random((5, 1))
        mu = DiscreteMeasure.uniform(pts)
        M = operator_matrix(Gaussian(1.0), mu)
        K = gram(Gaussian(1.0), pts)
        np.testing.assert_allclose(M, K / 5.0, atol=1e-14)

    def test_trace_identity(self):
        rng = np.random.default_rng(1)
        mu = random_measure(rng, 7)
        spec = SobolevMin()
        M = operator_matrix(spec, mu)
        expected = sum(
            w * spec.eval(x, x) for x, w in zip(mu.points, mu.weights)
        )
        assert np.trace(M) == pytest.approx(expected, abs=1e-12)

    def test_measure_validation(self):
        with pytest.raises(ValueError):
            DiscreteMeasure(points=np.array([[0.1]]), weights=np.array([0.9]))
        with pytest.raises(ValueError):
            DiscreteMeasure(points=np.array([[0.1], [0.2]]), weights=np.array([1.0, 0.0]))


class TestDecompose:
    def test_single_point(self):
        mu = DiscreteMeasure(points=np.array([[0.3]]), weights=np.array([1.0]))
        decomp = decompose(operator_matrix(Gaussian(1.0), mu), mu.weights)
        assert decomp.eigenvalues[0] == pytest.approx(1.0, abs=1e-14)
        # constant eigenfunction, unit L2 norm
        assert abs(decomp.eigenfunctions[0, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_orthonormal_in_weighted_inner_product(self):
        rng = np.random.default_rng(2)
        decomp, mu, _ = random_decomp(rng, 6)
        G = decomp.eigenfunctions.T @ (mu.weights[:, None] * decomp.eigenfunctions)
        np.testing.assert_allclose(G, np.eye(6), atol=1e-8)

    def test_reconstruction(self):
        rng = np.random.default_rng(3)
        mu = random_measure(rng, 6)
        M = operator_matrix(Gaussian(1.0), mu)
        decomp = decompose(M, mu.weights)
        sw = np.sqrt(mu.weights)
        V = decomp.eigenfunctions * sw[:, None]
        rebuilt = (V * decomp.eigenvalues[None, :]) @ V.T
        assert np.max(np.abs(rebuilt - M)) <= 1e-8

    def test_sorted_nonnegative(self):
        rng = np.random.default_rng(4)
        decomp, _, _ = random_decomp(rng, 9)
        assert np.all(np.diff(decomp.eigenvalues) <= 1e-15)
        assert np.all(decomp.eigenvalues >= 0)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            decompose(np.array([[1.0, 0.5], [0.0, 1.0]]), np.array([0.5, 0.5]))

    def test_projection_synthesis_round_trip(self):
        rng = np.random.default_rng(5)
        decomp, _, _ = random_decomp(rng, 8)
        vals = rng.normal(size=8)
        back = decomp.synthesize(decomp.project(vals))
        np.testing.assert_allclose(back, vals, atol=1e-9)

    def test_parseval(self):
        rng = np.random.default_rng(6)
        decomp, mu, _ = random_decomp(rng, 8)
        vals = rng.normal(size=8)
        f = decomp.function_from_values(vals)
        l2_direct = float(np.sum(mu.weights * vals**2))
        assert f.l2_norm_sq == pytest.approx(l2_direct, abs=1e-10)


class TestPowerApply:
    def test_power_one_is_operator_application(self):
        # oracle: (T f)(x_p) = sum_q k(x_p, x_q) w_q f(x_q), a direct matrix product
        rng = np.random.default_rng(7)
        spec = Gaussian(sigma=1.3)
        mu = random_measure(rng, 7)
        decomp = decompose(operator_matrix(spec, mu), mu.weights)
        g = rng.normal(size=7)
        K = gram(spec, mu.points)
        direct = K @ (mu.weights * g)
        out = power_apply(decomp, 1.0, g)
        np.testing.assert_allclose(out.values, direct, atol=1e-9)

    def test_semigroup_half_half_equals_one(self):
        rng = np.random.default_rng(8)
        decomp, _, _ = random_decomp(rng, 8)
        g = rng.normal(size=8)
        twice = power_apply(decomp, 0.5, power_apply(decomp, 0.5, g))
        once = power_apply(decomp, 1.0, g)
        assert np.max(np.abs(twice.values - once.values)) <= 1e-9

    def test_semigroup_random_exponents(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            decomp, _, _ = random_decomp(rng, 6)
            g = rng.normal(size=6)
            r1 = rng.uniform(0.05, 0.5)
            r2 = rng.uniform(0.05, min(0.5, 1.0 - r1))
            lhs = power_apply(decomp, r2, power_apply(decomp, r1, g))
            rhs = power_apply(decomp, r1 + r2, g)
            assert np.max(np.abs(lhs.values - rhs.values)) <= 1e-9

    def test_null_space_annihilated(self):
        # duplicated support points force a rank-deficient operator
        pts = np.array([[0.2], [0.2], [0.8]])
        mu = DiscreteMeasure(points=pts, weights=np.array([0.25, 0.25, 0.5]))
        decomp = decompose(operator_matrix(Gaussian(1.0), mu), mu.weights)
        assert decomp.null_mask().sum() == 1
        null_col = np.flatnonzero(decomp.null_mask())[0]
        g_null = decomp.eigenfunctions[:, null_col]
        out = power_apply(decomp, 0.5, g_null)
        np.testing.assert_allclose(out.values, 0.0, atol=1e-8)

    def test_half_power_rkhs_norm_equals_l2_norm_of_source(self):
        # the half power lands in the RKHS with norm equal to the L2 norm of
        # the source's component on the operator's range
        rng = np.random.default_rng(10)
        decomp, _, _ = random_decomp(rng, 8)
        gfun = decomp.function_from_values(rng.normal(size=8))
        non_null = float(np.sum(gfun.coeffs[~decomp.null_mask()] ** 2))
        out = power_apply(decomp, 0.5, gfun)
        assert out.rkhs_norm_sq == pytest.approx(non_null, abs=1e-8)

    def test_rejects_nonpositive_power(self):
        rng = np.random.default_rng(11)
        decomp, _, _ = random_decomp(rng, 3)
        with pytest.raises(ValueError):
            power_apply(decomp, 0.0, np.ones(3))


class TestIntermediate:
    def test_filter_values_in_unit_interval(self):
        rng = np.random.default_rng(12)
        decomp, _, _ = random_decomp(rng, 6)
        filt = decomp.eigenvalues / (decomp.eigenvalues + 0.3)
        assert np.all(filt >= 0) and np.all(filt < 1)

    def test_large_lambda_shrinks_to_zero(self):
        rng = np.random.default_rng(13)
        decomp, _, _ = random_decomp(rng, 6)
        f = decomp.function(decomp.project(rng.normal(size=6)))
        out = intermediate(decomp, f, lam=1e12)
        assert np.max(np.abs(out.values)) <= 1e-9

    def test_single_eigenpair_closed_form(self):
        # unit eigenvalue: the filtered coefficient is 1/(1+lam)
        mu = DiscreteMeasure(points=np.array([[0.3]]), weights=np.array([1.0]))
        decomp = decompose(operator_matrix(Gaussian(1.0), mu), mu.weights)
        psi = decomp.function(np.array([1.0]))
        out = intermediate(decomp, psi, lam=0.5)
        assert out.coeffs[0] == pytest.approx(2.0 / 3.0, abs=1e-12)


class TestFilterErrorBound:
    def test_single_point_closed_form(self):
        # lhs = lam/(1+lam) = 1/3 at lam = 0.5 against rhs = lam^{2r} = 0.5
        mu = DiscreteMeasure(points=np.array([[0.3]]), weights=np.array([1.0]))
        decomp = decompose(operator_matrix(Gaussian(1.0), mu), mu.weights)
        lhs, rhs = filter_error_bound(decomp, np.array([1.0]), r=0.5, lam=0.5)
        assert lhs == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert rhs == pytest.approx(0.5, abs=1e-15)
        assert lhs <= rhs

    def test_small_lambda_limit(self):
        rng = np.random.default_rng(14)
        decomp, _, _ = random_decomp(rng, 5)
        g = rng.normal(size=5)
        lhs, _ = filter_error_bound(decomp, g, r=0.4, lam=1e-12)
        assert lhs <= 1e-8

    def test_random_configurations_never_violate(self):
        rng = np.random.default_rng(15)
        for _ in range(40):
            m = int(rng.integers(1, 11))
            spec = Gaussian(sigma=float(rng.uniform(0.5, 2.0)))
            mu = random_measure(rng, m)
            decomp = decompose(operator_matrix(spec, mu), mu.weights)
            g = rng.normal(size=m)
            r = float(rng.uniform(0.01, 0.5))
            lam = float(rng.uniform(1e-4, 1.0))
            lhs, rhs = filter_error_bound(decomp, g, r, lam)
            assert lhs <= rhs + 1e-9

    def test_power_range_enforced(self):
        rng = np.random.default_rng(16)
        decomp, _, _ = random_decomp(rng, 3)
        with pytest.raises(ValueError):
            filter_error_bound(decomp, np.ones(3), r=0.7, lam=0.5)


class TestApproxError:
    def _blocks(self, rng, m=6):
        specs = [Gaussian(sigma=1.0), Gaussian(sigma=0.8)]
        measures = [random_measure(rng, m) for _ in range(2)]
        gstars = [rng.normal(size=m) for _ in range(2)]
        return specs, measures, gstars

    def test_zero_target_costs_nothing(self):
        rng = np.random.default_rng(17)
        specs, measures, _ = self._blocks(rng)
        zeros = [np.zeros(6), np.zeros(6)]
        measured, bound = approx_error(specs, measures, zeros, r=0.5, lam=0.3, tau=0.4)
        assert measured <= 1e-8
        assert bound == 0.0

    def test_bound_holds_on_lambda_grid(self):
        rng = np.random.default_rng(18)
        specs, measures, gstars = self._blocks(rng)
        for lam in (1.0, 0.5, 0.1):
            measured, bound = approx_error(specs, measures, gstars, r=0.5, lam=lam, tau=0.5)
            assert measured <= bound + 1e-6

    def test_measured_error_nondecreasing_in_lambda(self):
        rng = np.random.default_rng(19)
        specs, measures, gstars = self._blocks(rng)
        lams = (0.01, 0.05, 0.2, 1.0)
        vals = [
            approx_error(specs, measures, gstars, r=0.5, lam=lam, tau=0.5)[0]
            for lam in lams
        ]
        for a, b in zip(vals, vals[1:]):
            assert a <= b + 1e-8
        # vanishing regularization drives the measured error toward zero
        assert vals[0] <= 0.2 * vals[-1]

    def test_approx_suite_at_seed_2(self):
        # seed 2's problems include weighted fits at lambda = 0.01 and
        # gap_tol 1e-10 that must certify, not raise ConvergenceError
        rows, ok = verify_approx(seed=2)
        assert ok and len(rows) == 40
