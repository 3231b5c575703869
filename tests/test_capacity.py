"""Empirical nets: distances, greedy covers, and the additive combination."""

import math

import numpy as np
import pytest

from kqreg.capacity import (
    EmpiricalNet,
    additive_net,
    cover_ball,
    nearest_center,
    sample_additive_ball,
    sample_ball_values,
)
from kqreg.kernels import BlockLayout, Gaussian
from kqreg.verification import verify_capacity


def _distance(f_vals, g_vals) -> float:
    """The empirical distance nearest_center reports from f to a net whose
    one center is g."""
    net = EmpiricalNet(centers=np.asarray([g_vals], dtype=float), radius=1.0)
    _, dist = nearest_center(net, f_vals)
    return float(dist[0])


class TestEmpiricalDistance:
    def test_zero_for_identical(self):
        v = np.array([0.3, -0.2, 1.0])
        assert _distance(v, v) == 0.0

    def test_single_point(self):
        assert _distance([1.0], [0.0]) == 1.0

    def test_unit_differences(self):
        assert _distance([1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 2.0, 3.0]) == pytest.approx(1.0)


class TestCoverBall:
    POINTS = np.random.default_rng(99).random((10, 1))

    def test_huge_radius_single_center(self):
        # ball functions are bounded by 1, so eps >= 2 covers with one center
        net = cover_ball(Gaussian(1.0), self.POINTS, R=1.0, eps=2.5, seed=0)
        assert net.size == 1

    def test_zero_radius_single_zero_center(self):
        net = cover_ball(Gaussian(1.0), self.POINTS, R=0.0, eps=0.1, seed=0)
        assert net.size == 1
        np.testing.assert_allclose(net.centers, 0.0)

    def test_size_nondecreasing_as_eps_shrinks(self):
        sizes = [
            cover_ball(Gaussian(1.0), self.POINTS, R=1.0, eps=eps, seed=3).size
            for eps in (0.5, 0.25, 0.125, 0.0625)
        ]
        assert sizes == sorted(sizes)
        assert sizes[-1] > sizes[0]

    def test_scaling_identity_exact(self):
        # (R, eps) and (1, eps/R) produce the same greedy selection
        a = cover_ball(Gaussian(1.0), self.POINTS, R=2.0, eps=0.2, seed=5)
        b = cover_ball(Gaussian(1.0), self.POINTS, R=1.0, eps=0.1, seed=5)
        assert a.size == b.size
        np.testing.assert_allclose(a.centers, 2.0 * b.centers, atol=1e-12)

    def test_generating_sample_is_covered_at_build_radius(self):
        rng = np.random.default_rng(7)
        vals = sample_ball_values(Gaussian(1.0), self.POINTS, 1.0, 4000, rng)
        net = cover_ball(Gaussian(1.0), self.POINTS, R=1.0, eps=0.25, seed=7, n_samples=4000)
        _, dists = nearest_center(net, vals)
        assert dists.max() <= 0.7 * 0.25 + 1e-12  # built at margin * eps

    def test_fresh_samples_covered_at_claimed_radius(self):
        rng = np.random.default_rng(1234)
        net = cover_ball(Gaussian(1.0), self.POINTS, R=1.0, eps=0.125, seed=11)
        fresh = sample_ball_values(Gaussian(1.0), self.POINTS, 1.0, 1000, rng)
        _, dists = nearest_center(net, fresh)
        assert dists.max() <= net.radius

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            cover_ball(Gaussian(1.0), self.POINTS, R=1.0, eps=0.0, seed=0)


class TestAdditiveNet:
    def _fake_net(self, centers, radius):
        return EmpiricalNet(centers=np.asarray(centers, dtype=float), radius=radius)

    def test_product_count(self):
        n1 = self._fake_net(np.arange(6).reshape(3, 2), 0.1)
        n2 = self._fake_net(np.arange(8).reshape(4, 2), 0.2)
        combo = additive_net([n1, n2])
        assert combo.size == 12
        assert combo.radius == pytest.approx(0.3)

    def test_single_block_identity(self):
        n1 = self._fake_net(np.arange(6).reshape(3, 2), 0.1)
        combo = additive_net([n1])
        np.testing.assert_array_equal(combo.centers, n1.centers)

    def test_centers_are_all_pairwise_sums(self):
        n1 = self._fake_net([[0.0, 0.0], [1.0, 1.0]], 0.1)
        n2 = self._fake_net([[0.0, 10.0]], 0.1)
        combo = additive_net([n1, n2])
        np.testing.assert_allclose(combo.centers, [[0.0, 10.0], [1.0, 11.0]])

    def test_incompatible_point_counts_rejected(self):
        n1 = self._fake_net(np.zeros((2, 3)), 0.1)
        n2 = self._fake_net(np.zeros((2, 4)), 0.1)
        with pytest.raises(ValueError):
            additive_net([n1, n2])


class TestAdditiveCoverage:
    LAYOUT = BlockLayout([1, 1])
    SPECS = [Gaussian(1.0), Gaussian(1.0)]
    POINTS = np.random.default_rng(17).random((10, 2))

    def test_triangle_chain_on_sampled_decompositions(self):
        # distance of f = f1 + f2 to a summed pair of centers never exceeds
        # the sum of the blockwise distances
        blocks = sample_additive_ball(self.SPECS, self.LAYOUT, self.POINTS, n=200, seed=1)
        nets = [
            cover_ball(spec, self.POINTS[:, [j]], R=1.0, eps=0.25, seed=j)
            for j, spec in enumerate(self.SPECS)
        ]
        total = sum(blocks)
        m = self.POINTS.shape[0]
        block_d = []
        combined = np.zeros_like(total)
        for net, vals in zip(nets, blocks):
            idx, dist = nearest_center(net, vals)
            block_d.append(dist)
            combined += net.centers[idx]
        direct = np.linalg.norm(total - combined, axis=1) / math.sqrt(m)
        assert np.all(direct <= block_d[0] + block_d[1] + 1e-12)

    def test_product_net_covers_additive_ball_at_doubled_radius(self):
        blocks = sample_additive_ball(self.SPECS, self.LAYOUT, self.POINTS, n=500, seed=2)
        nets = [
            cover_ball(spec, self.POINTS[:, [j]], R=1.0, eps=0.25, seed=10 + j)
            for j, spec in enumerate(self.SPECS)
        ]
        combo = additive_net(nets)
        _, dists = nearest_center(combo, sum(blocks))
        assert dists.max() <= 2 * 0.25


class TestNearestCenter:
    def test_matches_brute_force_across_center_chunks(self):
        # 2000 x 1000 values make the search take two centers per chunk
        rng = np.random.default_rng(31)
        centers = rng.normal(size=(7, 1000))
        centers[5] = centers[3]  # a tie across chunks keeps the first index
        values = centers[rng.integers(0, 7, size=2000)] + 0.1 * rng.normal(size=(2000, 1000))
        net = EmpiricalNet(centers=centers, radius=1.0)
        idx, dist = nearest_center(net, values)
        brute = np.stack([np.linalg.norm(values - c, axis=1) for c in centers], axis=1)
        np.testing.assert_array_equal(idx, np.argmin(brute, axis=1))
        assert not np.any(idx == 5)
        np.testing.assert_array_equal(dist, brute.min(axis=1) / math.sqrt(1000))


class TestCapacityReport:
    def test_report_rows(self):
        rows, passed = verify_capacity(seed=0, eps_grid=(0.5, 0.25), n_fresh=200)
        assert passed
        assert [row["block_id"] for row in rows] == ["coverage", "additive"] * 2
        for row in rows:
            if row["block_id"] == "coverage":
                assert row["log_count"] <= row["bound"] == 2.0 * row["eps"]
            else:  # product-count identity is exact
                assert abs(row["log_count"] - row["bound"]) <= 1e-12

    def test_log_counts_decrease_with_eps(self):
        rows, _ = verify_capacity(seed=1, eps_grid=(0.5, 0.25, 0.125), n_fresh=200)
        adds = [r["log_count"] for r in rows if r["block_id"] == "additive"]
        assert adds == sorted(adds)
