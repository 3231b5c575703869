"""Kernel evaluation, Gram construction, composition, and expansion norms."""

import json
import math

import numpy as np
import pytest

from kqreg.kernels import (
    Additive,
    BlockLayout,
    Gaussian,
    Product,
    SobolevMin,
    cross_gram,
    gram,
    rkhs_norm_sq,
    spec_from_dict,
    spec_to_dict,
)


def _variants():
    lay = BlockLayout([1, 1])
    return {
        "gaussian": (Gaussian(sigma=1.0), 1),
        "gaussian_wide": (Gaussian(sigma=2.0), 3),
        "sobolev_min": (SobolevMin(), 1),
        "additive": (Additive(lay, [Gaussian(1.0), SobolevMin()]), 2),
        "product": (Product(lay, [Gaussian(1.0), Gaussian(0.5)]), 2),
    }


class TestEval:
    def test_gaussian_diagonal_is_one(self):
        assert Gaussian(sigma=1.0).eval(0.3, 0.3) == 1.0

    def test_additive_diagonal_sums_blocks(self):
        lay = BlockLayout([1, 1])
        spec = Additive(lay, [Gaussian(1.0), Gaussian(1.0)])
        x = np.array([0.4, 0.9])
        assert spec.eval(x, x) == 2.0

    def test_product_of_gaussians_multiplies(self):
        lay = BlockLayout([1, 1])
        spec = Product(lay, [Gaussian(1.0), Gaussian(1.0)])
        assert spec.eval([0.0, 0.0], [1.0, 1.0]) == pytest.approx(np.exp(-2.0), rel=1e-14)

    def test_sobolev_min_formula(self):
        assert SobolevMin().eval(0.2, 0.7) == pytest.approx(1.2, abs=1e-15)

    def test_symmetry_on_random_pairs(self):
        rng = np.random.default_rng(0)
        for name, (spec, d) in _variants().items():
            for _ in range(20):
                x, xp = rng.random(d), rng.random(d)
                assert spec.eval(x, xp) == pytest.approx(spec.eval(xp, x), abs=1e-14), name

    def test_kappa_bounds_kernel_values(self):
        rng = np.random.default_rng(1)
        for name, (spec, d) in _variants().items():
            kap2 = spec.kappa() ** 2
            for _ in range(50):
                x, xp = rng.random(d), rng.random(d)
                assert abs(spec.eval(x, xp)) <= kap2 + 1e-12, name

    def test_additive_gaussian_bounded_by_block_count(self):
        s = 3
        lay = BlockLayout([1] * s)
        spec = Additive(lay, [Gaussian(1.0)] * s)
        rng = np.random.default_rng(2)
        vals = [abs(spec.eval(rng.random(s), rng.random(s))) for _ in range(100)]
        assert max(vals) <= s
        assert spec.kappa() == s

    def test_dimension_mismatch_rejected(self):
        lay = BlockLayout([1, 1])
        spec = Additive(lay, [Gaussian(1.0), Gaussian(1.0)])
        with pytest.raises(ValueError):
            spec.eval([0.1], [0.2])
        with pytest.raises(ValueError):
            spec.eval([0.1, 0.2, 0.3], [0.1, 0.2, 0.3])


class TestGram:
    def test_single_point_gaussian(self):
        G = gram(Gaussian(1.0), [[0.4]])
        assert G.entries.shape == (1, 1)
        assert G.entries[0, 0] == 1.0

    def test_additive_gram_is_sum_of_block_grams(self):
        rng = np.random.default_rng(3)
        X = rng.random((5, 2))
        lay = BlockLayout([1, 1])
        parts = [Gaussian(1.0), SobolevMin()]
        spec = Additive(lay, parts)
        total = gram(spec, X).entries
        blocks = sum(gram(p, X[:, [j]]).entries for j, p in enumerate(parts))
        np.testing.assert_allclose(total, blocks, atol=1e-12)

    def test_duplicated_points_give_equal_rows(self):
        X = np.array([[0.3, 0.6], [0.3, 0.6], [0.9, 0.1]])
        lay = BlockLayout([1, 1])
        G = gram(Additive(lay, [Gaussian(1.0), Gaussian(1.0)]), X).entries
        np.testing.assert_allclose(G[0], G[1], atol=1e-15)
        eigs = np.linalg.eigvalsh(G)
        assert eigs.min() >= -1e-8 * np.trace(G) / 3

    def test_psd_on_random_point_sets(self):
        rng = np.random.default_rng(4)
        for name, (spec, d) in _variants().items():
            for _ in range(50):
                n = int(rng.integers(1, 21))
                G = gram(spec, rng.random((n, d))).entries
                floor = -1e-8 * np.trace(G) / n
                assert np.linalg.eigvalsh(G).min() >= floor, name

    def test_non_finite_input_rejected(self):
        spec = Gaussian(1.0)
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="non-finite coordinates"):
                gram(spec, [[bad], [0.0]])
            with pytest.raises(ValueError, match="non-finite coordinates"):
                cross_gram(spec, [[bad]], [[0.5]])
            with pytest.raises(ValueError, match="non-finite coordinates"):
                cross_gram(spec, [[0.5]], [[bad]])
            with pytest.raises(ValueError, match="non-finite coordinates"):
                spec.eval(bad, 0.5)

    def test_overflow_from_finite_input_rejected(self):
        spec = Additive(BlockLayout([1, 1]), [SobolevMin(), SobolevMin()])
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite entries"):
            cross_gram(spec, [[-1e308, -1e308]], [[0.5, 0.5]])

    def test_zero_width_points_rejected(self):
        with pytest.raises(ValueError, match="at least one coordinate"):
            gram(Gaussian(1.0), np.zeros((3, 0)))
        with pytest.raises(ValueError, match="at least one coordinate"):
            cross_gram(Gaussian(1.0), np.zeros((3, 0)), np.zeros((2, 0)))
        with pytest.raises(ValueError, match="at least one coordinate"):
            Gaussian(1.0).eval([], [])

    def test_gaussian_matches_per_coordinate_formula(self):
        # 1-D inputs take (a - b)^2 directly; wider ones the expanded form,
        # whose cancellation costs a few ulps of |a|^2 + |b|^2 in the exponent
        eps = np.finfo(float).eps
        rng = np.random.default_rng(6)
        for d in range(1, 5):
            for sigma in (0.3, 1.0, 2.5):
                A, B = rng.normal(size=(6, d)), rng.normal(size=(5, d))
                K = cross_gram(Gaussian(sigma), A, B)
                for i in range(6):
                    for j in range(5):
                        sq = sum((A[i, k] - B[j, k]) ** 2 for k in range(d))
                        want = math.exp(-sq / sigma**2)
                        scale = 0.0 if d == 1 else (A[i] @ A[i] + B[j] @ B[j]) / sigma**2
                        tol = 1e-15 + 8 * d * eps * scale * want
                        assert abs(K[i, j] - want) <= tol, (d, sigma)

    def test_grams_exactly_symmetric_with_unit_diagonal_on_1d_gaussians(self):
        rng = np.random.default_rng(7)
        one_d = [Gaussian(1.0), Gaussian(0.5), Gaussian(2.0)]
        lay = BlockLayout([1, 1, 1])
        X = rng.normal(size=(40, 3))
        for spec, diag in ((Additive(lay, one_d), 3.0), (Product(lay, one_d), 1.0)):
            K = gram(spec, X).entries
            assert np.array_equal(K, K.T), type(spec).__name__
            assert np.all(np.diag(K) == diag), type(spec).__name__
        # a Gaussian on a wider block is symmetrized; its diagonal is 1 up to round-off
        lay = BlockLayout([1, 2, 1])
        for third in (Gaussian(2.0), SobolevMin()):
            for cls in (Additive, Product):
                K = gram(cls(lay, [Gaussian(1.0), Gaussian(0.5), third]), rng.random((40, 4))).entries
                assert np.array_equal(K, K.T), cls.__name__
        K = gram(Gaussian(0.7), rng.normal(size=(60, 3))).entries
        assert np.array_equal(K, K.T)
        np.testing.assert_allclose(np.diag(K), 1.0, rtol=0, atol=1e-14)

    def test_cross_gram_matches_eval(self):
        rng = np.random.default_rng(5)
        spec = Product(BlockLayout([1, 1]), [Gaussian(1.0), Gaussian(2.0)])
        A, B = rng.random((4, 2)), rng.random((3, 2))
        K = cross_gram(spec, A, B)
        for i in range(4):
            for j in range(3):
                assert K[i, j] == pytest.approx(spec.eval(A[i], B[j]), abs=1e-14)


class TestExpansionNorm:
    def test_zero_coefficients(self):
        G = gram(Gaussian(1.0), [[0.1], [0.5]])
        assert rkhs_norm_sq(np.zeros(2), G) == 0.0

    def test_single_kernel_section_norm_is_diagonal_value(self):
        G = gram(Gaussian(1.0), [[0.3]])
        assert rkhs_norm_sq(np.array([1.0]), G) == 1.0
        Gs = gram(SobolevMin(), [[0.25]])
        assert rkhs_norm_sq(np.array([1.0]), Gs) == pytest.approx(1.25, abs=1e-15)

    def test_additive_expansion_norm_splits_exactly_over_blocks(self):
        # the canonical block-diagonal representation attains the upper bound
        # sum of block norms; as an inequality it holds with slack 1e-9
        rng = np.random.default_rng(6)
        lay = BlockLayout([1, 1])
        parts = [Gaussian(1.0), Gaussian(0.7)]
        spec = Additive(lay, parts)
        X = rng.random((6, 2))
        c = rng.normal(size=6)
        combined = rkhs_norm_sq(c, gram(spec, X))
        per_block = sum(rkhs_norm_sq(c, gram(p, X[:, [j]])) for j, p in enumerate(parts))
        assert combined <= per_block + 1e-9
        assert combined == pytest.approx(per_block, rel=1e-12)

    def test_length_mismatch_rejected(self):
        G = gram(Gaussian(1.0), [[0.1], [0.5]])
        with pytest.raises(ValueError):
            rkhs_norm_sq(np.zeros(3), G)


class TestSpecValidation:
    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            Gaussian(sigma=0.0)
        with pytest.raises(ValueError):
            Gaussian(sigma=-1.0)

    def test_component_count_must_match_layout(self):
        with pytest.raises(ValueError):
            Additive(BlockLayout([1, 1]), [Gaussian(1.0)])

    def test_layout_widths_positive(self):
        with pytest.raises(ValueError):
            BlockLayout([1, 0])
        with pytest.raises(ValueError):
            BlockLayout([])

    def test_sobolev_rejects_wide_block(self):
        with pytest.raises(ValueError):
            Additive(BlockLayout([2, 1]), [SobolevMin(), Gaussian(1.0)])


class TestSerialization:
    def test_round_trip_all_variants(self):
        lay = BlockLayout([1, 1])
        specs = [
            Gaussian(sigma=1.5),
            SobolevMin(),
            Additive(lay, [Gaussian(1.0), SobolevMin()]),
            Product(lay, [Gaussian(1.0), Gaussian(2.0)]),
        ]
        for spec in specs:
            blob = json.dumps(spec_to_dict(spec))
            assert spec_from_dict(json.loads(blob)) == spec

    def test_field_names_are_stable(self):
        d = spec_to_dict(Additive(BlockLayout([1, 1]), [Gaussian(1.0), Gaussian(1.0)]))
        assert d["type"] == "additive"
        assert d["dims"] == [1, 1]
        assert d["components"][0] == {"type": "gaussian", "sigma": 1.0}
        assert spec_to_dict(SobolevMin()) == {"type": "sobolev_min"}

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            spec_from_dict({"type": "wendland"})
        with pytest.raises(ValueError):
            spec_from_dict({"sigma": 1.0})
