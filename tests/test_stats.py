import math
import warnings

import numpy as np
import pytest
import scipy.stats

from reshare.stats import (
    dbscan,
    regularized_incomplete_beta,
    rmse,
    sigmoid,
    silhouette,
    student_t_sf,
    welch_t_test,
)

from conftest import brute_force_dbscan, canonical_labels, masked_sigmoid


class TestSigmoid:
    def test_saturates_without_overflow_or_warning(self):
        z = np.array([-800.0, -745.0, 0.0, 745.0, 800.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = sigmoid(z)
        assert np.all(np.isfinite(out))
        assert out[0] == 0.0 and out[2] == 0.5 and out[4] == 1.0

    def test_matches_logistic_function(self, rng):
        z = rng.normal(0.0, 5.0, 1000)
        assert np.allclose(sigmoid(z), 1.0 / (1.0 + np.exp(-z)), rtol=1e-14, atol=0.0)
        assert np.allclose(sigmoid(-z), 1.0 - sigmoid(z), rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("dtype, extremes", [
        (np.float64, [np.inf, 0.0, 5e-324, 709.0, 710.0, 1e308]),
        (np.float32, [np.inf, 0.0, 1e-45, 88.0, 104.0, 3e38]),
    ])
    def test_bits_of_the_masked_form(self, rng, dtype, extremes):
        special = np.array(extremes + [-x for x in extremes] + [np.nan], dtype=dtype)
        z = np.concatenate((special, rng.normal(0.0, 1.0, 10**5).astype(dtype)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for batch in (special, z, z[: 6 * 1000].reshape(6, 1000)):
                out = sigmoid(batch)
                expected = masked_sigmoid(batch)
                assert out.dtype == dtype and out.shape == batch.shape
                assert out.tobytes() == expected.tobytes()


class TestRmse:
    def test_zero_when_equal(self):
        assert rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_uniform_offset(self):
        assert rmse([2.0, 3.0], [1.0, 2.0]) == pytest.approx(1.0, abs=1e-12)

    def test_hand_value(self):
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(math.sqrt(12.5), abs=1e-12)
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(3.53553, abs=1e-5)

    def test_sign_symmetric_and_scaling(self, rng):
        resid = rng.normal(size=50)
        base = np.zeros(50)
        assert rmse(base + resid, base) == pytest.approx(rmse(base - resid, base), abs=1e-12)
        assert rmse(base + 3 * resid, base) == pytest.approx(3 * rmse(base + resid, base), rel=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError):
            rmse([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            rmse([], [])


class TestIncompleteBeta:
    def test_against_scipy_grid(self):
        for a in (0.5, 1.0, 2.5, 7.0, 30.0):
            for b in (0.5, 1.5, 4.0, 12.0):
                for x in (0.0, 0.01, 0.2, 0.5, 0.8, 0.99, 1.0):
                    ours = regularized_incomplete_beta(a, b, x)
                    ref = float(scipy.stats.beta.cdf(x, a, b))
                    assert ours == pytest.approx(ref, abs=1e-12)

    def test_t_sf_against_scipy(self):
        for t in (-4.0, -1.0, 0.0, 0.5, 2.3, 8.0):
            for df in (1.0, 2.5, 8.0, 40.0):
                assert student_t_sf(t, df) == pytest.approx(
                    float(scipy.stats.t.sf(t, df)), abs=1e-12
                )


class TestWelch:
    def test_identical_samples(self):
        res = welch_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert res.t == 0.0
        assert res.p == pytest.approx(1.0, abs=1e-12)

    def test_clear_separation(self):
        res = welch_t_test([1.0, 2.0, 3.0], [11.0, 12.0, 13.0])
        assert res.p < 0.01

    def test_hand_case(self):
        res = welch_t_test([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
        assert res.t == pytest.approx(-1.0, abs=1e-12)
        assert res.df == pytest.approx(8.0, abs=1e-12)
        assert res.p == pytest.approx(0.3466, abs=1e-4)

    def test_matches_scipy_on_random_cases(self, rng):
        for _ in range(20):
            a = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2.0), int(rng.integers(3, 30)))
            b = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2.0), int(rng.integers(3, 30)))
            ours = welch_t_test(a, b)
            ref = scipy.stats.ttest_ind(a, b, equal_var=False)
            assert ours.t == pytest.approx(float(ref.statistic), abs=1e-9)
            assert ours.p == pytest.approx(float(ref.pvalue), abs=1e-6)

    def test_symmetry(self, rng):
        a = rng.normal(0, 1, 12)
        b = rng.normal(0.4, 2, 9)
        r1 = welch_t_test(a, b)
        r2 = welch_t_test(b, a)
        assert r1.p == pytest.approx(r2.p, abs=1e-12)
        assert r1.t == pytest.approx(-r2.t, abs=1e-12)

    def test_degenerate_zero_variance(self):
        res = welch_t_test([2.0, 2.0, 2.0], [2.0, 2.0])
        assert res.degenerate and res.p == 1.0 and res.t == 0.0
        res2 = welch_t_test([2.0, 2.0], [3.0, 3.0])
        assert res2.degenerate and res2.p == 0.0

    def test_small_sample_rejected(self):
        with pytest.raises(ValueError):
            welch_t_test([1.0], [1.0, 2.0])


class TestDbscan:
    def test_two_blobs(self, rng):
        a = rng.normal(0, 0.1, (20, 2))
        b = rng.normal(10, 0.1, (20, 2))
        labels = dbscan(np.vstack([a, b]), eps=0.5, min_pts=5)
        assert set(labels.tolist()) == {0, 1}
        assert len(set(labels[:20].tolist())) == 1
        assert len(set(labels[20:].tolist())) == 1

    def test_all_noise(self):
        points = np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0]])
        labels = dbscan(points, eps=1.0, min_pts=2)
        assert np.all(labels == -1)

    def test_matches_brute_force_on_random_instances(self, rng):
        for case in range(20):
            centers = rng.uniform(-5, 5, (3, 2))
            points = np.vstack(
                [rng.normal(c, rng.uniform(0.2, 1.0), (20, 2)) for c in centers]
            )
            eps = float(rng.uniform(0.4, 1.2))
            labels = dbscan(points, eps=eps, min_pts=4)
            ref = brute_force_dbscan(points, eps=eps, min_pts=4)
            assert canonical_labels(labels) == canonical_labels(ref)

    def test_order_invariance(self, rng):
        points = np.vstack(
            [rng.normal(0, 0.5, (25, 2)), rng.normal(6, 0.5, (25, 2))]
        )
        labels = dbscan(points, eps=1.0, min_pts=4)
        perm = rng.permutation(len(points))
        labels_perm = dbscan(points[perm], eps=1.0, min_pts=4)
        restored = np.empty_like(labels_perm)
        restored[perm] = labels_perm
        assert canonical_labels(labels) == canonical_labels(restored)

    def test_validation(self):
        with pytest.raises(ValueError):
            dbscan(np.zeros((0, 2)), eps=1.0, min_pts=2)
        with pytest.raises(ValueError):
            dbscan(np.zeros((3, 2)), eps=0.0, min_pts=2)

    @pytest.mark.parametrize("eps", [float("nan"), -1.0])
    def test_eps_that_is_not_positive_raises(self, eps):
        with pytest.raises(ValueError, match="^eps must be positive$"):
            dbscan(np.zeros((3, 2)), eps=eps, min_pts=2)


class TestSilhouette:
    def test_far_separated_tight_pairs(self):
        points = np.array([[0.0, 0.0], [0.0, 0.1], [50.0, 0.0], [50.0, 0.1]])
        labels = np.array([0, 0, 1, 1])
        assert silhouette(points, labels) > 0.9

    def test_hand_value_four_points(self):
        points = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
        labels = np.array([0, 0, 1, 1])
        b = (10.0 + math.sqrt(101.0)) / 2.0
        expected = (b - 1.0) / b
        score = silhouette(points, labels)
        assert score == pytest.approx(expected, abs=1e-12)
        assert score == pytest.approx(0.900249, abs=1e-6)

    def test_single_cluster_rejected(self):
        with pytest.raises(ValueError):
            silhouette(np.zeros((4, 2)), np.zeros(4, dtype=int))

    def test_range_and_separation_monotonicity(self, rng):
        a = rng.normal(0, 0.4, (15, 2))
        b = rng.normal(3, 0.4, (15, 2))
        labels = np.array([0] * 15 + [1] * 15)
        near = silhouette(np.vstack([a, b]), labels)
        far = silhouette(np.vstack([a, b + 3.0]), labels)
        assert -1.0 <= near <= 1.0 and -1.0 <= far <= 1.0
        assert far > near

    def test_noise_excluded_and_singletons_zero(self):
        points = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 0.0], [99.0, 99.0]])
        labels = np.array([0, 0, 1, -1])
        score = silhouette(points, labels)
        # cluster 1 is a singleton contributing 0; noise point ignored
        assert 0.0 < score < 1.0
