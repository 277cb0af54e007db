"""Tests for Gaussian-process regression."""

import numpy as np
import pytest

from repro.bayesopt.gp import GaussianProcess
from repro.bayesopt.kernels import RBF


class TestFit:
    def test_requires_fit_before_posterior(self):
        gp = GaussianProcess()
        with pytest.raises(RuntimeError, match="fit"):
            gp.posterior(np.zeros((1, 2)))

    def test_validation(self):
        gp = GaussianProcess()
        with pytest.raises(ValueError, match="targets"):
            gp.fit(np.zeros((3, 2)), np.zeros(4))
        with pytest.raises(ValueError, match="zero observations"):
            gp.fit(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(ValueError, match="noise"):
            GaussianProcess(noise=-1.0)


class TestPosterior:
    def test_interpolates_training_points(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, size=(8, 1))
        y = np.sin(4 * x[:, 0])
        gp = GaussianProcess(RBF(lengthscale=0.3), noise=1e-8).fit(x, y)
        mean, var = gp.posterior(x)
        np.testing.assert_allclose(mean, y, atol=1e-4)
        assert np.all(var < 1e-4)

    def test_uncertainty_grows_away_from_data(self):
        x = np.array([[0.0], [0.1]])
        y = np.array([0.0, 0.1])
        gp = GaussianProcess(RBF(lengthscale=0.2), noise=1e-6).fit(x, y)
        _, var_near = gp.posterior(np.array([[0.05]]))
        _, var_far = gp.posterior(np.array([[2.0]]))
        assert var_far[0] > var_near[0]

    def test_posterior_reverts_to_prior_far_away(self):
        x = np.array([[0.0]])
        y = np.array([5.0])
        gp = GaussianProcess(RBF(lengthscale=0.1), noise=1e-6).fit(x, y)
        mean_far, _ = gp.posterior(np.array([[100.0]]))
        # Standardization makes the prior mean the data mean.
        assert mean_far[0] == pytest.approx(5.0, abs=1e-6)

    def test_variance_nonnegative(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, size=(20, 3))
        y = rng.normal(size=20)
        gp = GaussianProcess(noise=1e-6).fit(x, y)
        _, var = gp.posterior(rng.uniform(-1, 1, size=(50, 3)))
        assert np.all(var >= 0)

    def test_constant_targets_handled(self):
        # Zero variance targets must not divide by zero.
        x = np.array([[0.0], [1.0]])
        y = np.array([3.0, 3.0])
        gp = GaussianProcess(noise=1e-6).fit(x, y)
        mean, _ = gp.posterior(np.array([[0.5]]))
        assert mean[0] == pytest.approx(3.0, abs=1e-6)


class TestIncrementalExtension:
    def _data(self, n=14, d=4, seed=3):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 1.0, (n, d))
        y = np.sin(x.sum(axis=1)) + 0.1 * rng.normal(size=n)
        return x, y

    def test_extend_matches_full_fit(self):
        x, y = self._data()
        full = GaussianProcess(RBF(0.3), noise=1e-4).fit(x, y)
        grown = GaussianProcess(RBF(0.3), noise=1e-4).fit(x[:9], y[:9])
        grown.extend(x[9:], y)
        query = np.random.default_rng(1).uniform(0.0, 1.0, (25, x.shape[1]))
        for got, want in zip(grown.posterior(query), full.posterior(query)):
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_extend_one_point_at_a_time(self):
        x, y = self._data(n=8)
        gp = GaussianProcess(RBF(0.3), noise=1e-4).fit(x[:3], y[:3])
        for i in range(3, 8):
            gp.extend(x[i : i + 1], y[: i + 1])
        full = GaussianProcess(RBF(0.3), noise=1e-4).fit(x, y)
        query = x + 0.05
        for got, want in zip(gp.posterior(query), full.posterior(query)):
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_extend_on_unfit_gp_is_fit(self):
        x, y = self._data(n=5)
        gp = GaussianProcess(RBF(0.3), noise=1e-4).extend(x, y)
        assert gp.is_fit

    def test_extend_validates_target_count(self):
        x, y = self._data(n=6)
        gp = GaussianProcess(RBF(0.3)).fit(x[:4], y[:4])
        with pytest.raises(ValueError, match="targets"):
            gp.extend(x[4:], y[:5])

    def test_extend_with_duplicate_inputs_falls_back_gracefully(self):
        # A repeated input makes the Schur complement nearly singular; the
        # extension must still produce a usable (refit) model.
        x, y = self._data(n=6)
        gp = GaussianProcess(RBF(0.3), noise=1e-6).fit(x, y)
        gp.extend(np.vstack([x[0], x[0], x[0]]), np.concatenate([y, y[:3]]))
        mean, var = gp.posterior(x)
        assert np.all(np.isfinite(mean)) and np.all(var >= 0.0)

    def test_copy_is_independent(self):
        x, y = self._data(n=7)
        gp = GaussianProcess(RBF(0.3), noise=1e-4).fit(x[:5], y[:5])
        clone = gp.copy()
        clone.extend(x[5:], y)
        query = x[:3] + 0.02
        fresh = GaussianProcess(RBF(0.3), noise=1e-4).fit(x[:5], y[:5])
        for got, want in zip(gp.posterior(query), fresh.posterior(query)):
            np.testing.assert_allclose(got, want)
