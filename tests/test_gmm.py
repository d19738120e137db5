from __future__ import annotations

import numpy as np
import pytest

from synthmeter import gmm
from synthmeter.errors import DimensionMismatch, TooFewRows
from conftest import profile_set


def monotone_violations(trace, tol=1e-9):
    return sum(1 for a, b in zip(trace, trace[1:]) if b < a - tol)


class TestFit:
    def test_k1_closed_form(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0.5, 0.2, size=(100, 48)).clip(min=0)
        data = profile_set(x)
        model = gmm.fit(data, gmm.FitConfig(k=1, seed=0, n_init=1))
        np.testing.assert_allclose(model.means[0], x.mean(axis=0), atol=1e-9)
        expected_var = np.maximum(x.var(axis=0), 1e-6)
        np.testing.assert_allclose(model.variances[0], expected_var, atol=1e-9)
        assert model.weights[0] == pytest.approx(1.0)

    def test_blob_recovery(self, blob_fixture):
        x, _, centers = blob_fixture
        model = gmm.fit(x, gmm.FitConfig(k=2, seed=3))
        # match components to true centers by distance
        order = np.argsort(model.means[:, 0])
        np.testing.assert_allclose(model.means[order], centers, atol=0.2)
        np.testing.assert_allclose(model.weights, [0.5, 0.5], atol=0.05)

    def test_log_likelihood_monotone(self):
        rng = np.random.default_rng(10)
        for seed in range(10):
            x = rng.normal(size=(80, 3))
            model = gmm.fit(x, gmm.FitConfig(k=3, seed=seed, n_init=1, max_iter=60))
            assert monotone_violations(model.log_likelihood_trace) == 0

    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            gmm.fit(np.zeros((3, 2)), gmm.FitConfig(k=5))

    def test_variance_floor_applied(self):
        x = np.zeros((10, 2))  # zero variance everywhere
        model = gmm.fit(x, gmm.FitConfig(k=1, seed=0, n_init=1, variance_floor=1e-6))
        assert np.all(model.variances >= 1e-6)

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(60, 4))
        a = gmm.fit(x, gmm.FitConfig(k=3, seed=42))
        b = gmm.fit(x, gmm.FitConfig(k=3, seed=42))
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.weights, b.weights)


class TestPredict:
    def test_point_at_component_mean(self, blob_fixture):
        x, _, _ = blob_fixture
        model = gmm.fit(x, gmm.FitConfig(k=2, seed=3))
        for comp in range(2):
            prediction = gmm.predict(model, model.means[comp][None, :])
            assert prediction.labels[0] == comp

    def test_responsibilities_normalised(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(50, 5))
        model = gmm.fit(x, gmm.FitConfig(k=4, seed=0))
        prediction = gmm.predict(model, x)
        np.testing.assert_allclose(prediction.responsibilities.sum(axis=1), 1.0, atol=1e-9)

    def test_blob_labels_match_ground_truth(self, blob_fixture):
        x, truth, _ = blob_fixture
        model = gmm.fit(x, gmm.FitConfig(k=2, seed=3))
        labels = gmm.predict(model, x).labels
        agreement = max((labels == truth).mean(), (labels == 1 - truth).mean())
        assert agreement >= 0.99

    def test_component_permutation_permutes_labels(self, blob_fixture):
        x, _, _ = blob_fixture
        model = gmm.fit(x, gmm.FitConfig(k=2, seed=3))
        swapped = gmm.GmmModel(
            weights=model.weights[::-1].copy(),
            means=model.means[::-1].copy(),
            variances=model.variances[::-1].copy(),
        )
        original = gmm.predict(model, x).labels
        permuted = gmm.predict(swapped, x).labels
        np.testing.assert_array_equal(permuted, 1 - original)

    def test_dimension_mismatch(self):
        model = gmm.GmmModel(
            weights=np.array([1.0]), means=np.zeros((1, 4)), variances=np.ones((1, 4))
        )
        with pytest.raises(DimensionMismatch):
            gmm.predict(model, np.zeros((3, 5)))


class TestSample:
    def _daily_model(self, k=2):
        rng = np.random.default_rng(0)
        means = rng.uniform(0.2, 0.6, size=(k, 48))
        return gmm.GmmModel(
            weights=np.full(k, 1.0 / k),
            means=means,
            variances=np.full((k, 48), 1e-4),
        )

    def test_degenerate_weights(self):
        model = self._daily_model(k=2)
        model.weights = np.array([1.0, 0.0])
        sample = gmm.sample(model, 200, seed=1)
        distance_to_0 = np.abs(sample.profiles.values - model.means[0]).max()
        assert distance_to_0 < 0.1

    def test_floor_variance_near_deterministic(self):
        model = self._daily_model(k=1)
        model.variances = np.full((1, 48), 1e-6)
        sample = gmm.sample(model, 100, seed=2)
        assert np.abs(sample.profiles.values - model.means[0]).max() < 0.01

    def test_component_frequencies(self, blob_fixture):
        # daily-width model with well-separated means; attribute each draw
        # to its nearest mean and compare frequencies with the weights
        means = np.vstack([np.full(48, 0.2), np.full(48, 5.0)])
        model = gmm.GmmModel(
            weights=np.array([0.3, 0.7]),
            means=means,
            variances=np.full((2, 48), 0.01),
        )
        sample = gmm.sample(model, 10_000, seed=7)
        nearest = np.abs(sample.profiles.values.mean(axis=1)[:, None] - means.mean(axis=1)).argmin(axis=1)
        freq = np.bincount(nearest, minlength=2) / 10_000
        np.testing.assert_allclose(freq, model.weights, atol=0.02)

    def test_clamping_counted(self):
        model = gmm.GmmModel(
            weights=np.array([1.0]),
            means=np.zeros((1, 48)),  # mean 0: half of draws negative
            variances=np.ones((1, 48)),
        )
        sample = gmm.sample(model, 100, seed=3)
        assert sample.clamp_count > 0
        assert np.all(sample.profiles.values >= 0)

    def test_deterministic(self):
        model = self._daily_model()
        a = gmm.sample(model, 50, seed=11)
        b = gmm.sample(model, 50, seed=11)
        np.testing.assert_array_equal(a.profiles.values, b.profiles.values)
        assert a.clamp_count == b.clamp_count

    def test_sample_fit_round_trip(self, blob_fixture):
        x, _, centers = blob_fixture
        model = gmm.fit(x, gmm.FitConfig(k=2, seed=3))
        sample = _sample_raw(model, 10_000, seed=9)
        refit = gmm.fit(sample, gmm.FitConfig(k=2, seed=5))
        order = np.argsort(refit.means[:, 0])
        np.testing.assert_allclose(refit.means[order], centers, atol=0.3)


def _sample_raw(model: gmm.GmmModel, n: int, seed: int) -> np.ndarray:
    """Raw matrix draw mirroring gmm.sample for non-profile dimensionalities."""
    rng = np.random.default_rng(seed)
    comps = rng.choice(model.k, size=n, p=model.weights / model.weights.sum())
    noise = rng.standard_normal((n, model.n_dims))
    return model.means[comps] + np.sqrt(model.variances[comps]) * noise

