from __future__ import annotations

import datetime as dt

import numpy as np

from synthmeter import gmm, kernels
from synthmeter.generators import MemorizerConfig, gmm_generate, memorizer_generate

from conftest import profile_set


class TestMemorizer:
    def test_zero_jitter_outputs_training_rows(self, small_population):
        out = memorizer_generate(small_population, 200, MemorizerConfig(jitter_sigma=0.0, seed=1))
        train_rows = {tuple(row) for row in small_population.values}
        assert all(tuple(row) in train_rows for row in out.values)

    def test_sequential_identity(self, small_population):
        n = len(small_population)
        out = memorizer_generate(
            small_population, n, MemorizerConfig(jitter_sigma=0.0, seed=1, sequential=True)
        )
        np.testing.assert_array_equal(out.values, small_population.values)

    def test_jitter_keeps_synthetic_near_train(self, small_population):
        from synthmeter.profiles import SplitSpec, split_households

        train, holdout = split_households(small_population, SplitSpec(holdout_fraction=0.5, seed=0))
        out = memorizer_generate(train, 150, MemorizerConfig(jitter_sigma=0.01, seed=2))
        d_train = kernels.nearest_neighbor_distances(out, train).nn_distance
        d_holdout = kernels.nearest_neighbor_distances(out, holdout).nn_distance
        # jitter-scale distance to train: at most ~ sigma * sqrt(48) per row
        assert d_train.mean() < 0.01 * np.sqrt(48) * 1.2
        assert d_train.mean() < 0.2 * d_holdout.mean()

    def test_output_shares_no_memory_with_train(self, small_population):
        for jitter in (0.0, 0.05):
            out = memorizer_generate(small_population, 50, MemorizerConfig(jitter_sigma=jitter, seed=3))
            assert not np.shares_memory(out.values, small_population.values)

    def test_ids_dates_and_labels(self, small_population):
        out = memorizer_generate(small_population, 3, MemorizerConfig(seed=1))
        assert out.household_ids == ("memorizer_000000", "memorizer_000001", "memorizer_000002")
        assert out.start_dates == (dt.date(2000, 1, 1),) * 3
        assert out.labels == ("",) * 3 and out.horizon is small_population.horizon

    def test_deterministic(self, small_population):
        a = memorizer_generate(small_population, 50, MemorizerConfig(0.05, seed=9))
        b = memorizer_generate(small_population, 50, MemorizerConfig(0.05, seed=9))
        np.testing.assert_array_equal(a.values, b.values)


class TestGmmGenerator:
    def test_blob_fixture_recovery(self):
        rng = np.random.default_rng(6)
        a = rng.normal(0.2, 0.02, size=(200, 48))
        b = rng.normal(1.0, 0.02, size=(200, 48))
        train = profile_set(np.vstack([a, b]).clip(min=0.0))
        out = gmm_generate(train, 400, gmm.FitConfig(k=2, seed=0))
        means = np.sort([out.values[out.values.mean(axis=1) < 0.6].mean(),
                         out.values[out.values.mean(axis=1) >= 0.6].mean()])
        np.testing.assert_allclose(means, [0.2, 1.0], atol=0.3)

    def test_k1_centres_on_global_mean(self, small_population):
        out = gmm_generate(small_population, 500, gmm.FitConfig(k=1, seed=0))
        np.testing.assert_allclose(
            out.values.mean(axis=0), small_population.values.mean(axis=0), atol=0.1
        )

    def test_per_slot_mean_close_to_train(self):
        from synthmeter import demo

        train = demo.make_population(100, 10, seed=3)
        out = gmm_generate(train, 1000, gmm.FitConfig(k=10, seed=0))
        slot_train = train.values.mean(axis=0)
        slot_syn = out.values.mean(axis=0)
        assert np.all(np.abs(slot_syn - slot_train) <= 0.10 * slot_train.max() + 0.02)

    def test_deterministic(self, small_population):
        a = gmm_generate(small_population, 100, gmm.FitConfig(k=3, seed=4))
        b = gmm_generate(small_population, 100, gmm.FitConfig(k=3, seed=4))
        np.testing.assert_array_equal(a.values, b.values)
