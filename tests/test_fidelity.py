from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from synthmeter import demo, fidelity, gmm, kernels, report
from synthmeter.errors import DegenerateInput, InvalidConfig, TooFewRows
from synthmeter.generators import MemorizerConfig, gmm_generate, memorizer_generate
from synthmeter.profiles import ProfileSet

from conftest import profile_set


@pytest.fixture(scope="module")
def real_set():
    return demo.make_population(80, 8, seed=21)


@pytest.fixture(scope="module")
def config():
    return fidelity.FidelityConfig(clusters_k=8, seed=0)


def fit_mixture(real: ProfileSet, config: fidelity.FidelityConfig) -> gmm.GmmModel:
    """The mixture ``evaluate_fidelity`` fits on the real set."""
    return gmm.fit(real, gmm.FitConfig(k=config.clusters_k, seed=config.seed))


class TestConfig:
    def test_unknown_option_names_nearest_key(self):
        with pytest.raises(InvalidConfig, match="'mmd_bandwith'.*'mmd_bandwidth'"):
            report.check_options("fidelity", {"mmd_bandwith": 1.0})

    def test_unknown_option_without_near_key_lists_valid_keys(self):
        with pytest.raises(InvalidConfig, match="valid keys: acf_max_lag"):
            report.check_options("fidelity", {"zzz": 1})


def test_evaluate_fidelity_predicts_and_summarises_each_set_once(real_set, config, monkeypatch):
    calls = {"predict": 0, "per_slot_statistics": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(gmm, "predict")
    counted(kernels, "per_slot_statistics")
    synthetic = memorizer_generate(real_set, 300, MemorizerConfig(jitter_sigma=0.05, seed=1))
    result = fidelity.evaluate_fidelity(real_set, synthetic, config)
    assert calls == {"predict": 2, "per_slot_statistics": 2}
    stats_real, stats_syn = result.slot_statistics
    quantiles = list(config.quantiles)
    np.testing.assert_array_equal(stats_real, kernels.per_slot_statistics(real_set, quantiles))
    np.testing.assert_array_equal(stats_syn, kernels.per_slot_statistics(synthetic, quantiles))
    assert "slot_statistics" not in report.entry(result)


class TestIdentity:
    def test_all_metrics_zero_on_identical_sets(self, real_set, config):
        report = fidelity.evaluate_fidelity(real_set, real_set, config)
        assert abs(report.acf_mmd) <= 1e-10
        assert report.mean_deviation_sum == 0.0
        assert all(v == 0.0 for v in report.quantile_deviation_sums.values())
        assert abs(report.profile_mmd) <= 1e-10
        assert abs(report.peaks_mmd) <= 1e-10
        assert abs(report.cluster_kl) <= 1e-9
        assert report.aggregated.cluster_total_mae == 0.0
        assert report.aggregated.cluster_total_rmse == 0.0
        assert abs(report.aggregated.aggregated_peaks_mmd) <= 1e-10


class TestDeviationSums:
    def test_constant_offset_closed_form(self, real_set, config):
        shifted = ProfileSet(
            values=real_set.values + 0.1,
            household_ids=real_set.household_ids,
            start_dates=real_set.start_dates,
            horizon=real_set.horizon,
            labels=real_set.labels,
        )
        report = fidelity.evaluate_fidelity(real_set, shifted, config)
        assert report.mean_deviation_sum == pytest.approx(4.8, abs=1e-9)
        for value in report.quantile_deviation_sums.values():
            assert value == pytest.approx(4.8, abs=1e-9)


class TestAcfFidelity:
    def test_slot_permutation_increases_distance(self, real_set, config):
        rng = np.random.default_rng(0)
        permuted_values = np.stack([rng.permutation(row) for row in real_set.values])
        permuted = profile_set(permuted_values)
        base = fidelity.evaluate_fidelity(real_set, real_set, config).acf_mmd
        worse = fidelity.evaluate_fidelity(real_set, permuted, config).acf_mmd
        assert worse > base + 1e-6

    def test_memorizer_not_worse_than_sampler(self, real_set, config):
        memorized = memorizer_generate(real_set, 300, MemorizerConfig(jitter_sigma=0.01, seed=1))
        sampled = gmm_generate(real_set, 300, gmm.FitConfig(k=8, seed=1))
        close = fidelity.evaluate_fidelity(real_set, memorized, config).acf_mmd
        far = fidelity.evaluate_fidelity(real_set, sampled, config).acf_mmd
        assert close <= far


class TestPeaksFidelity:
    def test_circular_shift_increases_distance(self, real_set, config):
        shifted = profile_set(np.roll(real_set.values, 12, axis=1))
        base = fidelity.evaluate_fidelity(real_set, real_set, config).peaks_mmd
        worse = fidelity.evaluate_fidelity(real_set, shifted, config).peaks_mmd
        assert worse > base + 1e-6

    def test_doubled_magnitude_increases_distance(self, real_set, config):
        doubled = profile_set(real_set.values * 2.0)
        base = fidelity.evaluate_fidelity(real_set, real_set, config).peaks_mmd
        worse = fidelity.evaluate_fidelity(real_set, doubled, config).peaks_mmd
        assert worse > base + 1e-6


class TestClusterFidelity:
    def test_collapsed_synthetic_positive_kl(self, real_set, config):
        model = fit_mixture(real_set, config)
        labels = gmm.predict(model, real_set).labels
        biggest = np.bincount(labels, minlength=model.k).argmax()
        collapsed = real_set.subset(labels == biggest)
        kl_small_smoothing = fidelity.evaluate_fidelity(
            real_set, collapsed, fidelity.FidelityConfig(clusters_k=8, seed=0, kl_smoothing=1e-9)
        ).cluster_kl
        kl_large_smoothing = fidelity.evaluate_fidelity(
            real_set, collapsed, fidelity.FidelityConfig(clusters_k=8, seed=0, kl_smoothing=1e-3)
        ).cluster_kl
        assert kl_small_smoothing > 0
        assert kl_small_smoothing > kl_large_smoothing


class TestAggregated:
    def test_k1_closed_form(self, real_set):
        config = fidelity.FidelityConfig(clusters_k=1, seed=0)
        doubled = profile_set(real_set.values * 2.0)
        result = fidelity.evaluate_fidelity(real_set, doubled, config).aggregated
        total = real_set.values.sum(axis=0)
        # one cluster: synthetic total is 2x, rescale factor n/n = 1
        expected_mae = np.abs(total - 2.0 * total).mean()
        assert result.cluster_total_mae == pytest.approx(expected_mae, rel=1e-12)
        assert result.clusters_used == 1
        assert result.aggregated_acf_mmd is None  # single cluster: MMD undefined

    def test_exclusions_counted(self, real_set):
        config = fidelity.FidelityConfig(clusters_k=6, seed=0)
        model = fit_mixture(real_set, config)
        labels = gmm.predict(model, real_set).labels
        keep = labels == np.bincount(labels, minlength=model.k).argmax()
        collapsed = real_set.subset(keep)
        result = fidelity.evaluate_fidelity(real_set, collapsed, config).aggregated
        populated_real = len(np.unique(labels))
        assert result.empty_synthetic_clusters == populated_real - 1
        assert result.clusters_used == 1


class TestWeeklyHorizon:
    def test_identity_on_weekly_profiles(self):
        rng = np.random.default_rng(41)
        values = np.maximum(rng.normal(0.3, 0.15, size=(40, 336)), 0.0)
        weekly = profile_set(values)
        config = fidelity.FidelityConfig(clusters_k=4, seed=0)
        result = fidelity.evaluate_fidelity(weekly, weekly, config)
        assert abs(result.profile_mmd) <= 1e-10
        assert result.mean_deviation_sum == 0.0


class TestProperties:
    def test_mae_scales_linearly_with_joint_scaling(self, real_set):
        config = fidelity.FidelityConfig(clusters_k=4, seed=0)
        rng = np.random.default_rng(5)
        noisy = profile_set(
            np.maximum(real_set.values + rng.normal(0, 0.05, real_set.values.shape), 0.0),
        )
        base = fidelity.evaluate_fidelity(real_set, noisy, config).aggregated
        scaled_real = profile_set(real_set.values * 3.0)
        scaled_syn = profile_set(noisy.values * 3.0)
        scaled = fidelity.evaluate_fidelity(scaled_real, scaled_syn, config).aggregated
        assert scaled.cluster_total_mae == pytest.approx(3.0 * base.cluster_total_mae, rel=0.2)

    def test_mmd_invariant_under_row_permutation(self, real_set, config):
        rng = np.random.default_rng(11)
        noisy = profile_set(
            np.maximum(real_set.values + rng.normal(0, 0.1, real_set.values.shape), 0.0),
        )
        base = kernels.mmd2_rbf(real_set.values, noisy.values, 1.0).mmd2
        permuted = kernels.mmd2_rbf(
            real_set.values[rng.permutation(len(real_set))],
            noisy.values[rng.permutation(len(noisy))],
            1.0,
        ).mmd2
        assert permuted == pytest.approx(base, abs=1e-12)

    def test_monotone_jitter_degradation(self, real_set, config):
        rng = np.random.default_rng(3)
        previous_profile = previous_peaks = -1.0
        for sigma in (0.05, 0.1, 0.2):
            jittered = profile_set(
                np.maximum(real_set.values + rng.normal(0, sigma, real_set.values.shape), 0.0),
            )
            profile_mmd = kernels.mmd2_rbf(real_set.values, jittered.values).mmd2
            peaks_mmd = fidelity.evaluate_fidelity(real_set, jittered, config).peaks_mmd
            assert profile_mmd > previous_profile
            assert peaks_mmd > previous_peaks
            previous_profile, previous_peaks = profile_mmd, peaks_mmd


@pytest.fixture
def no_thread_left():
    """Asserts that the test leaves as many threads as it found."""
    before = threading.active_count()
    yield
    assert threading.active_count() == before


@pytest.fixture
def restarts(monkeypatch):
    """Records the thread each ``gmm._fit`` call ran on and whether it
    finished, and delays the fit by ``delay`` seconds."""
    record = {"threads": [], "finished": 0, "delay": 0.0}
    original = gmm._fit

    def recording(data, config):
        record["threads"].append(threading.current_thread())
        time.sleep(record["delay"])
        model = original(data, config)
        record["finished"] += 1
        return model

    monkeypatch.setattr(gmm, "_fit", recording)
    return record


@pytest.mark.usefixtures("no_thread_left")
class TestMixtureOverlap:
    """The mixture is fit on a helper thread while metrics 1-3 run."""

    def test_mixture_matches_serial_fit_bit_for_bit(self, real_set, config, restarts, monkeypatch):
        synthetic = memorizer_generate(real_set, 300, MemorizerConfig(jitter_sigma=0.05, seed=1))
        models = []
        predict = gmm.predict
        monkeypatch.setattr(gmm, "predict", lambda model, data: models.append(model) or predict(model, data))
        got = fidelity.evaluate_fidelity(real_set, synthetic, config)
        assert restarts["threads"] and restarts["threads"][0] is not threading.main_thread()
        monkeypatch.undo()
        want = fit_mixture(real_set, config)
        assert len(models) == 2 and models[0] is models[1]
        for key in ("weights", "means", "variances"):
            np.testing.assert_array_equal(getattr(models[0], key), getattr(want, key))
        assert models[0].log_likelihood_trace == want.log_likelihood_trace
        labels = gmm.predict(want, real_set).labels, gmm.predict(want, synthetic).labels
        kl = kernels.kl_divergence(
            gmm.label_distribution(labels[0], want.k),
            gmm.label_distribution(labels[1], want.k),
            smoothing=config.kl_smoothing,
        )
        assert got.cluster_kl == kl
        assert got.aggregated == fidelity._aggregate(real_set, synthetic, want.k, labels, config)

    def test_repeated_calls_give_equal_reports(self, real_set, config):
        synthetic = gmm_generate(real_set, 300, gmm.FitConfig(k=8, seed=1))
        reports = [fidelity.evaluate_fidelity(real_set, synthetic, config) for _ in range(3)]
        for other in reports[1:]:
            assert report.entry(other) == report.entry(reports[0])
            for got, want in zip(other.slot_statistics, reports[0].slot_statistics):
                np.testing.assert_array_equal(got, want)

    def test_too_many_clusters_raises_gmm_fit_error(self, real_set, restarts):
        config = fidelity.FidelityConfig(clusters_k=len(real_set) + 1, seed=0)
        with pytest.raises(TooFewRows) as want:
            fit_mixture(real_set, config)
        with pytest.raises(TooFewRows) as got:
            fidelity.evaluate_fidelity(real_set, real_set, config)
        assert str(got.value) == str(want.value) == f"{len(real_set)} rows for k={len(real_set) + 1}"
        # the fit raised on the helper (fit_mixture's call above ran on this thread)
        assert restarts["threads"][-1] is not threading.main_thread()

    def test_metric_1_error_comes_before_too_few_rows(self, real_set):
        flat = profile_set(np.ones((20, 48)))  # no profile has ACF variance
        config = fidelity.FidelityConfig(clusters_k=len(real_set) + 1, seed=0)
        with pytest.raises(DegenerateInput, match="nonzero-variance"):
            fidelity.evaluate_fidelity(real_set, flat, config)

    def test_metric_1_error_propagates_after_the_fit_is_joined(self, real_set, config, restarts):
        restarts["delay"] = 0.2  # the fit is still running when metric 1 raises
        flat = profile_set(np.ones((20, 48)))
        with pytest.raises(DegenerateInput, match="nonzero-variance"):
            fidelity.evaluate_fidelity(real_set, flat, config)
        assert restarts["finished"] == 1

    def test_fit_error_is_raised_on_the_calling_thread(self, real_set, config, monkeypatch):
        def failing(data, config):
            raise FloatingPointError("from the helper")

        monkeypatch.setattr(gmm, "_fit", failing)
        with pytest.raises(FloatingPointError, match="from the helper"):
            fidelity.evaluate_fidelity(real_set, real_set, config)
