from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from synthmeter import demo, gmm, nnet, privacy
from synthmeter.errors import DegenerateInput, InsufficientSamples, InvalidConfig
from synthmeter.generators import MemorizerConfig, gmm_generate, memorizer_generate
from synthmeter.poisoning import OutlierSpec, make_attack_registry
from synthmeter.profiles import Horizon, SplitSpec, split_households

from conftest import profile_set


@pytest.fixture(scope="module")
def registry():
    return make_attack_registry(OutlierSpec(count=50, mu=6.0, sigma=1.0, seed=13), Horizon.DAILY)


@pytest.fixture(scope="module")
def split_population():
    population = demo.make_population(120, 6, seed=17, spread=0.2)
    return split_households(population, SplitSpec(holdout_fraction=0.5, seed=0))


class TestReconstructionKs:
    def test_memorizer_detected(self, split_population):
        train, holdout = split_population
        synthetic = memorizer_generate(train, 400, MemorizerConfig(jitter_sigma=0.0, seed=1))
        result = privacy.reconstruction_ks(train, holdout, synthetic, seed=0)
        assert result.p_value < 0.01

    def test_fresh_sampler_clears(self, split_population):
        train, holdout = split_population
        synthetic = gmm_generate(train, 400, gmm.FitConfig(k=10, seed=2))
        result = privacy.reconstruction_ks(train, holdout, synthetic, seed=0)
        assert result.p_value > 0.05

    def test_sample_size_respected(self, split_population):
        train, holdout = split_population
        synthetic = gmm_generate(train, 400, gmm.FitConfig(k=5, seed=3))
        result = privacy.reconstruction_ks(train, holdout, synthetic, sample_size=50, seed=0)
        assert result.m == result.n == 50

    def test_too_small_sample(self, split_population):
        train, holdout = split_population
        synthetic = gmm_generate(train, 10, gmm.FitConfig(k=2, seed=0))
        with pytest.raises(InsufficientSamples):
            privacy.reconstruction_ks(train, holdout, synthetic, sample_size=3, seed=0)


class TestReconstructionPoisoned:
    def test_verbatim_outliers_fully_reconstructed(self, registry):
        synthetic = registry.seen_outliers
        result = privacy.reconstruction_poisoned(registry, synthetic)
        assert all(v == 1.0 for v in result.fraction_reconstructed.values())

    def test_zero_synthetic_reconstructs_only_at_one(self, registry):
        synthetic = profile_set(np.zeros((20, 48)))
        result = privacy.reconstruction_poisoned(registry, synthetic)
        for ratio, fraction in result.fraction_reconstructed.items():
            if ratio < 1.0:
                assert fraction == 0.0
        # the zero row sits exactly at distance ||x||: ratio 1.0 counts
        assert result.fraction_reconstructed[1.0] == 1.0

    def test_zero_norm_outlier_names_first_zero_row(self, registry):
        values = registry.seen_outliers.values.copy()
        values[[2, 4]] = 0.0  # make_outliers clamps a spec with mu well below 0 to this
        zeroed = replace(registry, seen_outliers=profile_set(values))
        with pytest.raises(DegenerateInput, match=r"row 2 \(household h00002\) is all zero"):
            privacy.reconstruction_poisoned(zeroed, registry.unseen_same_dist)

    def test_cdf_monotone(self, registry):
        rng = np.random.default_rng(0)
        synthetic = profile_set(
            np.maximum(rng.normal(4.0, 2.0, size=(100, 48)), 0.0)
        )
        result = privacy.reconstruction_poisoned(registry, synthetic)
        ordered = [result.fraction_reconstructed[r] for r in sorted(result.fraction_reconstructed)]
        assert all(a <= b for a, b in zip(ordered, ordered[1:]))

    def test_fraction_matches_ratio_vector(self, registry):
        rng = np.random.default_rng(1)
        synthetic = profile_set(
            np.maximum(rng.normal(5.0, 1.5, size=(60, 48)), 0.0)
        )
        result = privacy.reconstruction_poisoned(registry, synthetic)
        for ratio, fraction in result.fraction_reconstructed.items():
            assert fraction == (result.per_outlier_nn_distance_ratio <= ratio).mean()

    @pytest.mark.parametrize("scale", [0.5, 2.0, 10.0])
    def test_scale_free_ratio(self, registry, scale):
        rng = np.random.default_rng(2)
        synthetic_values = np.maximum(rng.normal(5.0, 1.0, size=(40, 48)), 0.0)
        base = privacy.reconstruction_poisoned(
            registry, profile_set(synthetic_values)
        )
        scaled_registry = make_attack_registry(
            OutlierSpec(count=50, mu=6.0, sigma=1.0, seed=13), Horizon.DAILY
        )
        scaled_registry.seen_outliers = profile_set(
            registry.seen_outliers.values * scale, labels=registry.seen_outliers.labels,
        )
        scaled = privacy.reconstruction_poisoned(
            scaled_registry, profile_set(synthetic_values * scale)
        )
        np.testing.assert_allclose(
            scaled.per_outlier_nn_distance_ratio,
            base.per_outlier_nn_distance_ratio,
            atol=1e-12,
        )

    def test_appending_distant_rows_changes_nothing(self, registry):
        rng = np.random.default_rng(3)
        near = np.maximum(rng.normal(5.5, 1.0, size=(30, 48)), 0.0)
        far = np.full((10, 48), 100.0)
        base = privacy.reconstruction_poisoned(
            registry, profile_set(near),
            privacy.ReconstructionConfig(sample_size=30),
        )
        extended = privacy.reconstruction_poisoned(
            registry, profile_set(np.vstack([near, far])),
            privacy.ReconstructionConfig(sample_size=40),
        )
        np.testing.assert_array_equal(
            base.per_outlier_nn_distance_ratio, extended.per_outlier_nn_distance_ratio
        )

    def test_row_permutation_invariance(self, registry):
        rng = np.random.default_rng(4)
        values = np.maximum(rng.normal(5.0, 1.0, size=(50, 48)), 0.0)
        base = privacy.reconstruction_poisoned(
            registry, profile_set(values),
            privacy.ReconstructionConfig(sample_size=50),
        )
        permuted = privacy.reconstruction_poisoned(
            registry, profile_set(values[rng.permutation(50)]),
            privacy.ReconstructionConfig(sample_size=50),
        )
        np.testing.assert_allclose(
            base.per_outlier_nn_distance_ratio, permuted.per_outlier_nn_distance_ratio, atol=0
        )


    @pytest.mark.parametrize("size", [0, -1])
    def test_sample_size_below_one_rejected(self, size):
        with pytest.raises(InvalidConfig, match="at least 1"):
            privacy.ReconstructionConfig(sample_size=size)

    def test_sample_size_of_one_accepted(self, registry):
        result = privacy.reconstruction_poisoned(
            registry, profile_set(np.zeros((5, 48))),
            privacy.ReconstructionConfig(sample_size=1),
        )
        assert len(result.per_outlier_nn_distance_ratio) == len(registry.seen_outliers)


class TestGeneratorControls:
    def test_verbatim_memorizer_reconstructs_at_any_ratio(self, registry):
        from synthmeter.poisoning import inject

        population = demo.make_population(40, 5, seed=19)
        poisoned = inject(population, registry.seen_outliers, seed=0)
        synthetic = memorizer_generate(
            poisoned, len(poisoned), MemorizerConfig(jitter_sigma=0.0, seed=0, sequential=True)
        )
        config = privacy.ReconstructionConfig(
            threshold_ratios=(0.01, 0.3, 1.0), sample_size=len(synthetic)
        )
        result = privacy.reconstruction_poisoned(registry, synthetic, config)
        assert result.fraction_reconstructed[0.01] == 1.0  # zero distance everywhere

    def test_clean_fit_sampler_clears_at_policy_ratio(self, registry):
        population = demo.make_population(60, 6, seed=23)  # outlier-free
        synthetic = gmm_generate(population, 500, gmm.FitConfig(k=5, seed=1))
        config = privacy.ReconstructionConfig(
            threshold_ratios=(0.3,), sample_size=len(synthetic)
        )
        result = privacy.reconstruction_poisoned(registry, synthetic, config)
        assert result.fraction_reconstructed[0.3] == 0.0


class TestPrivacySpectrumOrdering:
    def test_memorizer_scores_above_sampler_on_paired_runs(self):
        population = demo.make_population(250, 5, seed=50, spread=0.3)
        for seed in range(3):
            train, holdout = split_households(
                population, SplitSpec(holdout_fraction=0.5, seed=seed)
            )
            memorized = memorizer_generate(train, len(train), MemorizerConfig(0.0, seed))
            sampled = gmm_generate(train, len(train), gmm.FitConfig(k=15, seed=seed))
            p_memorizer = privacy.mia_plain(train, holdout, memorized, seed=seed).precision
            p_sampler = privacy.mia_plain(train, holdout, sampled, seed=seed).precision
            assert p_memorizer > p_sampler


class TestThresholdPrecision:
    def test_constant_half_discriminator_reports_half(self):
        probs = np.full(40, 0.5)
        truth = np.zeros(40, dtype=bool)
        truth[:20] = True
        assert privacy.threshold_precision(probs, truth) == 0.5

    def test_strictly_above_threshold_counts(self):
        probs = np.array([0.9, 0.8, 0.5, 0.2])
        truth = np.array([True, False, True, False])
        assert privacy.threshold_precision(probs, truth) == 0.5  # 1 TP of 2 predicted

    def test_perfect_discriminator(self):
        probs = np.array([0.99, 0.98, 0.01, 0.02])
        truth = np.array([True, True, False, False])
        assert privacy.threshold_precision(probs, truth) == 1.0


class TestTopFractionPrecision:
    def test_equals_recall_when_counts_match(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=300)
        truth = np.zeros(300, dtype=bool)
        truth[:100] = True
        precision = privacy.top_fraction_precision(scores, truth)
        picked = np.lexsort((np.arange(300), -scores))[:100]
        recall = truth[picked].sum() / truth.sum()
        assert precision == recall

    def test_random_scores_near_one_third(self):
        rng = np.random.default_rng(1)
        truth = np.zeros(300, dtype=bool)
        truth[:100] = True
        precisions = []
        for _ in range(200):
            precisions.append(privacy.top_fraction_precision(rng.normal(size=300), truth))
        assert np.mean(precisions) == pytest.approx(1.0 / 3.0, abs=0.02)

    def test_ties_resolved_by_input_order(self):
        scores = np.ones(6)
        truth = np.array([True, True, False, False, False, False])
        assert privacy.top_fraction_precision(scores, truth) == 1.0

    def test_perfect_scores(self):
        truth = np.zeros(9, dtype=bool)
        truth[:3] = True
        scores = truth.astype(float)
        assert privacy.top_fraction_precision(scores, truth) == 1.0

    def test_predicts_as_many_as_truth_has_positives(self):
        truth = np.zeros(210, dtype=bool)
        truth[:10] = True
        scores = -np.arange(210.0)
        scores[9] = -1000.0  # one seen row ranked last: 9 of the top 10 are seen
        assert privacy.top_fraction_precision(scores, truth) == 0.9

    def test_no_positives_raises(self):
        with pytest.raises(ValueError, match="no positives"):
            privacy.top_fraction_precision(np.ones(6), np.zeros(6, dtype=bool))


class TestMiaPlain:
    def test_memorizer_beats_chance(self, split_population):
        train, holdout = split_population
        synthetic = memorizer_generate(train, len(train), MemorizerConfig(0.0, seed=5))
        result = privacy.mia_plain(train, holdout, synthetic, seed=0)
        assert result.precision > 0.55
        assert result.positive_fraction == 0.5

    def test_uninformative_discriminator_reports_half(self, split_population):
        # an untrained (zero-epoch equivalent) discriminator: force the
        # degenerate path by training on identical positives and negatives
        train, holdout = split_population
        synthetic = holdout.subset(range(len(holdout) // 2))
        result = privacy.mia_plain(train, holdout, synthetic, seed=0)
        assert 0.0 <= result.precision <= 1.0

    def test_loss_trace_recorded(self, split_population):
        train, holdout = split_population
        synthetic = memorizer_generate(train, 100, MemorizerConfig(0.0, seed=6))
        result = privacy.mia_plain(train, holdout, synthetic, seed=0)
        assert len(result.discriminator_train_loss_trace) == 50

    def test_holdout_too_small(self, split_population):
        train, _ = split_population
        tiny = train.subset([0, 1])
        synthetic = memorizer_generate(train, 50, MemorizerConfig(0.0, seed=0))
        with pytest.raises(InsufficientSamples):
            privacy.mia_plain(train, tiny, synthetic, seed=0)


def _three_step_discriminator(positives, negatives, seed):
    """``_train_discriminator`` as it was: each side down-sampled into its
    own array, then stacked. The oracle for the both-sides tests."""
    rng = np.random.default_rng(seed)
    size = min(len(positives), len(negatives))
    positives = privacy._downsample(positives, size, rng)
    negatives = privacy._downsample(negatives, size, rng)
    x = np.vstack([positives, negatives])
    y = np.concatenate([np.ones(len(positives)), np.zeros(len(negatives))])
    model = nnet.init_model([x.shape[1], *privacy.DEFAULT_DISCRIMINATOR_HIDDEN, 1], head=nnet.SIGMOID, seed=seed)
    return nnet.train(model, x, y, nnet.TrainConfig(loss=nnet.BCE, seed=seed))


def _three_step_mia_plain(train, holdout, synthetic, seed):
    """``mia_plain`` as it was, with its attack set built the same three-step way."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(holdout))
    half = len(holdout) // 2
    disc_half = holdout.values[np.sort(order[:half])]
    attack_half = holdout.values[np.sort(order[half:])]
    trained = _three_step_discriminator(synthetic.values, disc_half, seed=seed)
    size = min(len(train), len(attack_half))
    train_rows = privacy._downsample(train.values, size, rng)
    neg_rows = privacy._downsample(attack_half, size, rng)
    attack_x = np.vstack([train_rows, neg_rows])
    truth = np.concatenate([np.ones(len(train_rows), dtype=bool), np.zeros(len(neg_rows), dtype=bool)])
    probs = nnet.forward(trained.model, attack_x)
    return privacy.MiaResult(
        precision=privacy.threshold_precision(probs, truth),
        attack_set_size=len(attack_x),
        positive_fraction=0.5,
        discriminator_train_loss_trace=trained.loss_trace,
    )


class TestBalancingBothSides:
    """The balanced sets keep the three-step construction's bits whichever
    side is down-sampled; the demo workspace only exercises the synthetic one."""

    @pytest.mark.parametrize("positives, negatives", [(300, 90), (90, 300)], ids=["positives_larger", "negatives_larger"])
    def test_discriminator(self, positives, negatives):
        rng = np.random.default_rng(4)
        pos = rng.gamma(2.0, 0.4, size=(positives, 48))
        neg = rng.gamma(2.0, 0.5, size=(negatives, 48))
        got = privacy._train_discriminator(pos, neg, seed=3)
        want = _three_step_discriminator(pos, neg, seed=3)
        for name in ("weights", "biases"):
            for left, right in zip(getattr(got.model, name), getattr(want.model, name), strict=True):
                assert np.array_equal(left, right)
        assert got.loss_trace == want.loss_trace

    @pytest.mark.parametrize("side", ["synthetic_and_train_larger", "holdout_larger"])
    def test_mia_plain(self, split_population, monkeypatch, side):
        train, holdout = split_population
        if side == "holdout_larger":
            # fewer synthetic rows than the discriminator's holdout half and
            # fewer train rows than the attack half
            train = train.subset(range(40))
            synthetic = memorizer_generate(train, 60, MemorizerConfig(0.05, seed=8))
        else:
            synthetic = memorizer_generate(train, 2 * len(holdout), MemorizerConfig(0.05, seed=8))
        assert (len(synthetic) < len(holdout) // 2) == (side == "holdout_larger")
        assert (len(train) < len(holdout) - len(holdout) // 2) == (side == "holdout_larger")

        # record what each run scores, and against which truth
        seen = []
        forward, precision = nnet.forward, privacy.threshold_precision
        monkeypatch.setattr(nnet, "forward", lambda model, x: seen.append(x) or forward(model, x))
        monkeypatch.setattr(privacy, "threshold_precision", lambda p, t: seen.append(t) or precision(p, t))
        got = privacy.mia_plain(train, holdout, synthetic, seed=2)
        got_seen, seen[:] = list(seen), []
        want = _three_step_mia_plain(train, holdout, synthetic, seed=2)
        assert got == want
        assert len(got_seen) == len(seen) == 2
        for left, right in zip(got_seen, seen):
            assert left.dtype == right.dtype and np.array_equal(left, right)


class TestMiaPoisoned:
    def test_result_shape(self, split_population, registry):
        train, holdout = split_population
        synthetic = gmm_generate(train, 300, gmm.FitConfig(k=5, seed=7))
        result = privacy.mia_poisoned(registry, synthetic, holdout, seed=0)
        assert result.attack_set_size == 150
        assert result.positive_fraction == pytest.approx(1.0 / 3.0)
        assert 0.0 <= result.precision <= 1.0

    def test_unequal_registry_chance_level(self, split_population, monkeypatch):
        train, holdout = split_population
        full = make_attack_registry(OutlierSpec(count=100, mu=6.0, sigma=1.0, seed=13), Horizon.DAILY)
        unequal = replace(full, seen_outliers=full.seen_outliers.subset(range(10)))
        # scores that rank the registry's rows in order, so every seen row first
        monkeypatch.setattr(nnet, "logits", lambda model, x: -np.arange(len(x), dtype=np.float64))
        synthetic = gmm_generate(train, 300, gmm.FitConfig(k=5, seed=7))
        result = privacy.mia_poisoned(unequal, synthetic, holdout, seed=0)
        assert result.attack_set_size == 210
        assert result.precision == 1.0
        assert result.positive_fraction == 10 / 210

    def test_deterministic(self, split_population, registry):
        train, holdout = split_population
        synthetic = gmm_generate(train, 300, gmm.FitConfig(k=5, seed=7))
        a = privacy.mia_poisoned(registry, synthetic, holdout, seed=3)
        b = privacy.mia_poisoned(registry, synthetic, holdout, seed=3)
        assert a.precision == b.precision
