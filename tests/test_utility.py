from __future__ import annotations

import datetime as dt
from dataclasses import replace

import numpy as np
import pytest

from synthmeter import demo, nnet, utility
from synthmeter.errors import HorizonMismatch, MissingLabels, NonFiniteLoss, NonFiniteValue
from synthmeter.profiles import ProfileSet, Role

from conftest import profile_set


@pytest.fixture(scope="module")
def season_sets():
    fit = demo.make_population(60, 10, seed=31, day_step=36)
    evaluation = demo.make_population(30, 10, seed=32, day_step=36, start=dt.date(2014, 1, 2))
    return fit, evaluation


@pytest.fixture(scope="module")
def fast_config():
    return nnet.TrainConfig(loss=nnet.BCE, epochs=15, seed=0)


class TestClassify:
    def test_same_data_control_zero_gap(self, season_sets, fast_config):
        fit, evaluation = season_sets
        result = utility.tstr_classify(fit, fit.with_role(Role.SYNTHETIC), evaluation, fast_config)
        # identical data, identical seeds: the two arms are bit-identical
        assert result.absolute_gap == 0.0
        assert result.metric_name == "accuracy"

    def test_constant_input_collapses_to_majority(self, season_sets, fast_config):
        fit, evaluation = season_sets
        constant = profile_set(
            np.tile(fit.values.mean(axis=0), (len(fit), 1)), role=Role.SYNTHETIC,
        )
        constant = ProfileSet(
            values=constant.values,
            household_ids=constant.household_ids,
            start_dates=constant.start_dates,
            horizon=constant.horizon,
            role=Role.SYNTHETIC,
            labels=fit.labels,
        )
        result = utility.tstr_classify(fit, constant, evaluation, fast_config)
        eval_targets = utility.season_targets(evaluation)
        majority_rate = max(eval_targets.mean(), 1.0 - eval_targets.mean())
        assert abs(result.score_synthetic_trained - majority_rate) <= 0.1

    def test_missing_labels(self, season_sets, fast_config):
        fit, evaluation = season_sets
        unlabelled = profile_set(fit.values, role=Role.SYNTHETIC)
        with pytest.raises(MissingLabels):
            utility.tstr_classify(fit, unlabelled, evaluation, fast_config)

    def test_epochs_trace_shape(self, season_sets, fast_config):
        fit, evaluation = season_sets
        result = utility.tstr_classify(fit, fit.with_role(Role.SYNTHETIC), evaluation, fast_config)
        assert len(result.epochs_trace) == fast_config.epochs
        epochs = [e for e, _, _ in result.epochs_trace]
        assert epochs == list(range(fast_config.epochs))


class TestForecastMean:
    def test_learnable_identity_relation(self):
        # slot 47 always equals slot 46: with ample data the relation is
        # learnable to near-zero heldout error
        rng = np.random.default_rng(11)
        values = np.maximum(rng.normal(0.4, 0.2, size=(3600, 48)), 0.0)
        values[:, 47] = values[:, 46]
        fit = profile_set(values[:3000])
        evaluation = profile_set(values[3000:], role=Role.HOLDOUT)
        config = nnet.TrainConfig(loss=nnet.MSE, epochs=200, seed=0, learning_rate=0.01)
        result = utility.tstr_forecast_mean(fit, fit.with_role(Role.SYNTHETIC), evaluation, config)
        assert result.score_real_trained <= 0.05
        assert result.absolute_gap == 0.0

    def test_destroyed_relation_hurts(self):
        rng = np.random.default_rng(12)
        values = np.maximum(rng.normal(0.4, 0.2, size=(600, 48)), 0.0)
        values[:, 47] = values[:, 46]
        fit = profile_set(values[:400])
        evaluation = profile_set(values[400:], role=Role.HOLDOUT)
        destroyed_values = values[:400].copy()
        destroyed_values[:, 47] = rng.permutation(destroyed_values[:, 47])
        destroyed = profile_set(destroyed_values, role=Role.SYNTHETIC)
        config = nnet.TrainConfig(loss=nnet.MSE, epochs=60, seed=0, learning_rate=0.02)
        result = utility.tstr_forecast_mean(fit, destroyed, evaluation, config)
        assert result.score_synthetic_trained > result.score_real_trained

    def test_weekly_horizon_rejected(self):
        weekly = profile_set(np.full((10, 336), 0.2))
        with pytest.raises(HorizonMismatch):
            utility.tstr_forecast_mean(
                weekly, weekly.with_role(Role.SYNTHETIC), weekly.with_role(Role.HOLDOUT)
            )


class TestForecastQuantile:
    def test_constant_input_near_quantile_optimum(self):
        rng = np.random.default_rng(13)
        values = np.full((800, 48), 0.3)
        values[:, 47] = rng.gamma(2.0, 0.2, size=800)
        fit = profile_set(values[:600])
        evaluation = profile_set(values[600:], role=Role.HOLDOUT)
        config = nnet.TrainConfig(
            loss=nnet.PINBALL, pinball_q=0.95, epochs=300, seed=0, learning_rate=0.02
        )
        result = utility.tstr_forecast_quantile(fit, fit.with_role(Role.SYNTHETIC), evaluation, config)
        y_eval = evaluation.values[:, 47]
        optimum = np.quantile(values[:600, 47], 0.95)
        optimal_loss = nnet.pinball_loss(y_eval, np.full_like(y_eval, optimum), 0.95).mean()
        assert result.score_real_trained <= 1.10 * optimal_loss + 1e-6

    def test_median_configuration(self):
        rng = np.random.default_rng(14)
        values = np.full((800, 48), 0.3)
        values[:, 47] = 0.5 + rng.normal(0, 0.1, size=800)  # symmetric noise
        fit = profile_set(np.maximum(values[:600], 0))
        evaluation = profile_set(np.maximum(values[600:], 0), role=Role.HOLDOUT)
        config = nnet.TrainConfig(
            loss=nnet.PINBALL, pinball_q=0.5, epochs=200, seed=0, learning_rate=0.02
        )
        result = utility.tstr_forecast_quantile(fit, fit.with_role(Role.SYNTHETIC), evaluation, config)
        model_prediction_loss = result.score_real_trained
        median_loss = nnet.pinball_loss(
            evaluation.values[:, 47], np.full(len(evaluation), 0.5), 0.5
        ).mean()
        assert model_prediction_loss <= 1.25 * median_loss


class TestArmsSymmetry:
    def test_gap_symmetric_and_deterministic(self, season_sets, fast_config):
        fit, evaluation = season_sets
        rng = np.random.default_rng(15)
        jittered = ProfileSet(
            values=np.maximum(fit.values + rng.normal(0, 0.05, fit.values.shape), 0.0),
            household_ids=fit.household_ids,
            start_dates=fit.start_dates,
            horizon=fit.horizon,
            role=Role.SYNTHETIC,
            labels=fit.labels,
        )
        first = utility.tstr_classify(fit, jittered, evaluation, fast_config)
        second = utility.tstr_classify(fit, jittered, evaluation, fast_config)
        assert first.score_real_trained == second.score_real_trained
        assert first.score_synthetic_trained == second.score_synthetic_trained
        assert first.absolute_gap == abs(
            first.score_real_trained - first.score_synthetic_trained
        )


def sequential_tstr(name, real_fit, synthetic_fit, real_eval, config):
    """The arms trained one after the other with ``nnet.train``, real first:
    the oracle for the lockstep path."""
    task = utility.TASKS[name]
    x_eval, y_eval = task.arrays(real_eval)

    def score(model):
        return task.metric(np.atleast_1d(nnet.forward(model, x_eval)), y_eval, config.pinball_q)

    scores, traces = [], []
    for profiles in (real_fit, synthetic_fit):
        x, y = task.arrays(profiles)
        trace = []
        model = nnet.init_model([x.shape[1], *task.hidden, 1], head=task.head, seed=config.seed)
        run_config = replace(config, batch_size=min(config.batch_size, len(x)))
        result = nnet.train(model, x, y, run_config, epoch_callback=lambda m, _: trace.append(score(m)))
        scores.append(score(result.model))
        traces.append(trace)
    return utility.TstrResult(
        metric_name=task.metric_name.format(q=config.pinball_q),
        score_real_trained=scores[0],
        score_synthetic_trained=scores[1],
        absolute_gap=abs(scores[0] - scores[1]),
        epochs_trace=[(epoch, *pair) for epoch, pair in enumerate(zip(*traces))],
    )


@pytest.fixture
def stacked_calls(monkeypatch):
    """Counts the stacked training runs ``utility`` starts: the ``train_arms``
    calls with more than one arm (``nnet.train`` is its one-arm call)."""
    calls = []
    train_arms = nnet.train_arms

    def counting(models, *args, **kwargs):
        if len(models) > 1:
            calls.append(1)
        return train_arms(models, *args, **kwargs)

    monkeypatch.setattr(nnet, "train_arms", counting)
    return calls


def _forecast_sets(synthetic_scale=1.0, synthetic_rows=200):
    rng = np.random.default_rng(21)
    values = np.maximum(rng.normal(0.4, 0.2, size=(500, 48)), 0.0)
    real = profile_set(values[:200])
    synthetic = profile_set(values[200 : 200 + synthetic_rows] * synthetic_scale, role=Role.SYNTHETIC)
    return real, synthetic, profile_set(values[400:], role=Role.HOLDOUT)


def _arm_error(name, profiles, config):
    """The NonFiniteLoss message of one arm trained alone, or None."""
    task = utility.TASKS[name]
    x, y = task.arrays(profiles)
    model = nnet.init_model([x.shape[1], *task.hidden, 1], head=task.head, seed=config.seed)
    try:
        nnet.train(model, x, y, config)
    except NonFiniteLoss as exc:
        return str(exc)
    return None


class TestLockstepArms:
    def test_equal_sizes_match_sequential(self, season_sets, fast_config, stacked_calls):
        fit, evaluation = season_sets
        rng = np.random.default_rng(16)
        jittered = replace(
            fit, values=np.maximum(fit.values + rng.normal(0, 0.05, fit.values.shape), 0.0), role=Role.SYNTHETIC
        )
        result = utility.tstr_classify(fit, jittered, evaluation, fast_config)
        assert stacked_calls == [1]
        assert result == sequential_tstr("classify", fit, jittered, evaluation, fast_config)

    @pytest.mark.parametrize("name", ["forecast_mean", "forecast_quantile"])
    def test_unequal_sizes_match_sequential(self, name, stacked_calls):
        real, synthetic, evaluation = _forecast_sets(synthetic_rows=150)
        loss = utility.TASKS[name].loss
        config = nnet.TrainConfig(loss=loss, epochs=5, seed=0, learning_rate=0.02)
        result = getattr(utility, f"tstr_{name}")(real, synthetic, evaluation, config)
        assert stacked_calls == []
        assert result == sequential_tstr(name, real, synthetic, evaluation, config)

    def test_only_synthetic_arm_diverges(self, stacked_calls):
        real, synthetic, evaluation = _forecast_sets(synthetic_scale=3.0)
        config = nnet.TrainConfig(loss=nnet.MSE, epochs=20, seed=0, learning_rate=10.0)
        assert _arm_error("forecast_mean", real, config) is None
        want = _arm_error("forecast_mean", synthetic, config)
        assert want is not None
        with pytest.raises(NonFiniteLoss) as got:
            utility.tstr_forecast_mean(real, synthetic, evaluation, config)
        assert stacked_calls == [1]
        assert str(got.value) == want

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_score_raises(self):
        # at 29 epochs the training loss stays finite but the last epoch's
        # predictions overflow the RMSE to inf
        real, _, evaluation = _forecast_sets(synthetic_scale=3.0)
        config = nnet.TrainConfig(loss=nnet.MSE, epochs=29, seed=0, learning_rate=10.0)
        with pytest.raises(NonFiniteValue, match="forecast_mean: the real-trained arm's rmse is not finite"):
            utility.tstr_forecast_mean(real, real.with_role(Role.SYNTHETIC), evaluation, config)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_both_arms_diverge_raises_the_real_arms_error(self, stacked_calls):
        # the synthetic arm diverges at an earlier step than the real one, so
        # the stacked run stops on its error, and the real arm's must win
        real, synthetic, evaluation = _forecast_sets(synthetic_scale=3.0)
        config = nnet.TrainConfig(loss=nnet.MSE, epochs=40, seed=0, learning_rate=10.0)
        want = _arm_error("forecast_mean", real, config)
        other = _arm_error("forecast_mean", synthetic, config)
        assert want is not None and other is not None and want != other
        with pytest.raises(NonFiniteLoss) as got:
            utility.tstr_forecast_mean(real, synthetic, evaluation, config)
        assert stacked_calls == [1]
        assert str(got.value) == want
