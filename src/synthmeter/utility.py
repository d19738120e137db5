"""Train-on-synthetic-test-on-real evaluation.

Two task models with identical architecture, seed and config are trained
on the real and synthetic fit sets and both scored on held-out real
data. The utility measure is the absolute performance gap, not the raw
score: a synthetic-trained model doing *better* than the real-trained
one is still a mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import nnet
from .errors import HorizonMismatch, MissingLabels
from .profiles import Horizon, ProfileSet, SUMMER_AUTUMN, WINTER_SPRING, require_same_horizon

ACCURACY = "accuracy"
RMSE = "rmse"
PINBALL_95 = "pinball_q"

CLASSIFIER_HIDDEN = (64, 32)
FORECASTER_HIDDEN = (64, 32)


@dataclass
class TstrResult:
    metric_name: str
    score_real_trained: float
    score_synthetic_trained: float
    absolute_gap: float
    epochs_trace: list[tuple[int, float, float]] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "metric_name": self.metric_name,
            "score_real_trained": self.score_real_trained,
            "score_synthetic_trained": self.score_synthetic_trained,
            "absolute_gap": self.absolute_gap,
            "epochs_trace": [[e, a, b] for e, a, b in self.epochs_trace],
        }


def season_targets(profiles: ProfileSet) -> np.ndarray:
    """Binary season targets: winter/spring 1, summer/autumn 0."""
    targets = np.empty(len(profiles))
    for i, label in enumerate(profiles.labels):
        if label == WINTER_SPRING:
            targets[i] = 1.0
        elif label == SUMMER_AUTUMN:
            targets[i] = 0.0
        else:
            raise MissingLabels(f"profile {i} has label {label!r}, expected WS or SA")
    return targets


def _paired_training(
    real_fit_x: np.ndarray,
    real_fit_y: np.ndarray,
    synthetic_fit_x: np.ndarray,
    synthetic_fit_y: np.ndarray,
    head: str,
    hidden: tuple[int, ...],
    config: nnet.TrainConfig,
    score_fn,
):
    """Train the two arms with identical seeds/config; only the data differs."""
    width = real_fit_x.shape[1]
    trace: dict[int, list[float]] = {}

    def callback_for(slot: int):
        def callback(model: nnet.MlpModel, epoch: int):
            trace.setdefault(epoch, [np.nan, np.nan])[slot] = score_fn(model)

        return callback

    results = []
    for slot, (x, y) in enumerate(
        ((real_fit_x, real_fit_y), (synthetic_fit_x, synthetic_fit_y))
    ):
        model = nnet.init_model([width, *hidden, 1], head=head, seed=config.seed)
        run_config = replace(config, batch_size=min(config.batch_size, len(x)))
        results.append(nnet.train(model, x, y, run_config, epoch_callback=callback_for(slot)))
    epochs_trace = [(e, vals[0], vals[1]) for e, vals in sorted(trace.items())]
    return results[0].model, results[1].model, epochs_trace


def tstr_classify(
    real_fit: ProfileSet,
    synthetic_fit: ProfileSet,
    real_eval: ProfileSet,
    config: nnet.TrainConfig | None = None,
) -> TstrResult:
    """Season classification (winter/spring vs summer/autumn) from raw slots."""
    require_same_horizon(real_fit, synthetic_fit, real_eval)
    if config is None:
        config = nnet.TrainConfig(loss=nnet.BCE)
    if config.loss != nnet.BCE:
        raise ValueError("classification uses binary cross-entropy")
    y_real = season_targets(real_fit)
    y_syn = season_targets(synthetic_fit)
    y_eval = season_targets(real_eval)
    eval_x = real_eval.values

    def accuracy(model: nnet.MlpModel) -> float:
        probs = np.atleast_1d(nnet.forward(model, eval_x))
        return float(((probs > 0.5) == (y_eval > 0.5)).mean())

    model_real, model_syn, trace = _paired_training(
        real_fit.values, y_real, synthetic_fit.values, y_syn,
        head=nnet.SIGMOID, hidden=CLASSIFIER_HIDDEN, config=config, score_fn=accuracy,
    )
    score_real = accuracy(model_real)
    score_syn = accuracy(model_syn)
    return TstrResult(
        metric_name=ACCURACY,
        score_real_trained=score_real,
        score_synthetic_trained=score_syn,
        absolute_gap=abs(score_real - score_syn),
        epochs_trace=trace,
    )


def _forecast_arrays(profiles: ProfileSet) -> tuple[np.ndarray, np.ndarray]:
    if profiles.horizon is not Horizon.DAILY:
        raise HorizonMismatch("forecasting tasks require the daily horizon")
    return profiles.values[:, :47], profiles.values[:, 47]


def tstr_forecast_mean(
    real_fit: ProfileSet,
    synthetic_fit: ProfileSet,
    real_eval: ProfileSet,
    config: nnet.TrainConfig | None = None,
) -> TstrResult:
    """Predict the final half-hour from the preceding 47; score by RMSE."""
    require_same_horizon(real_fit, synthetic_fit, real_eval)
    if config is None:
        config = nnet.TrainConfig(loss=nnet.MSE)
    if config.loss != nnet.MSE:
        raise ValueError("mean forecasting uses mean squared error")
    x_real, y_real = _forecast_arrays(real_fit)
    x_syn, y_syn = _forecast_arrays(synthetic_fit)
    x_eval, y_eval = _forecast_arrays(real_eval)

    def rmse(model: nnet.MlpModel) -> float:
        pred = np.atleast_1d(nnet.forward(model, x_eval))
        return float(np.sqrt(np.mean((pred - y_eval) ** 2)))

    model_real, model_syn, trace = _paired_training(
        x_real, y_real, x_syn, y_syn,
        head=nnet.LINEAR, hidden=FORECASTER_HIDDEN, config=config, score_fn=rmse,
    )
    score_real = rmse(model_real)
    score_syn = rmse(model_syn)
    return TstrResult(
        metric_name=RMSE,
        score_real_trained=score_real,
        score_synthetic_trained=score_syn,
        absolute_gap=abs(score_real - score_syn),
        epochs_trace=trace,
    )


def tstr_forecast_quantile(
    real_fit: ProfileSet,
    synthetic_fit: ProfileSet,
    real_eval: ProfileSet,
    config: nnet.TrainConfig | None = None,
) -> TstrResult:
    """Predict the final half-hour's 95th-quantile demand; score by pinball loss."""
    require_same_horizon(real_fit, synthetic_fit, real_eval)
    if config is None:
        config = nnet.TrainConfig(loss=nnet.PINBALL, pinball_q=0.95)
    if config.loss != nnet.PINBALL:
        raise ValueError("quantile forecasting uses the pinball loss")
    x_real, y_real = _forecast_arrays(real_fit)
    x_syn, y_syn = _forecast_arrays(synthetic_fit)
    x_eval, y_eval = _forecast_arrays(real_eval)
    q = config.pinball_q

    def mean_pinball(model: nnet.MlpModel) -> float:
        pred = np.atleast_1d(nnet.forward(model, x_eval))
        return float(nnet.pinball_loss(y_eval, pred, q).mean())

    model_real, model_syn, trace = _paired_training(
        x_real, y_real, x_syn, y_syn,
        head=nnet.LINEAR, hidden=FORECASTER_HIDDEN, config=config, score_fn=mean_pinball,
    )
    score_real = mean_pinball(model_real)
    score_syn = mean_pinball(model_syn)
    return TstrResult(
        metric_name=f"{PINBALL_95}{q}",
        score_real_trained=score_real,
        score_synthetic_trained=score_syn,
        absolute_gap=abs(score_real - score_syn),
        epochs_trace=trace,
    )
