"""Train-on-synthetic-test-on-real evaluation.

Two task models with identical architecture, seed and config are trained
on the real and synthetic fit sets and both scored on held-out real
data. The utility measure is the absolute performance gap, not the raw
score: a synthetic-trained model doing *better* than the real-trained
one is still a mismatch.

When the two fit sets have the same row count (as every demo-built
workspace has), the arms train in lockstep as one stacked model
(``nnet.train_arms``), which gives the results and raises the errors of
training them one after the other, real first; otherwise they train one
after the other.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import nnet
from .errors import HorizonMismatch, MissingLabels, NonFiniteValue
from .profiles import Horizon, ProfileSet, SUMMER_AUTUMN, WINTER_SPRING, require_same_horizon

@dataclass
class TstrResult:
    metric_name: str
    score_real_trained: float
    score_synthetic_trained: float
    absolute_gap: float
    epochs_trace: list[tuple[int, float, float]] = field(default_factory=list)


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


def _forecast_arrays(profiles: ProfileSet) -> tuple[np.ndarray, np.ndarray]:
    if profiles.horizon is not Horizon.DAILY:
        raise HorizonMismatch("forecasting tasks require the daily horizon")
    return profiles.values[:, :47], profiles.values[:, 47]


def _accuracy(pred: np.ndarray, y: np.ndarray, q: float) -> float:
    return float(((pred > 0.5) == (y > 0.5)).mean())


def _rmse(pred: np.ndarray, y: np.ndarray, q: float) -> float:
    return float(np.sqrt(np.mean((pred - y) ** 2)))


def _mean_pinball(pred: np.ndarray, y: np.ndarray, q: float) -> float:
    return float(nnet.pinball_loss(y, pred, q).mean())


@dataclass(frozen=True)
class Task:
    """One TSTR task: how a profile set becomes (inputs, targets), the
    network head and training loss, and how a model's predictions on the
    evaluation set are scored (given the config's ``pinball_q``)."""

    arrays: Callable[[ProfileSet], tuple[np.ndarray, np.ndarray]]
    head: str
    hidden: tuple[int, ...]
    loss: str
    metric: Callable[[np.ndarray, np.ndarray, float], float]
    metric_name: str  # formatted with the config's pinball_q as ``q``
    trace_header: tuple[str, str, str]


# Keyed by the manifest's task names; ``tstr_<name>`` is the public entry.
TASKS = {
    # season classification (winter/spring vs summer/autumn) from raw slots
    "classify": Task(
        arrays=lambda profiles: (profiles.values, season_targets(profiles)),
        head=nnet.SIGMOID, hidden=(64, 32), loss=nnet.BCE,
        metric=_accuracy, metric_name="accuracy",
        trace_header=("epoch", "acc_real", "acc_synthetic"),
    ),
    # the final half-hour from the preceding 47, scored by RMSE
    "forecast_mean": Task(
        arrays=_forecast_arrays,
        head=nnet.LINEAR, hidden=(64, 32), loss=nnet.MSE,
        metric=_rmse, metric_name="rmse",
        trace_header=("epoch", "score_real", "score_synthetic"),
    ),
    # the final half-hour's q-quantile (0.95 by default), scored by pinball loss
    "forecast_quantile": Task(
        arrays=_forecast_arrays,
        head=nnet.LINEAR, hidden=(64, 32), loss=nnet.PINBALL,
        metric=_mean_pinball, metric_name="pinball_q{q}",
        trace_header=("epoch", "score_real", "score_synthetic"),
    ),
}


def _tstr(
    name: str,
    real_fit: ProfileSet,
    synthetic_fit: ProfileSet,
    real_eval: ProfileSet,
    config: nnet.TrainConfig | None,
) -> TstrResult:
    """Train the two arms with identical seeds and config (only the fit data
    differs) and score both on the real evaluation set. The task sets the
    config's loss."""
    task = TASKS[name]
    require_same_horizon(real_fit, synthetic_fit, real_eval)
    config = replace(config or nnet.TrainConfig(), loss=task.loss)
    arms = [task.arrays(real_fit), task.arrays(synthetic_fit)]
    x_eval, y_eval = task.arrays(real_eval)

    def score(model: nnet.MlpModel) -> float:
        return task.metric(nnet.forward(model, x_eval), y_eval, config.pinball_q)

    model = nnet.init_model([x_eval.shape[1], *task.hidden, 1], head=task.head, seed=config.seed)

    traces: list[list[float]] = [[] for _ in arms]
    callbacks = [lambda m, _, trace=trace: trace.append(score(m)) for trace in traces]
    if len(arms[0][0]) == len(arms[1][0]):
        xs, ys = zip(*arms)
        nnet.train_arms([model] * len(arms), xs, ys, config, epoch_callbacks=callbacks)
    else:
        for (x, y), callback in zip(arms, callbacks):
            nnet.train(model, x, y, config, epoch_callback=callback)
    metric_name = task.metric_name.format(q=config.pinball_q)
    # the last epoch's callback scored the trained model itself (epochs >= 1)
    scores = [trace[-1] for trace in traces]
    # a loss that stays finite can still give an infinite score
    for arm, trace in zip(("real", "synthetic"), traces):
        if not np.isfinite(trace).all():
            raise NonFiniteValue(f"{name}: the {arm}-trained arm's {metric_name} is not finite")
    return TstrResult(
        metric_name=metric_name,
        score_real_trained=scores[0],
        score_synthetic_trained=scores[1],
        absolute_gap=abs(scores[0] - scores[1]),
        epochs_trace=[(epoch, *pair) for epoch, pair in enumerate(zip(*traces))],
    )


def tstr_classify(real_fit, synthetic_fit, real_eval, config=None) -> TstrResult:
    return _tstr("classify", real_fit, synthetic_fit, real_eval, config)


def tstr_forecast_mean(real_fit, synthetic_fit, real_eval, config=None) -> TstrResult:
    return _tstr("forecast_mean", real_fit, synthetic_fit, real_eval, config)


def tstr_forecast_quantile(real_fit, synthetic_fit, real_eval, config=None) -> TstrResult:
    return _tstr("forecast_quantile", real_fit, synthetic_fit, real_eval, config)
