"""Diagonal-covariance Gaussian mixtures fit by EM.

Used for the cluster-distribution fidelity metric, cluster-level
aggregation and the smooth reference generator. Responsibilities are
computed in log space; the M-step enforces a variance floor, which keeps
the per-iteration log-likelihood monotone (the floored value is still the
constrained maximiser).
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidConfig, TooFewRows
from .profiles import Horizon, ProfileSet

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class FitConfig:
    k: int = 25
    tol: float = 1e-6
    max_iter: int = 200
    variance_floor: float = 1e-6
    seed: int = 0
    n_init: int = 3

    def __post_init__(self):
        if self.k < 1 or self.max_iter < 1 or self.n_init < 1:
            raise InvalidConfig("k, max_iter and n_init must be positive")
        if self.tol <= 0 or self.variance_floor <= 0:
            raise InvalidConfig("tol and variance_floor must be positive")


@dataclass
class GmmModel:
    weights: np.ndarray  # (k,)
    means: np.ndarray  # (k, L)
    variances: np.ndarray  # (k, L), diagonal covariances
    log_likelihood_trace: list[float] = field(default_factory=list)

    @property
    def k(self) -> int:
        return len(self.weights)

    @property
    def n_dims(self) -> int:
        return self.means.shape[1]


def _log_density(x: np.ndarray, means: np.ndarray, variances: np.ndarray) -> np.ndarray:
    """Per-row, per-component diagonal Gaussian log density, shape (n, k)."""
    inv_var = 1.0 / variances  # (k, L)
    log_det = np.log(variances).sum(axis=1)  # (k,)
    quad = (
        (x * x) @ inv_var.T
        - 2.0 * (x @ (means * inv_var).T)
        + (means * means * inv_var).sum(axis=1)[None, :]
    )
    return -0.5 * (x.shape[1] * _LOG_2PI + log_det[None, :] + quad)


def _log_responsibilities(x, weights, means, variances):
    with np.errstate(divide="ignore"):  # starved components carry weight 0
        joint = _log_density(x, means, variances) + np.log(weights)[None, :]
    norm = _logsumexp_rows(joint)
    return joint - norm[:, None], norm


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    m = a.max(axis=1)
    finite = np.isfinite(m)
    out = np.full(len(a), -np.inf)
    if finite.any():
        af = a[finite]
        mf = m[finite]
        out[finite] = mf + np.log(np.exp(af - mf[:, None]).sum(axis=1))
    return out


def _seed_means(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++-style seeding: rows chosen with probability proportional to
    squared distance from the nearest already-chosen seed."""
    n = len(x)
    means = np.empty((k, x.shape[1]))
    first = int(rng.integers(n))
    means[0] = x[first]
    d2 = ((x - means[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(n))  # all rows coincide with a seed
        else:
            idx = int(rng.choice(n, p=d2 / total))
        means[i] = x[idx]
        d2 = np.minimum(d2, ((x - means[i]) ** 2).sum(axis=1))
    return means


def _run_em(x: np.ndarray, config: FitConfig, rng: np.random.Generator) -> GmmModel:
    n = len(x)
    k = config.k
    means = _seed_means(x, k, rng)
    global_var = np.maximum(x.var(axis=0), config.variance_floor)
    variances = np.tile(global_var, (k, 1))
    weights = np.full(k, 1.0 / k)

    trace: list[float] = []
    prev_mean_ll = -np.inf
    for _ in range(config.max_iter):
        log_resp, log_norm = _log_responsibilities(x, weights, means, variances)
        mean_ll = float(log_norm.mean())
        trace.append(mean_ll)
        resp = np.exp(log_resp)
        counts = resp.sum(axis=0)  # (k,)
        weights = counts / n
        # starved components keep their parameters; their weight alone is
        # refit, which preserves EM monotonicity
        alive = counts > 1e-12
        if alive.any():
            new_means = (resp.T @ x)[alive] / counts[alive, None]
            means[alive] = new_means
            sq = (resp.T @ (x * x))[alive] / counts[alive, None]
            variances[alive] = np.maximum(sq - new_means * new_means, config.variance_floor)
        if prev_mean_ll > -np.inf and mean_ll - prev_mean_ll < config.tol * abs(prev_mean_ll):
            break
        prev_mean_ll = mean_ll
    # trace the post-update likelihood so the trace ends at the final model
    _, log_norm = _log_responsibilities(x, weights, means, variances)
    trace.append(float(log_norm.mean()))
    return GmmModel(
        weights=weights,
        means=means,
        variances=variances,
        log_likelihood_trace=trace,
    )


def fit(data, config: FitConfig) -> GmmModel:
    """Fit by EM with k-means++ seeding; best of n_init restarts wins."""
    x = data.values if isinstance(data, ProfileSet) else np.asarray(data, dtype=np.float64)
    if len(x) < config.k:
        raise TooFewRows(f"{len(x)} rows for k={config.k}")
    streams = np.random.SeedSequence(config.seed).spawn(config.n_init)
    best: GmmModel | None = None
    for stream in streams:
        model = _run_em(x, config, np.random.default_rng(stream))
        if best is None or model.log_likelihood_trace[-1] > best.log_likelihood_trace[-1]:
            best = model
    assert best is not None
    return best


@dataclass
class Prediction:
    labels: np.ndarray  # (n,) argmax component, ties to the lowest index
    responsibilities: np.ndarray  # (n, k), rows sum to 1


def predict(model: GmmModel, data) -> Prediction:
    x = data.values if isinstance(data, ProfileSet) else np.asarray(data, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.n_dims:
        raise DimensionMismatch(f"expected width {model.n_dims}, got {x.shape}")
    log_resp, _ = _log_responsibilities(x, model.weights, model.means, model.variances)
    resp = np.exp(log_resp)
    return Prediction(labels=resp.argmax(axis=1), responsibilities=resp)


def label_distribution(labels: np.ndarray, k: int) -> np.ndarray:
    counts = np.bincount(labels, minlength=k).astype(np.float64)
    return counts / counts.sum()


@dataclass
class SampleResult:
    profiles: ProfileSet
    clamp_count: int


def sample(model: GmmModel, n: int, seed: int, horizon: Horizon | None = None) -> SampleResult:
    """Draw n rows: component by weight, then a diagonal Gaussian draw.

    Negative kWh values are clamped to zero and counted. The same seed
    always reproduces the same output.
    """
    if n < 1:
        raise InvalidConfig(f"n must be at least 1, got {n}")
    rng = np.random.default_rng(seed)
    components = rng.choice(model.k, size=n, p=model.weights / model.weights.sum())
    noise = rng.standard_normal((n, model.n_dims))
    values = model.means[components] + np.sqrt(model.variances[components]) * noise
    clamp_count = int((values < 0).sum())
    values = np.maximum(values, 0.0)
    if horizon is None:
        try:
            horizon = Horizon(model.n_dims)
        except ValueError:
            raise DimensionMismatch(
                f"model width {model.n_dims} matches no known horizon; pass one explicitly"
            ) from None
    epoch = dt.date(2000, 1, 1)
    profiles = ProfileSet(
        values=values,
        household_ids=tuple(f"gmm_{i:06d}" for i in range(n)),
        start_dates=(epoch,) * n,
        horizon=horizon,
    )
    return SampleResult(profiles=profiles, clamp_count=clamp_count)

