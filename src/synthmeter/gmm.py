"""Diagonal-covariance Gaussian mixtures fit by EM.

Used for the cluster-distribution fidelity metric, cluster-level
aggregation and the smooth reference generator. Responsibilities are
computed in log space; the M-step enforces a variance floor, which keeps
the per-iteration log-likelihood monotone (the floored value is still the
constrained maximiser).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidConfig, TooFewRows, check_value
from .profiles import Horizon, ProfileSet, generated

_LOG_2PI = float(np.log(2.0 * np.pi))
_EXP_CLIP = -700.0  # np.exp is fast at and above this input
_EXP_ZERO = -746.0  # np.exp is exactly 0 below this input
# rows per chunk of the seeding's squared distances (96 kB at 48 columns)
_SEED_ROWS = 256


@dataclass(frozen=True)
class FitConfig:
    k: int = 25
    tol: float = 1e-6
    max_iter: int = 200
    variance_floor: float = 1e-6
    seed: int = 0
    n_init: int = 3

    def __post_init__(self):
        for key in ("k", "max_iter", "n_init"):
            check_value(key, getattr(self, key), getattr(self, key) >= 1, "at least 1")
        for key in ("tol", "variance_floor"):
            check_value(key, getattr(self, key), getattr(self, key) > 0, "positive")


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


def _exp(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.exp(a)`` bit for bit, written into ``out`` (which may be ``a``).

    On AVX-512 builds of NumPy, ``exp`` takes a slow path, over ten times
    slower, for inputs below about -708, and E-step inputs often lie far
    below. So inputs are clipped at _EXP_CLIP, where ``exp`` is fast, and
    the clipped lanes are zeroed; the few in [_EXP_ZERO, _EXP_CLIP) are
    computed by ``np.exp`` itself. Below _EXP_ZERO, ``exp`` is exactly 0.
    """
    low = a < _EXP_CLIP
    band = low & (a >= _EXP_ZERO)
    tail = np.exp(a[band])
    out = np.maximum(a, _EXP_CLIP, out=out)
    np.exp(out, out=out)
    out *= ~low
    out[band] = tail
    return out


def _log_responsibilities(x, xx, weights, means, variances, out=None, spare=None):
    """Log responsibilities (n, k) and per-row log-likelihoods (n,).

    ``xx`` is ``x * x``. The log responsibilities are written into ``out``;
    ``spare`` is overwritten. Both are n × k, or None to allocate.
    """
    inv_var = 1.0 / variances  # (k, L)
    log_det = np.log(variances).sum(axis=1)  # (k,)
    # the diagonal Gaussian log density -0.5 * ((L log 2pi + log_det) + quad),
    # quad = (xx @ inv_var.T - 2 (x @ (means inv_var).T)) + sum(means^2 inv_var),
    # evaluated in this order so that every bit matches the plain expression
    joint = np.matmul(xx, inv_var.T, out=out)
    cross = np.matmul(x, (means * inv_var).T, out=spare)
    cross *= 2.0
    joint -= cross
    joint += (means * means * inv_var).sum(axis=1)
    joint += x.shape[1] * _LOG_2PI + log_det
    joint *= -0.5
    with np.errstate(divide="ignore"):  # starved components carry weight 0
        joint += np.log(weights)
    norm = _logsumexp_rows(joint, spare)
    joint -= norm[:, None]
    return joint, norm


def _logsumexp_rows(a: np.ndarray, spare: np.ndarray | None = None) -> np.ndarray:
    """Row-wise log-sum-exp, -inf where a row's maximum is not finite;
    ``spare``, of a's shape, is overwritten."""
    m = a.max(axis=1)
    finite = np.isfinite(m)
    shift = np.where(finite, m, 0.0)
    shifted = np.subtract(a, shift[:, None], out=spare)
    with np.errstate(divide="ignore"):  # log(0) on rows that are all -inf
        out = shift + np.log(_exp(shifted, out=shifted).sum(axis=1))
    out[~finite] = -np.inf
    return out


def _sq_distances(x: np.ndarray, m: np.ndarray, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``((x - m) ** 2).sum(axis=1)`` bit for bit, written into ``out``.

    The differences are squared a chunk of ``len(rows)`` rows at a time in
    the buffer ``rows``; each row's sum is the same reduction over its own
    values, so chunking leaves every bit. Nothing of x's size is allocated.
    """
    step = len(rows)
    for lo in range(0, len(x), step):
        hi = min(len(x), lo + step)
        diff = np.subtract(x[lo:hi], m, out=rows[: hi - lo])
        np.square(diff, out=diff)
        diff.sum(axis=1, out=out[lo:hi])
    return out


def _seed_means(x: np.ndarray, k: int, rng: np.random.Generator, rows: np.ndarray) -> np.ndarray:
    """k-means++-style seeding: rows chosen with probability proportional to
    squared distance from the nearest already-chosen seed. ``rows`` is the
    chunk buffer of ``_sq_distances``."""
    n = len(x)
    means = np.empty((k, x.shape[1]))
    first = int(rng.integers(n))
    means[0] = x[first]
    d2 = _sq_distances(x, means[0], rows, np.empty(n))
    new = np.empty(n)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(n))  # all rows coincide with a seed
        else:
            idx = int(rng.choice(n, p=d2 / total))
        means[i] = x[idx]
        np.minimum(d2, _sq_distances(x, means[i], rows, new), out=d2)
    return means


def _run_em(x, xx, global_var, buffers, config: FitConfig, rng: np.random.Generator) -> GmmModel:
    """One EM run from a k-means++ seed on the rows ``x`` (``xx`` is ``x * x``,
    ``global_var`` their floored per-dimension variance). It overwrites
    ``buffers``, the (log-responsibilities, responsibilities, seeding chunk)
    triple, and allocates nothing of the size of ``x``."""
    log_resp_buf, resp_buf, rows = buffers
    n = len(x)
    k = config.k
    means = _seed_means(x, k, rng, rows)
    variances = np.tile(global_var, (k, 1))
    weights = np.full(k, 1.0 / k)

    trace: list[float] = []
    prev_mean_ll = -np.inf
    for _ in range(config.max_iter):
        log_resp, log_norm = _log_responsibilities(x, xx, weights, means, variances, log_resp_buf, resp_buf)
        mean_ll = float(log_norm.mean())
        trace.append(mean_ll)
        resp = _exp(log_resp, out=resp_buf)
        counts = resp.sum(axis=0)  # (k,)
        weights = counts / n
        # starved components keep their parameters; their weight alone is
        # refit, which preserves EM monotonicity
        alive = counts > 1e-12
        if alive.any():
            new_means = (resp.T @ x)[alive] / counts[alive, None]
            means[alive] = new_means
            sq = (resp.T @ xx)[alive] / counts[alive, None]
            variances[alive] = np.maximum(sq - new_means * new_means, config.variance_floor)
        if prev_mean_ll > -np.inf and mean_ll - prev_mean_ll < config.tol * abs(prev_mean_ll):
            break
        prev_mean_ll = mean_ll
    # trace the post-update likelihood so the trace ends at the final model
    _, log_norm = _log_responsibilities(x, xx, weights, means, variances, log_resp_buf, resp_buf)
    trace.append(float(log_norm.mean()))
    return GmmModel(
        weights=weights,
        means=means,
        variances=variances,
        log_likelihood_trace=trace,
    )


def _fit(data, config: FitConfig) -> GmmModel:
    """Check the rows (TooFewRows), make the arrays and buffers of one fit and
    run the n_init EM runs on them, in order; the first run with the highest
    final log-likelihood wins. Everything of the size of the data is made
    here, on the thread that runs the fit."""
    x = data.values if isinstance(data, ProfileSet) else np.asarray(data, dtype=np.float64)
    if len(x) < config.k:
        raise TooFewRows(f"{len(x)} rows for k={config.k}")
    xx = x * x
    global_var = np.maximum(x.var(axis=0), config.variance_floor)
    buffers = (np.empty((len(x), config.k)), np.empty((len(x), config.k)),
               np.empty((min(len(x), _SEED_ROWS), x.shape[1])))
    streams = np.random.SeedSequence(config.seed).spawn(config.n_init)
    best: GmmModel | None = None
    for stream in streams:
        model = _run_em(x, xx, global_var, buffers, config, np.random.default_rng(stream))
        if best is None or model.log_likelihood_trace[-1] > best.log_likelihood_trace[-1]:
            best = model
    assert best is not None
    return best


def fit(data, config: FitConfig) -> GmmModel:
    """Fit by EM with k-means++ seeding; best of n_init restarts wins.

    The restarts share one set of buffers and run on the calling thread.
    """
    return _fit(data, config)


@dataclass
class Prediction:
    labels: np.ndarray  # (n,) argmax component, ties to the lowest index
    responsibilities: np.ndarray  # (n, k), rows sum to 1


def predict(model: GmmModel, data) -> Prediction:
    x = data.values if isinstance(data, ProfileSet) else np.asarray(data, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.n_dims:
        raise DimensionMismatch(f"expected width {model.n_dims}, got {x.shape}")
    log_resp, _ = _log_responsibilities(x, x * x, model.weights, model.means, model.variances)
    resp = _exp(log_resp, out=log_resp)
    return Prediction(labels=resp.argmax(axis=1), responsibilities=resp)


def label_distribution(labels: np.ndarray, k: int) -> np.ndarray:
    counts = np.bincount(labels, minlength=k).astype(np.float64)
    return counts / counts.sum()


@dataclass
class SampleResult:
    profiles: ProfileSet
    clamp_count: int


def sample(model: GmmModel, n: int, seed: int) -> SampleResult:
    """Draw n rows: component by weight, then a diagonal Gaussian draw.

    The rows' horizon is the one whose length is the model's width.
    Negative kWh values are clamped to zero and counted. The same seed
    always reproduces the same output.
    """
    if n < 1:
        raise InvalidConfig(f"n must be at least 1, got {n}")
    try:
        horizon = Horizon(model.n_dims)
    except ValueError:
        raise DimensionMismatch(f"model width {model.n_dims} matches no known horizon") from None
    rng = np.random.default_rng(seed)
    components = rng.choice(model.k, size=n, p=model.weights / model.weights.sum())
    noise = rng.standard_normal((n, model.n_dims))
    # means[c] + sqrt(variances[c]) * noise with two n x L arrays live at a time;
    # IEEE products and sums commute, so each step gives the expression's bits
    scaled = model.variances[components]
    np.sqrt(scaled, out=scaled)
    scaled *= noise
    del noise
    values = model.means[components]
    values += scaled
    del scaled
    clamp_count = int((values < 0).sum())
    np.maximum(values, 0.0, out=values)
    return SampleResult(profiles=generated(values, "gmm", horizon), clamp_count=clamp_count)

