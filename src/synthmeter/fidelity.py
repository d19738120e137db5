"""The five fidelity metrics over a (real, synthetic) dataset pair.

1. MMD between per-profile autocorrelation rows.
2. Per-slot mean/quantile deviation sums (kWh) plus raw-profile MMD.
3. MMD between peak-masked profiles.
4. KL divergence between mixture cluster-label distributions.
5. Cluster-total comparisons: count-normalised MAE/RMSE plus ACF and
   peak MMDs over cluster-total profiles.

One mixture model is fit on the real set per evaluation and reused for
metrics 4 and 5.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import gmm, kernels
from .errors import DegenerateInput, InvalidConfig, check_known
from .profiles import ProfileSet, require_same_horizon


@dataclass(frozen=True)
class FidelityConfig:
    acf_max_lag: int = 24
    quantiles: tuple[float, ...] = (0.5, 0.95)
    peaks_n: int = 4
    clusters_k: int = 25
    mmd_bandwidth: float | str = kernels.MEDIAN_HEURISTIC
    kl_smoothing: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.acf_max_lag < 1 or self.peaks_n < 1 or self.clusters_k < 1:
            raise InvalidConfig("acf_max_lag, peaks_n and clusters_k must be positive")
        for q in self.quantiles:
            if not (0.0 < q < 1.0):
                raise InvalidConfig(f"quantiles must be in (0, 1), got {q}")
        if self.kl_smoothing < 0:
            raise InvalidConfig("kl_smoothing must be non-negative")
        bandwidth = self.mmd_bandwidth
        if bandwidth != kernels.MEDIAN_HEURISTIC and not (
            isinstance(bandwidth, (int, float))
            and not isinstance(bandwidth, bool)
            and math.isfinite(bandwidth)
            and bandwidth > 0
        ):
            raise InvalidConfig(
                f"mmd_bandwidth must be {kernels.MEDIAN_HEURISTIC!r} or a positive finite number,"
                f" got {bandwidth!r}"
            )

    @classmethod
    def from_options(cls, options: dict, seed: int) -> FidelityConfig:
        """Config from a JSON mapping (a manifest section or a CLI config
        file); absent keys keep their defaults, unknown keys are rejected."""
        check_known("fidelity option", options, (f.name for f in fields(cls) if f.name != "seed"))
        defaults = cls()
        try:
            return cls(
                acf_max_lag=int(options.get("acf_max_lag", defaults.acf_max_lag)),
                quantiles=tuple(float(q) for q in options.get("quantiles", defaults.quantiles)),
                peaks_n=int(options.get("peaks_n", defaults.peaks_n)),
                clusters_k=int(options.get("clusters_k", defaults.clusters_k)),
                mmd_bandwidth=options.get("mmd_bandwidth", defaults.mmd_bandwidth),
                kl_smoothing=float(options.get("kl_smoothing", defaults.kl_smoothing)),
                seed=seed,
            )
        except InvalidConfig:
            raise
        except (TypeError, ValueError) as exc:  # a value int() or float() cannot convert
            raise InvalidConfig(f"fidelity options: {exc}") from None


@dataclass
class AggregatedFidelity:
    cluster_total_mae: float
    cluster_total_rmse: float
    aggregated_acf_mmd: float | None
    aggregated_peaks_mmd: float | None
    clusters_used: int
    empty_synthetic_clusters: int
    empty_real_clusters: int


@dataclass
class FidelityReport:
    acf_mmd: float
    mean_deviation_sum: float
    quantile_deviation_sums: dict[float, float]
    profile_mmd: float
    peaks_mmd: float
    cluster_kl: float
    aggregated: AggregatedFidelity
    exclusion_counts: dict[str, int] = field(default_factory=dict)
    # per-slot mean and quantile rows (real, synthetic) behind the deviation
    # sums, kept for the side table; not part of the report
    slot_statistics: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    def as_dict(self) -> dict:
        return {
            "acf_mmd": self.acf_mmd,
            "mean_deviation_sum": self.mean_deviation_sum,
            "quantile_deviation_sums": {str(q): v for q, v in self.quantile_deviation_sums.items()},
            "profile_mmd": self.profile_mmd,
            "peaks_mmd": self.peaks_mmd,
            "cluster_kl": self.cluster_kl,
            "aggregated": asdict(self.aggregated),
            "exclusion_counts": dict(self.exclusion_counts),
        }


def acf_fidelity(real: ProfileSet, synthetic: ProfileSet, config: FidelityConfig) -> float:
    """MMD between the two sets of per-profile autocorrelation rows."""
    require_same_horizon(real, synthetic)
    acf_real = kernels.acf(real, config.acf_max_lag)
    acf_syn = kernels.acf(synthetic, config.acf_max_lag)
    if len(acf_real.coefficients) < 2 or len(acf_syn.coefficients) < 2:
        raise DegenerateInput("need at least 2 nonzero-variance profiles per set")
    return kernels.mmd2_rbf(acf_real.coefficients, acf_syn.coefficients, config.mmd_bandwidth).mmd2


def deviation_sums(
    real: ProfileSet, synthetic: ProfileSet, config: FidelityConfig
) -> tuple[float, dict[float, float]]:
    """Sum over slots of |real stat - synthetic stat| for mean and quantiles (kWh)."""
    require_same_horizon(real, synthetic)
    return _deviation_sums(_slot_statistics(real, synthetic, config), config)


def _slot_statistics(
    real: ProfileSet, synthetic: ProfileSet, config: FidelityConfig
) -> tuple[np.ndarray, np.ndarray]:
    quantiles = list(config.quantiles)
    return kernels.per_slot_statistics(real, quantiles), kernels.per_slot_statistics(synthetic, quantiles)


def _deviation_sums(
    statistics: tuple[np.ndarray, np.ndarray], config: FidelityConfig
) -> tuple[float, dict[float, float]]:
    stats_real, stats_syn = statistics
    diffs = np.abs(stats_real - stats_syn).sum(axis=1)
    mean_sum = float(diffs[0])
    quantile_sums = {q: float(diffs[1 + i]) for i, q in enumerate(config.quantiles)}
    return mean_sum, quantile_sums


def peaks_fidelity(real: ProfileSet, synthetic: ProfileSet, config: FidelityConfig) -> float:
    """MMD between peak-masked profile sets (top peaks_n slots kept in place)."""
    require_same_horizon(real, synthetic)
    masked_real = kernels.peak_mask(real, config.peaks_n)
    masked_syn = kernels.peak_mask(synthetic, config.peaks_n)
    return kernels.mmd2_rbf(masked_real, masked_syn, config.mmd_bandwidth).mmd2


def cluster_fidelity(
    real: ProfileSet,
    synthetic: ProfileSet,
    config: FidelityConfig,
    model: gmm.GmmModel | None = None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """KL(real label distribution || synthetic label distribution).

    The mixture is fit on the real set unless a pre-fit model is passed.
    Returns (kl, real_distribution, synthetic_distribution).
    """
    require_same_horizon(real, synthetic)
    if model is None:
        model = fit_cluster_model(real, config)
    return _cluster_kl(model.k, _cluster_labels(model, real, synthetic), config)


def _cluster_labels(
    model: gmm.GmmModel, real: ProfileSet, synthetic: ProfileSet
) -> tuple[np.ndarray, np.ndarray]:
    return gmm.predict(model, real).labels, gmm.predict(model, synthetic).labels


def _cluster_kl(
    k: int, labels: tuple[np.ndarray, np.ndarray], config: FidelityConfig
) -> tuple[float, np.ndarray, np.ndarray]:
    dist_real = gmm.label_distribution(labels[0], k)
    dist_syn = gmm.label_distribution(labels[1], k)
    kl = kernels.kl_divergence(dist_real, dist_syn, smoothing=config.kl_smoothing)
    return kl, dist_real, dist_syn


def fit_cluster_model(real: ProfileSet, config: FidelityConfig) -> gmm.GmmModel:
    fit_config = gmm.FitConfig(k=config.clusters_k, seed=config.seed)
    return gmm.fit(real, fit_config)


def aggregated_fidelity(
    real: ProfileSet,
    synthetic: ProfileSet,
    config: FidelityConfig,
    model: gmm.GmmModel | None = None,
) -> AggregatedFidelity:
    """Compare per-cluster total consumption profiles.

    Synthetic cluster totals are rescaled by (real count / synthetic
    count) so the comparison measures shape, not dataset size. Clusters
    empty on either side are excluded and counted. The cluster-total ACF
    and peak MMDs need at least two usable clusters; with fewer they are
    reported as None.
    """
    require_same_horizon(real, synthetic)
    if model is None:
        model = fit_cluster_model(real, config)
    return _aggregate(real, synthetic, model.k, _cluster_labels(model, real, synthetic), config)


def _aggregate(
    real: ProfileSet,
    synthetic: ProfileSet,
    k: int,
    labels: tuple[np.ndarray, np.ndarray],
    config: FidelityConfig,
) -> AggregatedFidelity:
    labels_real, labels_syn = labels
    totals_real, totals_syn = [], []
    empty_syn = empty_real = 0
    for c in range(k):
        rows_real = labels_real == c
        rows_syn = labels_syn == c
        n_real = int(rows_real.sum())
        n_syn = int(rows_syn.sum())
        if n_real == 0:
            empty_real += 1
            continue
        if n_syn == 0:
            empty_syn += 1
            continue
        totals_real.append(real.values[rows_real].sum(axis=0))
        totals_syn.append(synthetic.values[rows_syn].sum(axis=0) * (n_real / n_syn))
    if not totals_real:
        raise DegenerateInput("no cluster is populated on both sides")
    real_mat = np.stack(totals_real)
    syn_mat = np.stack(totals_syn)
    diff = np.abs(real_mat - syn_mat)
    mae = float(diff.mean())
    rmse = float(np.sqrt((diff * diff).mean()))

    acf_mmd = peaks_mmd = None
    if len(real_mat) >= 2:
        acf_real = kernels.acf(real_mat, config.acf_max_lag)
        acf_syn = kernels.acf(syn_mat, config.acf_max_lag)
        if len(acf_real.coefficients) >= 2 and len(acf_syn.coefficients) >= 2:
            acf_mmd = kernels.mmd2_rbf(
                acf_real.coefficients, acf_syn.coefficients, config.mmd_bandwidth
            ).mmd2
        peaks_mmd = kernels.mmd2_rbf(
            kernels.peak_mask(real_mat, config.peaks_n),
            kernels.peak_mask(syn_mat, config.peaks_n),
            config.mmd_bandwidth,
        ).mmd2
    return AggregatedFidelity(
        cluster_total_mae=mae,
        cluster_total_rmse=rmse,
        aggregated_acf_mmd=acf_mmd,
        aggregated_peaks_mmd=peaks_mmd,
        clusters_used=len(totals_real),
        empty_synthetic_clusters=empty_syn,
        empty_real_clusters=empty_real,
    )


def evaluate_fidelity(
    real: ProfileSet, synthetic: ProfileSet, config: FidelityConfig
) -> FidelityReport:
    """Run all five metrics with one shared mixture fit on the real set."""
    require_same_horizon(real, synthetic)
    acf_real = kernels.acf(real, config.acf_max_lag)
    acf_syn = kernels.acf(synthetic, config.acf_max_lag)
    if len(acf_real.coefficients) < 2 or len(acf_syn.coefficients) < 2:
        raise DegenerateInput("need at least 2 nonzero-variance profiles per set")
    acf_mmd = kernels.mmd2_rbf(
        acf_real.coefficients, acf_syn.coefficients, config.mmd_bandwidth
    ).mmd2
    slot_statistics = _slot_statistics(real, synthetic, config)
    mean_sum, quantile_sums = _deviation_sums(slot_statistics, config)
    profile_mmd = kernels.mmd2_rbf(real.values, synthetic.values, config.mmd_bandwidth).mmd2
    peaks_mmd = peaks_fidelity(real, synthetic, config)
    model = fit_cluster_model(real, config)
    labels = _cluster_labels(model, real, synthetic)
    cluster_kl, _, _ = _cluster_kl(model.k, labels, config)
    aggregated = _aggregate(real, synthetic, model.k, labels, config)
    return FidelityReport(
        acf_mmd=acf_mmd,
        mean_deviation_sum=mean_sum,
        quantile_deviation_sums=quantile_sums,
        profile_mmd=profile_mmd,
        peaks_mmd=peaks_mmd,
        cluster_kl=cluster_kl,
        aggregated=aggregated,
        exclusion_counts={
            "acf_zero_variance_real": acf_real.excluded_zero_variance,
            "acf_zero_variance_synthetic": acf_syn.excluded_zero_variance,
            "aggregation_empty_synthetic_clusters": aggregated.empty_synthetic_clusters,
            "aggregation_empty_real_clusters": aggregated.empty_real_clusters,
        },
        slot_statistics=slot_statistics,
    )
