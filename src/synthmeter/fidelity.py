"""The five fidelity metrics over a (real, synthetic) dataset pair.

1. MMD between per-profile autocorrelation rows.
2. Per-slot mean/quantile deviation sums (kWh) plus raw-profile MMD.
3. MMD between peak-masked profiles.
4. KL divergence between mixture cluster-label distributions.
5. Cluster-total comparisons: count-normalised MAE/RMSE plus ACF and
   peak MMDs over cluster-total profiles.

``evaluate_fidelity`` is the one entry: it computes all five, in this
order, and fits one mixture model on the real set for metrics 4 and 5.
Through ``kernels.run_together``, the fit runs on a helper thread while
metrics 1-3 run on the calling thread (whose MMD sweeps use ``kernels``'
workers); the caller's ``np.errstate`` holds on the helper too, and the
fit gives the bits of ``gmm.fit`` on the calling thread. An error of
metrics 1-3 is raised before the fit's (``TooFewRows`` among them).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gmm, kernels
from .errors import DegenerateInput, check_value
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
        check_value("quantiles", self.quantiles, len(set(self.quantiles)) == len(self.quantiles), "distinct")
        object.__setattr__(self, "quantiles", tuple(self.quantiles))  # a JSON list arrives as a list
        for key in ("acf_max_lag", "peaks_n", "clusters_k"):
            check_value(key, getattr(self, key), getattr(self, key) >= 1, "at least 1")
        for q in self.quantiles:
            check_value("quantiles", q, 0.0 < q < 1.0, "in (0, 1)")
        check_value("kl_smoothing", self.kl_smoothing, self.kl_smoothing >= 0, "non-negative")
        bandwidth = self.mmd_bandwidth
        number = isinstance(bandwidth, (int, float)) and not isinstance(bandwidth, bool)
        ok = bandwidth == kernels.MEDIAN_HEURISTIC or (number and kernels.usable_bandwidth(bandwidth))
        check_value(
            "mmd_bandwidth", bandwidth, ok,
            f"{kernels.MEDIAN_HEURISTIC!r} or a positive number with a finite nonzero 2 sigma^2",
        )


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
    # sums, kept for the side table; repr=False keeps them out of report.entry
    slot_statistics: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)


def _aggregate(
    real: ProfileSet,
    synthetic: ProfileSet,
    k: int,
    labels: tuple[np.ndarray, np.ndarray],
    config: FidelityConfig,
) -> AggregatedFidelity:
    """Compare per-cluster total consumption profiles.

    Synthetic cluster totals are rescaled by (real count / synthetic
    count) so the comparison measures shape, not dataset size. Clusters
    empty on either side are excluded and counted. The cluster-total ACF
    and peak MMDs need at least two usable clusters; with fewer they are
    reported as None.
    """
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
    bandwidth = config.mmd_bandwidth

    def metrics_1_to_3() -> tuple:
        # 1. ACF: MMD between the per-profile autocorrelation rows
        acf_real = kernels.acf(real, config.acf_max_lag)
        acf_syn = kernels.acf(synthetic, config.acf_max_lag)
        if len(acf_real.coefficients) < 2 or len(acf_syn.coefficients) < 2:
            raise DegenerateInput("need at least 2 nonzero-variance profiles per set")
        acf_mmd = kernels.mmd2_rbf(acf_real.coefficients, acf_syn.coefficients, bandwidth).mmd2
        # 2. per slot: sum over slots of |real stat - synthetic stat| for the
        # mean and each quantile (kWh), plus the raw-profile MMD
        quantiles = list(config.quantiles)
        stats_real = kernels.per_slot_statistics(real, quantiles)
        stats_syn = kernels.per_slot_statistics(synthetic, quantiles)
        profile_mmd = kernels.mmd2_rbf(real.values, synthetic.values, bandwidth).mmd2
        # 3. peaks: MMD between profiles with only their top peaks_n slots kept in place
        peaks_mmd = kernels.mmd2_rbf(
            kernels.peak_mask(real, config.peaks_n), kernels.peak_mask(synthetic, config.peaks_n), bandwidth
        ).mmd2
        return acf_real, acf_syn, acf_mmd, stats_real, stats_syn, profile_mmd, peaks_mmd

    fit_config = gmm.FitConfig(k=config.clusters_k, seed=config.seed)
    metrics, model = kernels.run_together([metrics_1_to_3, lambda: gmm._fit(real, fit_config)])
    acf_real, acf_syn, acf_mmd, stats_real, stats_syn, profile_mmd, peaks_mmd = metrics
    diffs = np.abs(stats_real - stats_syn).sum(axis=1)
    # 4. clusters: KL(real label distribution || synthetic label distribution)
    labels = gmm.predict(model, real).labels, gmm.predict(model, synthetic).labels
    cluster_kl = kernels.kl_divergence(
        gmm.label_distribution(labels[0], model.k),
        gmm.label_distribution(labels[1], model.k),
        smoothing=config.kl_smoothing,
    )
    # 5. cluster totals
    aggregated = _aggregate(real, synthetic, model.k, labels, config)
    return FidelityReport(
        acf_mmd=acf_mmd,
        mean_deviation_sum=float(diffs[0]),
        quantile_deviation_sums={q: float(diffs[1 + i]) for i, q in enumerate(config.quantiles)},
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
        slot_statistics=(stats_real, stats_syn),
    )
