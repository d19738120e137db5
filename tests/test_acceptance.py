"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. Fixtures are seeded and
self-contained; generator controls use the bundled demo population at the
sizes stated inline.
"""

from __future__ import annotations

import datetime as dt
import math
import time

import numpy as np
import pytest

from synthmeter import cli, demo, fidelity, gmm, kernels, nnet, privacy, report, utility
from synthmeter.generators import MemorizerConfig, gmm_generate, memorizer_generate
from synthmeter.poisoning import OutlierSpec, inject, make_attack_registry
from synthmeter.profiles import Horizon, ProfileSet, Role, SplitSpec, split_households

from conftest import profile_set
from test_nnet import gradient_check


def criterion(number: int, description: str, checks: dict[str, bool]) -> None:
    status = "PASS" if all(checks.values()) else "FAIL"
    detail = ", ".join(f"{name}={'ok' if ok else 'FAIL'}" for name, ok in checks.items())
    print(f"\ncriterion {number:02d} [{status}] {description}: {detail}")
    assert all(checks.values()), f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def poisoned_5k():
    """5k-profile fixture shared by criteria 6 and 7.

    Returns ``(poisoned, holdout, registry, clean)``: the 5k demo population
    with the registry's 100 seen N(6,1) outliers injected, a disjoint holdout
    population, the attack registry, and the same 5k population before
    injection (what a generator that owes nothing to the outliers is fit on).
    """
    clean = demo.make_population(500, 10, seed=42)
    holdout = demo.make_population(250, 10, seed=77)
    spec = OutlierSpec(count=100, mu=6.0, sigma=1.0, seed=11)
    registry = make_attack_registry(spec, Horizon.DAILY)
    poisoned = inject(clean, registry.seen_outliers, seed=5)
    return poisoned, holdout, registry, clean


def test_criterion_01_distance_and_mmd_oracles():
    rng = np.random.default_rng(1001)
    nn_exact = True
    for _ in range(100):
        n = int(rng.integers(5, 501))
        m = int(rng.integers(5, 501))
        q = rng.normal(0.3, 0.25, size=(n, 48))
        r = rng.normal(0.3, 0.25, size=(m, 48))
        result = kernels.nearest_neighbor_distances(q, r)
        for i in rng.choice(n, size=min(n, 40), replace=False):
            d = np.sqrt(((q[i] - r) ** 2).sum(axis=1))
            j = d.argmin()
            if result.nn_distance[i] != d[j] or result.nn_index[i] != j:
                nn_exact = False

    def triple_loop(x, y, bw):
        k = lambda a, b: math.exp(-float(np.sum((a - b) ** 2)) / (2.0 * bw * bw))
        m_, n_ = len(x), len(y)
        k_xx = sum(k(x[i], x[j]) for i in range(m_) for j in range(m_)) / (m_ * m_)
        k_yy = sum(k(y[i], y[j]) for i in range(n_) for j in range(n_)) / (n_ * n_)
        k_xy = sum(k(x[i], y[j]) for i in range(m_) for j in range(n_)) / (m_ * n_)
        return k_xx + k_yy - 2.0 * k_xy

    mmd_ok = True
    for m_, n_ in ((60, 90), (200, 140), (25, 200)):
        x = rng.normal(size=(m_, 8))
        y = rng.normal(0.4, 1.1, size=(n_, 8))
        ours = kernels.mmd2_rbf(x, y, bandwidth=1.3).mmd2
        mmd_ok &= abs(ours - triple_loop(x, y, 1.3)) <= 1e-12

    q = rng.normal(0.3, 0.2, size=(2000, 48))
    r = rng.normal(0.3, 0.2, size=(2000, 48))
    start = time.perf_counter()
    kernels.nearest_neighbor_distances(q, r)
    elapsed = time.perf_counter() - start

    criterion(
        1,
        "oracle equivalence, distances & MMD",
        {
            "nn_bit_exact_100_instances": nn_exact,
            "mmd_triple_loop_1e-12": mmd_ok,
            "nn_2000x2000x48_under_1s": elapsed <= 1.0,
        },
    )


def test_criterion_02_ks_correctness():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(1002)
    agree = True
    for _ in range(50):
        a = rng.normal(size=int(rng.integers(50, 400)))
        b = rng.normal(loc=rng.uniform(-1, 1), size=int(rng.integers(50, 400)))
        ours = kernels.ks_one_tailed(a, b)
        reference = scipy_stats.ks_2samp(a, b, alternative="greater")
        agree &= abs(ours.statistic - reference.statistic) < 1e-10
    x = rng.normal(size=100)
    identical = kernels.ks_one_tailed(x, x.copy())
    criterion(
        2,
        "one-sided KS statistic",
        {
            "matches_reference_50_pairs_1e-10": agree,
            "identical_inputs_exact_(0,1)": identical.statistic == 0.0 and identical.p_value == 1.0,
        },
    )


def test_criterion_03_acf_closed_forms():
    alternating = np.tile([1.0, -1.0], 24)
    rho_1 = kernels.acf(alternating[None, :], max_lag=1).coefficients[0, 0]
    period, cycles = 4, 4_000_000
    t = np.arange(period * cycles)
    sine = np.sin(2 * np.pi * (t % period) / period)
    rho_period = kernels.acf(sine[None, :], max_lag=period).coefficients[0, period - 1]
    criterion(
        3,
        "ACF closed forms",
        {
            "alternating_rho1_-47/48_1e-12": abs(rho_1 - (-47.0 / 48.0)) <= 1e-12,
            "sine_full_period_rho_1_1e-6": abs(rho_period - 1.0) <= 1e-6,
        },
    )


def test_criterion_04_em_soundness():
    rng = np.random.default_rng(1004)
    monotone = True
    for seed in range(100):
        x = rng.normal(size=(80, 3))
        model = gmm.fit(x, gmm.FitConfig(k=3, seed=seed, n_init=1, max_iter=60))
        trace = model.log_likelihood_trace
        monotone &= all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))

    blob_rng = np.random.default_rng(1234)
    blobs = np.vstack(
        [
            blob_rng.normal((0.0, 0.0), 0.5, size=(200, 2)),
            blob_rng.normal((10.0, 10.0), 0.5, size=(200, 2)),
        ]
    )
    model = gmm.fit(blobs, gmm.FitConfig(k=2, seed=3))
    order = np.argsort(model.means[:, 0])
    means_ok = bool(
        np.all(np.abs(model.means[order] - np.array([[0.0, 0.0], [10.0, 10.0]])) <= 0.2)
    )
    weights_ok = bool(np.all(np.abs(model.weights - 0.5) <= 0.05))
    criterion(
        4,
        "EM soundness",
        {
            "monotone_ll_100_fits_1e-9": monotone,
            "blob_means_within_0.2": means_ok,
            "blob_weights_within_0.05": weights_ok,
        },
    )


def test_criterion_05_gradient_fidelity():
    rng = np.random.default_rng(1005)
    bce_ok = mse_ok = pinball_ok = True
    for seed in range(20):
        x = rng.normal(size=(12, 2))
        model_s = nnet.init_model([2, 4, 1], head=nnet.SIGMOID, seed=seed)
        y_binary = rng.integers(0, 2, size=12).astype(float)
        bce_ok &= gradient_check(model_s, nnet.TrainConfig(loss=nnet.BCE), x, y_binary) < 1e-4

        model_l = nnet.init_model([2, 4, 1], head=nnet.LINEAR, seed=seed)
        y_real = rng.normal(size=12)
        mse_ok &= gradient_check(model_l, nnet.TrainConfig(loss=nnet.MSE), x, y_real) < 1e-4

        # pinball off-kink: |y - logit| = 1 >> finite-difference step
        logits = np.atleast_1d(nnet.logits(model_l, x))
        y_off = logits + np.where(rng.random(12) > 0.5, 1.0, -1.0)
        pinball_ok &= (
            gradient_check(
                model_l, nnet.TrainConfig(loss=nnet.PINBALL, pinball_q=0.95), x, y_off
            )
            < 1e-4
        )
    criterion(
        5,
        "gradient fidelity (20 random small networks)",
        {"bce": bce_ok, "mse": mse_ok, "pinball_off_kink": pinball_ok},
    )


def test_criterion_06_poisoned_reconstruction_controls(poisoned_5k):
    poisoned, _, registry, clean = poisoned_5k
    start = time.perf_counter()
    config = privacy.ReconstructionConfig(synthetic_sample_size=5000)

    memorized = memorizer_generate(poisoned, 4 * len(poisoned), MemorizerConfig(0.01, seed=1))
    mem_result = privacy.reconstruction_poisoned(
        registry, memorized, privacy.ReconstructionConfig(synthetic_sample_size=len(memorized))
    )

    # negative control: a mixture that never saw the outliers
    clean_fit = privacy.reconstruction_poisoned(
        registry, gmm_generate(clean, 5000, gmm.FitConfig(k=25, seed=3)), config
    )
    # fit on the poisoned set, the mixture resamples the outliers' distribution,
    # which is the leak the attack is designed to expose
    poisoned_fit = privacy.reconstruction_poisoned(
        registry, gmm_generate(poisoned, 5000, gmm.FitConfig(k=25, seed=3)), config
    )
    elapsed = time.perf_counter() - start

    curves = [
        [result.fraction_reconstructed[r] for r in sorted(result.fraction_reconstructed)]
        for result in (mem_result, clean_fit, poisoned_fit)
    ]
    criterion(
        6,
        "poisoned reconstruction controls on the 5k fixture "
        "(memorizer and poisoned-fit mixture flagged, clean-fit mixture not)",
        {
            "memorizer_jitter0.01_>=95%_at_r0.1": mem_result.fraction_reconstructed[0.1] >= 0.95,
            "clean_fit_gmm_sampler_<=5%_at_r0.3": clean_fit.fraction_reconstructed[0.3] <= 0.05,
            "poisoned_fit_gmm_sampler_>=95%_at_r0.3": poisoned_fit.fraction_reconstructed[0.3]
            >= 0.95,
            "cdf_monotone": all(
                all(a <= b for a, b in zip(curve, curve[1:])) for curve in curves
            ),
            "runtime_under_2min": elapsed <= 120.0,
        },
    )


def test_criterion_07_poisoned_mia_controls(poisoned_5k):
    poisoned, holdout, registry, _ = poisoned_5k
    attack, truth = registry.attack_set()

    rng = np.random.default_rng(1007)
    random_precisions = [
        privacy.top_fraction_precision(rng.random(len(attack)), truth) for _ in range(50)
    ]
    random_ok = abs(float(np.mean(random_precisions)) - 1.0 / 3.0) <= 0.06

    # sequential: sampling with replacement never emits about a third of the seen outliers
    memorized = memorizer_generate(
        poisoned, len(poisoned), MemorizerConfig(0.0, seed=1, sequential=True)
    )
    mem = privacy.mia_poisoned(registry, memorized, holdout, seed=2)

    sampled = gmm_generate(poisoned, 5000, gmm.FitConfig(k=25, seed=3))
    smooth = privacy.mia_poisoned(registry, sampled, holdout, seed=2)

    # with a 100/100/100 registry the positive count equals the true count,
    # so precision and recall coincide by construction
    scores = rng.random(len(attack))
    picked = np.lexsort((np.arange(len(attack)), -scores))[: int(np.ceil(len(attack) / 3))]
    precision_eq_recall = (truth[picked].sum() / len(picked)) == (truth[picked].sum() / truth.sum())

    criterion(
        7,
        "poisoned MIA controls (300-row attack set)",
        {
            "random_discriminator_1/3pm0.06_50seeds": random_ok,
            "memorizer_precision_>=0.9": mem.precision >= 0.9,
            "gmm_sampler_precision_<=0.45": smooth.precision <= 0.45,
            "precision_equals_recall": bool(precision_eq_recall),
        },
    )


def test_criterion_08_plain_mia_and_ks_sanity():
    # negative control: near-interchangeable households, generator fit on train
    population = demo.make_population(600, 5, seed=100, spread=0.1)
    in_band = p_clear = 0
    for seed in range(20):
        train, holdout = split_households(population, SplitSpec(holdout_fraction=0.5, seed=seed))
        synthetic = gmm_generate(train, len(train), gmm.FitConfig(k=25, seed=seed))
        ks = privacy.reconstruction_ks(train, holdout, synthetic, seed=seed)
        mia = privacy.mia_plain(train, holdout, synthetic, seed=seed)
        p_clear += ks.p_value > 0.05
        in_band += 0.45 <= mia.precision <= 0.55

    # positive control: diverse households, verbatim regurgitation
    diverse = demo.make_population(400, 5, seed=100, spread=1.0)
    train, holdout = split_households(diverse, SplitSpec(holdout_fraction=0.5, seed=0))
    memorized = memorizer_generate(train, len(train), MemorizerConfig(0.0, seed=0))
    ks_mem = privacy.reconstruction_ks(train, holdout, memorized, seed=0)
    mia_mem = privacy.mia_plain(train, holdout, memorized, seed=0)

    criterion(
        8,
        "plain MIA / KS sanity controls",
        {
            "negative_ks_p>0.05_in_90%_of_20": p_clear >= 18,
            "negative_precision_0.5pm0.05_in_90%_of_20": in_band >= 18,
            "memorizer_ks_p<0.01": ks_mem.p_value < 0.01,
            "memorizer_precision_>=0.7": mia_mem.precision >= 0.7,
        },
    )


def test_criterion_09_fidelity_identity_and_monotonicity():
    real = demo.make_population(120, 10, seed=21)
    config = fidelity.FidelityConfig(clusters_k=25, seed=0)
    identity = fidelity.evaluate_fidelity(real, real.with_role(Role.SYNTHETIC), config)
    identity_ok = (
        abs(identity.acf_mmd) <= 1e-10
        and identity.mean_deviation_sum <= 1e-9
        and all(v <= 1e-9 for v in identity.quantile_deviation_sums.values())
        and abs(identity.profile_mmd) <= 1e-10
        and abs(identity.peaks_mmd) <= 1e-10
        and abs(identity.cluster_kl) <= 1e-9
        and identity.aggregated.cluster_total_mae <= 1e-9
        and identity.aggregated.cluster_total_rmse <= 1e-9
    )

    rng = np.random.default_rng(3)
    previous_profile = previous_peaks = -1.0
    monotone = True
    for sigma in (0.05, 0.1, 0.2):
        jittered = profile_set(
            np.maximum(real.values + rng.normal(0, sigma, real.values.shape), 0.0),
            role=Role.SYNTHETIC,
        )
        profile_mmd = kernels.mmd2_rbf(real.values, jittered.values).mmd2
        peaks_mmd = kernels.mmd2_rbf(
            kernels.peak_mask(real, config.peaks_n), kernels.peak_mask(jittered, config.peaks_n), config.mmd_bandwidth
        ).mmd2
        monotone &= profile_mmd > previous_profile and peaks_mmd > previous_peaks
        previous_profile, previous_peaks = profile_mmd, peaks_mmd

    criterion(
        9,
        "fidelity identity and monotone degradation",
        {"identity_zero": identity_ok, "jitter_strictly_increases_mmd": monotone},
    )


def test_criterion_10_tstr_controls():
    fit = demo.make_population(120, 10, seed=31, day_step=36)
    evaluation = demo.make_population(60, 10, seed=32, day_step=36, start=dt.date(2014, 1, 2))

    classify = utility.tstr_classify(
        fit, fit.with_role(Role.SYNTHETIC), evaluation, nnet.TrainConfig(loss=nnet.BCE, seed=0)
    )
    forecast = utility.tstr_forecast_mean(
        fit, fit.with_role(Role.SYNTHETIC), evaluation, nnet.TrainConfig(loss=nnet.MSE, seed=0)
    )
    quantile = utility.tstr_forecast_quantile(
        fit,
        fit.with_role(Role.SYNTHETIC),
        evaluation,
        nnet.TrainConfig(loss=nnet.PINBALL, pinball_q=0.95, seed=0),
    )
    same_data_ok = (
        classify.absolute_gap <= 0.02
        and forecast.absolute_gap <= 0.05 * forecast.score_real_trained
        and quantile.absolute_gap <= 0.05 * quantile.score_real_trained
    )

    rng = np.random.default_rng(1010)
    destroyed_values = fit.values.copy()
    destroyed_values[:, 47] = rng.permutation(destroyed_values[:, 47])
    destroyed = ProfileSet(
        values=destroyed_values,
        household_ids=fit.household_ids,
        start_dates=fit.start_dates,
        horizon=fit.horizon,
        role=Role.SYNTHETIC,
        labels=fit.labels,
    )
    damaged = utility.tstr_forecast_mean(
        fit, destroyed, evaluation, nnet.TrainConfig(loss=nnet.MSE, seed=0)
    )
    criterion(
        10,
        "TSTR same-data and destroyed-relation controls",
        {
            "same_data_gaps_within_tolerance": same_data_ok,
            "destroyed_slot47_strictly_worse": damaged.score_synthetic_trained
            > damaged.score_real_trained,
        },
    )


def test_criterion_11_scale_free_radius():
    registry = make_attack_registry(OutlierSpec(count=100, mu=6.0, sigma=1.0, seed=11), Horizon.DAILY)
    rng = np.random.default_rng(1011)
    synthetic_values = np.maximum(rng.normal(5.0, 1.5, size=(400, 48)), 0.0)
    base = privacy.reconstruction_poisoned(
        registry,
        profile_set(synthetic_values, role=Role.SYNTHETIC),
        privacy.ReconstructionConfig(synthetic_sample_size=400),
    )
    stable = True
    for c in (0.5, 2.0, 10.0):
        scaled_registry = make_attack_registry(
            OutlierSpec(count=100, mu=6.0, sigma=1.0, seed=11), Horizon.DAILY
        )
        scaled_registry.seen_outliers = profile_set(
            registry.seen_outliers.values * c,
            role=Role.ATTACK,
            labels=registry.seen_outliers.labels,
            artificial=True,
        )
        scaled = privacy.reconstruction_poisoned(
            scaled_registry,
            profile_set(synthetic_values * c, role=Role.SYNTHETIC),
            privacy.ReconstructionConfig(synthetic_sample_size=400),
        )
        stable &= bool(
            np.all(
                np.abs(scaled.per_outlier_nn_distance_ratio - base.per_outlier_nn_distance_ratio)
                <= 1e-12
            )
        )
    criterion(11, "scale-free reconstruction radius", {"joint_scaling_invariant_1e-12": stable})


def test_criterion_12_end_to_end_reproducibility(tmp_path):
    start = time.perf_counter()
    manifest = cli.build_demo_workspace(tmp_path / "demo", seed=0)
    first = report.run_full_evaluation(manifest, output_dir=tmp_path / "run1")
    second = report.run_full_evaluation(manifest, output_dir=tmp_path / "run2")
    elapsed = time.perf_counter() - start

    lines_a = (tmp_path / "run1" / "report.json").read_text().splitlines()
    lines_b = (tmp_path / "run2" / "report.json").read_text().splitlines()
    body_identical = len(lines_a) == len(lines_b) and all(
        a == b for a, b in zip(lines_a, lines_b) if "timestamp" not in a
    )
    side_identical = all(
        (tmp_path / "run1" / side.name).read_bytes() == (tmp_path / "run2" / side.name).read_bytes()
        for side in first.side_files
    )
    criterion(
        12,
        "end-to-end reproducibility on the bundled demo",
        {
            "all_suites_completed": first.ok and second.ok,
            "reports_byte_identical_except_timestamp": body_identical,
            "side_files_byte_identical": side_identical,
            "runtime_under_10min": elapsed <= 600.0,
        },
    )
