from __future__ import annotations

import numpy as np
import pytest

from synthmeter.errors import HorizonMismatch, SynthmeterError
from synthmeter.poisoning import (
    OutlierSpec,
    inject,
    make_attack_registry,
    make_outliers,
    read_registry,
    write_registry,
)
from synthmeter.profiles import Horizon

class TestMakeOutliers:
    def test_sigma_zero_every_slot_mu(self):
        out = make_outliers(OutlierSpec(count=5, mu=6.0, sigma=0.0, seed=0), Horizon.DAILY)
        np.testing.assert_array_equal(out.values, np.full((5, 48), 6.0))

    def test_implausible_daily_total(self):
        out = make_outliers(OutlierSpec(count=100, mu=6.0, sigma=1.0, seed=1), Horizon.DAILY)
        assert out.values.sum(axis=1).mean() == pytest.approx(288.0, abs=3.0)

    def test_grand_mean_clt_bound(self):
        out = make_outliers(OutlierSpec(count=100, mu=6.0, sigma=1.0, seed=2), Horizon.DAILY)
        assert abs(out.values.mean() - 6.0) <= 3.0 / np.sqrt(4800)

    def test_clamping_negligible_for_default_spec(self):
        out = make_outliers(OutlierSpec(count=100, mu=6.0, sigma=1.0, seed=3), Horizon.DAILY)
        assert np.all(out.values > 0)  # a clamp would be a six-sigma event


class TestInject:
    def test_empty_injection_returns_train(self, small_population):
        outliers = make_outliers(OutlierSpec(count=1, seed=0), Horizon.DAILY)
        empty = outliers.subset([])
        assert inject(small_population, empty, seed=0) is small_population

    def test_sizes_and_mean_shift(self, small_population):
        outliers = make_outliers(OutlierSpec(count=100, mu=6.0, sigma=1.0, seed=4), Horizon.DAILY)
        poisoned = inject(small_population, outliers, seed=1)
        n_train, n_out = len(small_population), 100
        assert len(poisoned) == n_train + n_out
        expected_mean = (
            n_out * outliers.values.mean() + n_train * small_population.values.mean()
        ) / (n_train + n_out)
        assert poisoned.values.mean() == pytest.approx(expected_mean, abs=1e-12)

    def test_injected_rows_recoverable_bit_exact(self, small_population):
        outliers = make_outliers(OutlierSpec(count=10, seed=5), Horizon.DAILY)
        poisoned = inject(small_population, outliers, seed=2)
        by_id = {hid: i for i, hid in enumerate(poisoned.household_ids)}
        for j, hid in enumerate(outliers.household_ids):
            np.testing.assert_array_equal(poisoned.values[by_id[hid]], outliers.values[j])

    def test_original_not_mutated(self, small_population):
        before = small_population.values.copy()
        outliers = make_outliers(OutlierSpec(count=5, seed=6), Horizon.DAILY)
        inject(small_population, outliers, seed=3)
        np.testing.assert_array_equal(small_population.values, before)

    def test_horizon_mismatch(self, small_population):
        outliers = make_outliers(OutlierSpec(count=5, seed=0), Horizon.WEEKLY)
        with pytest.raises(HorizonMismatch):
            inject(small_population, outliers, seed=0)


class TestAttackRegistry:
    def test_default_sizes_and_labels(self):
        registry = make_attack_registry(OutlierSpec(count=100, seed=7), Horizon.DAILY)
        attack, truth = registry.attack_set()
        assert len(attack) == 300
        assert truth.sum() == 100
        assert truth[:100].all() and not truth[100:].any()

    def test_count_one_scales(self):
        registry = make_attack_registry(OutlierSpec(count=1, seed=0), Horizon.DAILY)
        attack, _ = registry.attack_set()
        assert len(attack) == 3

    def test_diff_distribution_default_doubles_mu(self):
        registry = make_attack_registry(OutlierSpec(count=50, mu=6.0, sigma=1.0, seed=8), Horizon.DAILY)
        assert registry.unseen_diff_dist.values.mean() == pytest.approx(12.0, abs=0.1)

    def test_diff_mu_sets_only_the_third_group(self):
        spec = OutlierSpec(count=50, mu=6.0, sigma=1.0, seed=8)
        default = make_attack_registry(spec, Horizon.DAILY)
        np.testing.assert_array_equal(
            make_attack_registry(spec, Horizon.DAILY, diff_mu=12.0).unseen_diff_dist.values,
            default.unseen_diff_dist.values,
        )
        moved = make_attack_registry(spec, Horizon.DAILY, diff_mu=9.0)
        np.testing.assert_array_equal(moved.seen_outliers.values, default.seen_outliers.values)
        np.testing.assert_array_equal(moved.unseen_same_dist.values, default.unseen_same_dist.values)
        # the same draws, shifted by the change of mean (no row reaches the clamp at zero)
        np.testing.assert_allclose(moved.unseen_diff_dist.values, default.unseen_diff_dist.values - 3.0)

    def test_seen_and_unseen_share_no_rows(self):
        registry = make_attack_registry(OutlierSpec(count=100, seed=9), Horizon.DAILY)
        seen = {tuple(r) for r in registry.seen_outliers.values}
        unseen = {tuple(r) for r in registry.unseen_same_dist.values}
        assert not (seen & unseen)

    def test_three_groups_disjoint(self):
        registry = make_attack_registry(OutlierSpec(count=30, seed=10), Horizon.DAILY)
        groups = [
            {tuple(r) for r in registry.seen_outliers.values},
            {tuple(r) for r in registry.unseen_same_dist.values},
            {tuple(r) for r in registry.unseen_diff_dist.values},
        ]
        for i in range(3):
            for j in range(i + 1, 3):
                assert not (groups[i] & groups[j])

    def test_registry_round_trip(self, tmp_path):
        registry = make_attack_registry(OutlierSpec(count=20, seed=11), Horizon.DAILY)
        path = tmp_path / "registry.csv"
        write_registry(registry, path)
        loaded = read_registry(path, horizon=Horizon.DAILY)
        np.testing.assert_array_equal(loaded.seen_outliers.values, registry.seen_outliers.values)
        np.testing.assert_array_equal(
            loaded.unseen_diff_dist.values, registry.unseen_diff_dist.values
        )
        _, truth = loaded.attack_set()
        assert truth.sum() == 20

    def test_unknown_group_named_by_household_after_a_blank_line(self, tmp_path):
        path = tmp_path / "registry.csv"
        write_registry(make_attack_registry(OutlierSpec(count=5, seed=12), Horizon.DAILY), path)
        lines = path.read_text().splitlines(keepends=True)
        lines.insert(3, "\n")  # read_wide skips a blank line
        household = lines[5].split(",")[0]
        lines[5] = lines[5].replace(",seen,", ",bogus,", 1)  # file line 6, the fourth data row
        path.write_text("".join(lines))
        with pytest.raises(SynthmeterError) as excinfo:
            read_registry(path, horizon=Horizon.DAILY)
        assert str(excinfo.value) == f"{path}: unknown registry group 'bogus' (household {household})"
