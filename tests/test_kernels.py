from __future__ import annotations

import ast
import itertools
import math
import re
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from synthmeter import kernels
from synthmeter.errors import (
    DegenerateInput,
    HorizonMismatch,
    InsufficientSamples,
    LagTooLarge,
    RankDeficient,
    ZeroMass,
)

from conftest import profile_set


def brute_force_nn(query, reference):
    distances = np.empty(len(query))
    indices = np.empty(len(query), dtype=np.int64)
    for i, row in enumerate(query):
        d = np.sqrt(((row - reference) ** 2).sum(axis=1))
        indices[i] = d.argmin()
        distances[i] = d[indices[i]]
    return distances, indices


def triple_loop_mmd2(x, y, bandwidth):
    def k(a, b):
        return math.exp(-np.sum((a - b) ** 2) / (2.0 * bandwidth**2))

    m, n = len(x), len(y)
    k_xx = sum(k(x[i], x[j]) for i in range(m) for j in range(m)) / (m * m)
    k_yy = sum(k(y[i], y[j]) for i in range(n) for j in range(n)) / (n * n)
    k_xy = sum(k(x[i], y[j]) for i in range(m) for j in range(n)) / (m * n)
    return k_xx + k_yy - 2.0 * k_xy


class TestNearestNeighbor:
    def test_self_match_is_zero(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(30, 48))
        result = kernels.nearest_neighbor_distances(x, x)
        np.testing.assert_array_equal(result.nn_distance, np.zeros(30))
        np.testing.assert_array_equal(result.nn_index, np.arange(30))

    def test_hand_euclidean(self):
        query = np.array([[0.0, 0.0]])
        reference = np.array([[3.0, 4.0], [6.0, 8.0]])
        result = kernels.nearest_neighbor_distances(query, reference)
        assert result.nn_distance[0] == 5.0
        assert result.nn_index[0] == 0

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(7)
        q = rng.normal(0.3, 0.2, size=(50, 48))
        r = rng.normal(0.3, 0.2, size=(100, 48))
        result = kernels.nearest_neighbor_distances(q, r)
        expected_d, expected_i = brute_force_nn(q, r)
        np.testing.assert_array_equal(result.nn_distance, expected_d)
        np.testing.assert_array_equal(result.nn_index, expected_i)

    def test_tie_takes_first_index(self):
        query = np.array([[0.0, 0.0]])
        reference = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        result = kernels.nearest_neighbor_distances(query, reference)
        assert result.nn_index[0] == 0

    def test_duplicate_rows_exact(self):
        rng = np.random.default_rng(3)
        q = rng.normal(size=(40, 48))
        r = rng.normal(size=(60, 48))
        r[10] = q[5]
        r[20] = q[5]
        result = kernels.nearest_neighbor_distances(q, r)
        expected_d, expected_i = brute_force_nn(q, r)
        np.testing.assert_array_equal(result.nn_distance, expected_d)
        np.testing.assert_array_equal(result.nn_index, expected_i)

    def test_horizon_mismatch(self):
        daily = profile_set(np.full((3, 48), 0.1))
        weekly = profile_set(np.full((3, 336), 0.1))
        with pytest.raises(HorizonMismatch):
            kernels.nearest_neighbor_distances(daily, weekly)


class TestKsOneTailed:
    def test_identical_inputs(self):
        x = np.arange(20.0)
        result = kernels.ks_one_tailed(x, x.copy())
        assert result.statistic == 0.0
        assert result.p_value == 1.0

    def test_fully_separated(self):
        train = np.zeros(10)
        holdout = np.ones(15)
        result = kernels.ks_one_tailed(train, holdout)
        assert result.statistic == 1.0
        expected_p = math.exp(-2.0 * 10 * 15 / 25)
        assert result.p_value == pytest.approx(expected_p, rel=1e-12)

    def test_matches_reference_statistic(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(42)
        for _ in range(50):
            a = rng.normal(size=200)
            b = rng.normal(loc=rng.uniform(-0.5, 0.5), size=200)
            ours = kernels.ks_one_tailed(a, b)
            reference = scipy_stats.ks_2samp(a, b, alternative="greater")
            assert abs(ours.statistic - reference.statistic) < 1e-10

    def test_p_monotone_in_statistic(self):
        # same m, n: p must decrease as the statistic grows
        m = n = 50
        stats = np.linspace(0.0, 1.0, 11)
        ps = [math.exp(-2.0 * s * s * m * n / (m + n)) for s in stats]
        rng = np.random.default_rng(0)
        prev_p = None
        for shift in (0.0, 0.5, 1.0, 2.0):
            result = kernels.ks_one_tailed(rng.normal(size=m) - shift, rng.normal(size=n))
            assert 0.0 <= result.statistic <= 1.0
            if prev_p is not None:
                assert result.p_value <= prev_p + 1e-12
            prev_p = result.p_value
        assert all(p1 >= p2 for p1, p2 in zip(ps, ps[1:]))

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamples):
            kernels.ks_one_tailed(np.ones(4), np.ones(10))


class TestMmd:
    def test_identical_sets_cancel(self):
        rng = np.random.default_rng(11)
        x = rng.normal(0.3, 0.2, size=(500, 48))
        result = kernels.mmd2_rbf(x, x.copy(), bandwidth=1.0)
        assert abs(result.mmd2) <= 1e-12

    def test_hand_enumerated_terms(self):
        # 1-d sets {0, 2} and {1, 3}, sigma = 1: all 12 kernel terms by hand
        k = lambda d2: math.exp(-d2 / 2.0)
        k_xx = (k(0) + k(4) + k(4) + k(0)) / 4.0
        k_yy = (k(0) + k(4) + k(4) + k(0)) / 4.0
        k_xy = (k(1) + k(9) + k(1) + k(1)) / 4.0
        expected = k_xx + k_yy - 2.0 * k_xy
        result = kernels.mmd2_rbf(np.array([[0.0], [2.0]]), np.array([[1.0], [3.0]]), bandwidth=1.0)
        assert result.mmd2 == pytest.approx(expected, abs=1e-15)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(40, 48))
        y = rng.normal(size=(60, 48))
        assert kernels.mmd2_rbf(x, y, 2.0).mmd2 == pytest.approx(
            kernels.mmd2_rbf(y, x, 2.0).mmd2, abs=1e-14
        )

    def test_triple_loop_oracle(self):
        rng = np.random.default_rng(21)
        for m, n in ((10, 15), (50, 40)):
            x = rng.normal(size=(m, 6))
            y = rng.normal(0.5, 1.0, size=(n, 6))
            ours = kernels.mmd2_rbf(x, y, bandwidth=1.5).mmd2
            oracle = triple_loop_mmd2(x, y, 1.5)
            assert ours == pytest.approx(oracle, abs=1e-12)

    def test_median_heuristic_positive_fallback(self):
        x = np.zeros((5, 3))
        assert kernels.median_heuristic_bandwidth(x, x) == 1.0

    def test_median_heuristic_recorded(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(30, 4))
        y = rng.normal(size=(30, 4))
        result = kernels.mmd2_rbf(x, y)
        assert result.bandwidth > 0
        pooled = np.vstack([x, y])
        d = np.sqrt(((pooled[:, None, :] - pooled[None, :, :]) ** 2).sum(-1))
        expected = np.median(d[np.triu_indices(60, k=1)])
        assert result.bandwidth == pytest.approx(expected, rel=1e-12)

    def test_degenerate_input(self):
        with pytest.raises(DegenerateInput):
            kernels.mmd2_rbf(np.ones((1, 3)), np.ones((5, 3)), 1.0)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf, 1e200, 1e-300])
    def test_bandwidth_without_finite_nonzero_scale(self, sigma):
        # 2 sigma^2 is NaN, overflows (every kernel value 1) or underflows
        # (NaN where two rows coincide, as the repeated rows here do)
        x = np.array([[0.0, 1.0], [0.0, 1.0], [2.0, 0.5]])
        with pytest.raises(DegenerateInput, match=f"bandwidth .*got {re.escape(repr(sigma))}$"):
            kernels.mmd2_rbf(x, x[::-1] + 0.25, sigma)


def dense_median_bandwidth(x, y):
    """The dense O(n^2) median heuristic: np.median over the full upper triangle."""
    pooled = np.vstack([x, y])
    sq = np.einsum("ij,ij->i", pooled, pooled)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (pooled @ pooled.T), 0.0)
    upper = d2[np.triu_indices(len(pooled), k=1)]
    median = float(np.median(np.sqrt(upper))) if len(upper) else 0.0
    return median if median > 0.0 else 1.0


def dyadic_rows(rng, n, dims=48):
    # quarter-integer values keep every product and sum exact, so the squared
    # distances do not depend on how BLAS orders its sums for a block shape
    return rng.integers(0, 16, size=(n, dims)) / 4.0


class TestBlockedPairwise:
    """Every input spans many blocks of the pairwise-distance generator."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        # blocks of at most 3 rows and 37 values, so either cap can bind; the
        # median's sample shrinks with them, to 200 pairs, and its window to
        # the rank quantiles 0.5 +- 21 %, so that a pool of more than 200
        # pairs samples some of them and its window keeps some of them
        monkeypatch.setattr(kernels, "_BLOCK_ROWS", 3)
        monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", 37)
        monkeypatch.setattr(kernels, "_SAMPLE_PAIRS", 200)
        monkeypatch.setattr(kernels, "_MAX_WINDOW_RANK", 0.5)

    @pytest.mark.parametrize("n_x, n_y", [(18, 19), (19, 19), (40, 27), (1, 1)])
    def test_bandwidth_matches_dense_median_bit_for_bit(self, n_x, n_y):
        # pooled 37 and 38 rows give 666 (even) and 703 (odd) pairs; 1 + 1 is a 2-row pool
        n_pairs = (n_x + n_y) * (n_x + n_y - 1) // 2
        assert kernels._window_plan(n_pairs)[0] == min(n_pairs, 200)
        rng = np.random.default_rng(n_x * 100 + n_y)
        x, y = dyadic_rows(rng, n_x), dyadic_rows(rng, n_y)
        assert kernels.median_heuristic_bandwidth(x, y) == dense_median_bandwidth(x, y)

    def test_bandwidth_ties_at_middle_rank(self):
        rng = np.random.default_rng(8)
        distinct = dyadic_rows(rng, 4)
        x = distinct[rng.integers(0, 4, size=25)]
        y = distinct[rng.integers(0, 4, size=30)]
        assert kernels.median_heuristic_bandwidth(x, y) == dense_median_bandwidth(x, y)

    def test_bandwidth_even_count_averages_two_buckets(self, fallbacks, monkeypatch):
        # distances 1, 9, 10, 20, 29, 30: the middle pair sits in different
        # binades. Six pairs are fewer than the sample would draw, so the
        # window is forced to miss them and the bucket passes must find both
        monkeypatch.setattr(kernels, "_sample_window", lambda pooled, n_pairs: (0, 1, 0))
        x, y = np.array([[0.0], [1.0]]), np.array([[10.0], [30.0]])
        assert kernels.median_heuristic_bandwidth(x, y) == 15.0
        assert len(fallbacks) == 1

    @pytest.mark.parametrize("n_x, n_y", [(18, 19), (19, 19), (40, 27)])
    def test_bandwidth_fallback_across_blocks(self, n_x, n_y, fallbacks, monkeypatch):
        # a window holding only zero distances, with no room for them: the
        # bucket passes run over the pools' hundreds of tiny blocks
        monkeypatch.setattr(kernels, "_sample_window", lambda pooled, n_pairs: (0, 1, 0))
        rng = np.random.default_rng(n_x * 100 + n_y)
        x, y = dyadic_rows(rng, n_x), dyadic_rows(rng, n_y)
        assert kernels.median_heuristic_bandwidth(x, y) == dense_median_bandwidth(x, y)
        assert len(fallbacks) == 1

    def test_bandwidth_identical_rows_fallback(self):
        x = np.full((20, 48), 0.25)
        assert kernels.median_heuristic_bandwidth(x, x) == 1.0

    def test_mmd_matches_triple_loop(self):
        rng = np.random.default_rng(21)
        for m, n in ((10, 15), (50, 40)):
            x = rng.normal(size=(m, 6))
            y = rng.normal(0.5, 1.0, size=(n, 6))
            ours = kernels.mmd2_rbf(x, y, bandwidth=1.5).mmd2
            assert ours == pytest.approx(triple_loop_mmd2(x, y, 1.5), abs=1e-12)

    def test_mmd_median_heuristic_matches_triple_loop(self):
        rng = np.random.default_rng(22)
        x, y = dyadic_rows(rng, 30, 6), dyadic_rows(rng, 25, 6) + 0.5
        result = kernels.mmd2_rbf(x, y)
        assert result.bandwidth == dense_median_bandwidth(x, y)
        assert result.mmd2 == pytest.approx(triple_loop_mmd2(x, y, result.bandwidth), abs=1e-12)

    def test_nearest_neighbor_exact_across_block_edges(self):
        rng = np.random.default_rng(7)
        q = rng.normal(0.3, 0.2, size=(50, 48))
        r = rng.normal(0.3, 0.2, size=(12, 48))
        r[4] = q[17]
        r[9] = q[17]
        result = kernels.nearest_neighbor_distances(q, r)
        expected_d, expected_i = brute_force_nn(q, r)
        np.testing.assert_array_equal(result.nn_distance, expected_d)
        np.testing.assert_array_equal(result.nn_index, expected_i)


@pytest.fixture
def fallbacks(monkeypatch):
    """One entry per bucket-selection fallback of the median bandwidth."""
    calls = []
    bucket_window = kernels._bucket_window
    monkeypatch.setattr(
        kernels, "_bucket_window", lambda *args: calls.append(1) or bucket_window(*args)
    )
    return calls


class TestMedianSelection:
    """The one-sweep median at the real block size, and its fallback."""

    @pytest.mark.parametrize("n_x, n_y", [(1500, 1500), (1500, 1502)])
    def test_one_sweep_matches_dense_median_bit_for_bit(self, n_x, n_y, fallbacks):
        # 3000 and 3002 pooled rows give 4,498,500 (even) and 4,504,501 (odd)
        # pairs; the sample draws _SAMPLE_PAIRS of them, a strict subset
        rng = np.random.default_rng(n_x + n_y)
        x, y = dyadic_rows(rng, n_x), dyadic_rows(rng, n_y)
        n_pairs = (n_x + n_y) * (n_x + n_y - 1) // 2
        assert kernels._window_plan(n_pairs)[0] == kernels._SAMPLE_PAIRS < n_pairs
        assert kernels.median_heuristic_bandwidth(x, y) == dense_median_bandwidth(x, y)
        assert not fallbacks

    @pytest.mark.parametrize("case", ["window_below_median", "window_overflows"])
    def test_fallback_runs_and_stays_exact(self, case, fallbacks, monkeypatch):
        sample_window = kernels._sample_window

        def misleading_window(pooled, n_pairs):
            lo, hi, capacity = sample_window(pooled, n_pairs)
            return (0, lo, capacity) if case == "window_below_median" else (lo, hi, 1)

        sweeps = []
        sweep = kernels._sweep
        monkeypatch.setattr(kernels, "_sample_window", misleading_window)
        monkeypatch.setattr(
            kernels, "_sweep", lambda *args, **kw: sweeps.append(1) or sweep(*args, **kw)
        )
        rng = np.random.default_rng(12)
        x, y = dyadic_rows(rng, 900), dyadic_rows(rng, 901)
        assert kernels.median_heuristic_bandwidth(x, y) == dense_median_bandwidth(x, y)
        # the window sweep, then the two bucket passes: one sweep per pass,
        # however many workers share it (the sample computes its own pairs)
        assert len(sweeps) == 3 and len(fallbacks) == 1

    def test_sample_never_pairs_a_row_with_itself(self):
        # rows whose pairwise distances are distinct and nonzero: a row drawn
        # with itself would give 0, and every pair is drawn about equally often
        rows = np.array([[0.0], [1.0], [3.0], [7.0], [15.0]])
        assert (kernels._sample_distances(rows[:2], 1000) == 1.0).all()
        values, counts = np.unique(kernels._sample_distances(rows, 10_000), return_counts=True)
        expected = sorted((a - b) ** 2 for a, b in itertools.combinations(rows[:, 0], 2))
        assert values.tolist() == expected
        # 1,000 draws per pair expected, with a standard deviation of 30
        assert abs(counts - 1000).max() < 150

    def test_window_capacity_never_exceeds_its_buffer(self):
        # arithmetic only: every pool of up to 44,721 rows (10^9 pairs), and
        # far larger ones, where the sample stops growing and still samples
        sizes = [rows * (rows - 1) // 2 for rows in range(2, 44_722)]
        for n_pairs in sizes + [10**10, 10**12, 10**15, 10**18]:
            m, h, capacity = kernels._window_plan(n_pairs)
            assert capacity <= min(n_pairs, kernels._WINDOW_CAPACITY) and m <= n_pairs
            assert m <= kernels._MAX_SAMPLE_PAIRS
            # a sampled window's expected catch, with its slack, fits its buffer
            assert m == n_pairs or 2 * kernels._WINDOW_SLACK * h * n_pairs <= capacity * (1 + 1e-12)
        assert kernels._window_plan(10**18)[0] == kernels._MAX_SAMPLE_PAIRS

    def test_pool_of_at_most_the_sample_keeps_every_pair(self, fallbacks, monkeypatch):
        # 500 rows give 124,750 pairs, fewer than the sample would draw: one
        # sweep keeps them all
        sweeps = []
        sweep = kernels._sweep
        monkeypatch.setattr(kernels, "_sweep", lambda *args: sweeps.append(1) or sweep(*args))
        rng = np.random.default_rng(13)
        x, y = dyadic_rows(rng, 250), dyadic_rows(rng, 250)
        n_pairs = 500 * 499 // 2
        assert kernels._window_plan(n_pairs) == (n_pairs, 0.5, n_pairs)
        assert kernels._sample_window(np.vstack([x, y]), n_pairs) == (0, 1 << 63, n_pairs)
        assert kernels.median_heuristic_bandwidth(x, y) == dense_median_bandwidth(x, y)
        assert len(sweeps) == 1 and not fallbacks

    def test_window_bound_by_its_buffer_hits(self, fallbacks, monkeypatch):
        # 2,000 rows give 1,999,000 pairs; a buffer of 20,000 values narrows
        # the window below _MAX_WINDOW_RANK, and the sample grows past
        # _SAMPLE_PAIRS to keep it six rank errors wide
        monkeypatch.setattr(kernels, "_WINDOW_CAPACITY", 20_000)
        rng = np.random.default_rng(14)
        x, y = gamma_rows(rng, 1000), gamma_rows(rng, 1000, 0.55)
        n_pairs = 2000 * 1999 // 2
        m, h, capacity = kernels._window_plan(n_pairs)
        assert kernels._SAMPLE_PAIRS < m < n_pairs and h < kernels._MAX_WINDOW_RANK
        assert capacity <= 20_000
        bandwidth = kernels.median_heuristic_bandwidth(x, y)
        assert not fallbacks
        # the same blocked distances, every one kept
        monkeypatch.setattr(kernels, "_sample_window", lambda pooled, n: (0, 1 << 63, n))
        assert bandwidth == kernels.median_heuristic_bandwidth(x, y)

    def test_tied_median_falls_back_exactly(self, fallbacks):
        # three distinct rows in equal shares: a third of the pairs at
        # distance 0, then 4/9 tied at 2 (the median) and 2/9 at sqrt(8), so
        # the sample's window [lo, hi) is empty and the bucket passes decide
        rows = np.zeros((3, 48))
        rows[1, 0] = rows[2, 1] = 2.0
        pooled = rows[np.arange(3000) % 3]
        x, y = pooled[:1400], pooled[1400:]
        assert kernels.median_heuristic_bandwidth(x, y) == dense_median_bandwidth(x, y) == 2.0
        assert len(fallbacks) == 1

    @pytest.mark.parametrize("forced", [False, True], ids=["sampled", "bucket"])
    @pytest.mark.parametrize("n, n_zero", [(4, 3), (21, 15), (120, 85), (2000, 1414)])
    def test_zero_lower_middle_rank(self, n, n_zero, forced, fallbacks, monkeypatch):
        # C(n_zero, 2) all-zero pairs: half the pairs for the first three pools, so
        # the lower middle value is a zero and the upper one is not; the 2,000-row
        # pool's zeros stop just short of the middle
        if forced:
            monkeypatch.setattr(kernels, "_sample_window", lambda pooled, n_pairs: (0, 1, 0))
        rng = np.random.default_rng(n)
        pooled = dyadic_rows(rng, n) + 0.25
        pooled[rng.permutation(n)[:n_zero]] = 0.0
        x, y = pooled[: n // 2], pooled[n // 2 :]
        bandwidth = kernels.median_heuristic_bandwidth(x, y)
        assert bandwidth == dense_median_bandwidth(x, y) != 1.0
        assert len(fallbacks) == forced

    @pytest.mark.parametrize("forced", [False, True], ids=["sampled", "bucket"])
    def test_zero_median_keeps_nothing(self, forced, fallbacks, monkeypatch):
        # 1,500 of 2,000 rows all zero: 56 % of the pairs are zero, so both
        # middle ranks are; the bucket pass counts them and runs no keep sweep
        if forced:
            monkeypatch.setattr(kernels, "_sample_window", lambda pooled, n_pairs: (0, 1, 0))
        keeps = []
        keep_window = kernels._keep_window
        monkeypatch.setattr(kernels, "_keep_window", lambda *args: keeps.append(args[1:]) or keep_window(*args))
        rng = np.random.default_rng(15)
        x, y = gamma_rows(rng, 1000), gamma_rows(rng, 1000)
        x[:750] = y[:750] = 0.0
        assert kernels.median_heuristic_bandwidth(x, y) == 1.0
        assert len(keeps) == 1 and len(fallbacks) == forced
        if not forced:  # the sampled window starts above zero and keeps none
            assert keeps[0][:2] == (1, 1)


def test_zero_median_memory_matches_a_nonzero_one():
    # with 75 % of the days all zero the median is zero; the zeros are counted,
    # not kept, so the peak stays that of a 50 % pool (the kept zeros took
    # 70 MB at 2,500 rows per side, against 8 MB)
    rows, peaks = 2500, {}
    for share in (0.5, 0.75):
        rng = np.random.default_rng(16)
        x, y = gamma_rows(rng, rows), gamma_rows(rng, rows)
        x[: int(share * rows)] = y[: int(share * rows)] = 0.0
        tracemalloc.start()
        try:
            bandwidth = kernels.median_heuristic_bandwidth(x, y)
            _, peaks[share] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (bandwidth == 1.0) == (share == 0.75)
    assert peaks[0.75] <= 1.3 * peaks[0.5], f"{peaks[0.75] / 1e6:.1f} MB against {peaks[0.5] / 1e6:.1f} MB"


def on_workers(monkeypatch, counts, call):
    """``call()`` once per worker count, with ``_WORKERS`` patched to it."""
    results = []
    for workers in counts:
        with monkeypatch.context() as patch:
            patch.setattr(kernels, "_WORKERS", workers)
            results.append(call())
    return results


def gamma_rows(rng, n, shape=0.5):
    # smooth positive loads whose distances round, unlike dyadic rows
    return rng.gamma(shape, 0.4, size=(n, 48))


class TestWorkers:
    """One and two workers (and more) give the same bits."""

    @pytest.mark.parametrize("case", ["hit", "miss", "overflow", "tied"])
    def test_bandwidth_same_bits(self, case, fallbacks, monkeypatch):
        rng = np.random.default_rng(40)
        x, y = gamma_rows(rng, 900), gamma_rows(rng, 901, 0.55)
        if case == "tied":
            rows = np.zeros((3, 48))
            rows[1, 0] = rows[2, 1] = 2.0
            pooled = rows[np.arange(3000) % 3]
            x, y = pooled[:1400], pooled[1400:]
        sample_window = kernels._sample_window

        def window(pooled, n_pairs):
            lo, hi, capacity = sample_window(pooled, n_pairs)
            forced = {"miss": (0, lo, capacity), "overflow": (lo, hi, 1)}
            return forced.get(case, (lo, hi, capacity))

        monkeypatch.setattr(kernels, "_sample_window", window)
        one, two = on_workers(
            monkeypatch, (1, 2), lambda: kernels.median_heuristic_bandwidth(x, y).hex()
        )
        assert one == two
        assert len(fallbacks) == (0 if case == "hit" else 2)

    def test_kernel_sums_same_bits(self, monkeypatch):
        # 330 rows make 7 blocks of 50, the last of 30: an odd count, so the
        # calling thread takes one block more than the helper
        rng = np.random.default_rng(41)
        x, y = gamma_rows(rng, 330), gamma_rows(rng, 260, 0.55)
        scale = -2.0 * kernels.median_heuristic_bandwidth(x, y) ** 2
        for sets in ((x,), (y,), (x, y)):
            # the serial sum, as mmd2_rbf computed it before the sweeps were
            # split, over the blocks of a one-worker sweep
            (blocks,) = on_workers(monkeypatch, (1,), lambda: swept_blocks(monkeypatch, *sets))
            serial = math.fsum(float(np.exp(d2 / scale).sum()) for d2 in blocks)
            one, two = on_workers(monkeypatch, (1, 2), lambda: kernels._kernel_sum(scale, *sets))
            assert one.hex() == two.hex() == serial.hex()

    @pytest.mark.parametrize("worker", [0, 1])
    def test_overflow_in_one_worker_falls_back_once(self, worker, fallbacks, monkeypatch):
        # 110 one-column rows cut into blocks of 50 rows: rows 0-49 and
        # 100-109 on the calling thread (worker 0), rows 50-99 on the
        # helper. The window holds only the distance of the pair
        # (50w, 50w + 1) and has no slot, so only the worker that owns that
        # pair overflows.
        monkeypatch.setattr(kernels, "_WORKERS", 2)
        rng = np.random.default_rng(42)
        pooled = rng.uniform(0.0, 1.0, size=(110, 1))
        sq = (pooled * pooled).ravel()
        # one column: the blocks compute exactly this formula
        d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (pooled @ pooled.T), 0.0)
        target = d2[50 * worker, 50 * worker + 1]
        assert np.count_nonzero(d2[np.triu_indices(len(pooled), k=1)] == target) == 1
        lo = int(np.float64(target).view(np.int64))
        monkeypatch.setattr(kernels, "_sample_window", lambda pooled, n_pairs: (lo, lo + 1, 0))
        kept = []
        keep_window = kernels._keep_window
        monkeypatch.setattr(
            kernels, "_keep_window", lambda *args: kept.append(keep_window(*args)) or kept[-1]
        )
        x, y = pooled[:55], pooled[55:]
        assert kernels.median_heuristic_bandwidth(x, y) == dense_median_bandwidth(x, y)
        assert kept[0] is None and len(fallbacks) == 1

    @pytest.mark.parametrize("call", ["bandwidth", "mmd_fixed_bandwidth", "mmd_median"])
    def test_helper_exception_propagates(self, call, monkeypatch):
        monkeypatch.setattr(kernels, "_WORKERS", 2)
        block = kernels._Distances.block

        def failing(self, *args):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("helper thread failed")
            return block(self, *args)

        monkeypatch.setattr(kernels._Distances, "block", failing)
        rng = np.random.default_rng(43)
        x, y = gamma_rows(rng, 200), gamma_rows(rng, 210)
        run = {
            "bandwidth": lambda: kernels.median_heuristic_bandwidth(x, y),
            "mmd_fixed_bandwidth": lambda: kernels.mmd2_rbf(x, y, bandwidth=1.0),
            "mmd_median": lambda: kernels.mmd2_rbf(x, y),
        }[call]
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="helper thread failed"):
            run()
        assert threading.active_count() == before

    def test_more_workers_than_cores_under_fast_switching(self, monkeypatch):
        # four workers over blocks of 4 rows, switching threads every
        # microsecond: a lost update to the shared count, window slots,
        # bucket counts or sums would change the bits
        monkeypatch.setattr(kernels, "_BLOCK_ROWS", 4)
        rng = np.random.default_rng(44)
        x, y = gamma_rows(rng, 120), gamma_rows(rng, 130, 0.55)
        pooled = np.vstack([x, y])
        n_pairs = len(pooled) * (len(pooled) - 1) // 2
        lo, hi, capacity = kernels._sample_window(pooled, n_pairs)

        def results():
            below, kept = kernels._keep_window(pooled, lo, hi, capacity)
            return (
                below,
                np.sort(kept).tobytes(),
                kernels._bucket_window(pooled, (n_pairs - 1) // 2, n_pairs // 2),
                kernels._kernel_sum(-2.0, x, y).hex(),
                kernels.mmd2_rbf(x, y).mmd2.hex(),
            )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            one, four = on_workers(monkeypatch, (1, 4), results)
        finally:
            sys.setswitchinterval(interval)
        assert one == four

    @pytest.mark.parametrize("workers", [1, 2])
    def test_errstate_reaches_every_worker(self, workers, monkeypatch):
        # rows 50-99 of a, 1000 away from every row of b, make the second
        # block, which the helper takes when there are two workers; their
        # kernel values underflow to 0
        monkeypatch.setattr(kernels, "_WORKERS", workers)
        a, b = np.zeros((100, 1)), np.zeros((3, 1))
        a[50:] = 1000.0
        assert kernels._kernel_sum(-2.0, a, b) == 150.0
        with np.errstate(under="raise"), pytest.raises(FloatingPointError, match="underflow"):
            kernels._kernel_sum(-2.0, a, b)


class TestRunTogether:
    """Call 0 on the calling thread, the others on helpers; every helper is
    joined before a result or an error comes back."""

    @pytest.fixture(autouse=True)
    def no_thread_left(self):
        before = threading.active_count()
        yield
        assert threading.active_count() == before

    def test_results_in_call_order(self):
        threads = {}

        def call(i):
            def run():
                # helper 2 ends before call 0 and helpers 1 and 3 after it
                time.sleep((0.02, 0.06, 0.0, 0.04)[i])
                threads[i] = threading.current_thread()
                return i

            return run

        assert kernels.run_together([call(i) for i in range(4)]) == [0, 1, 2, 3]
        assert threads[0] is threading.current_thread()
        assert len({threads[i] for i in range(4)}) == 4

    def test_call_0_error_wins_over_a_helper_error(self):
        helper_raised = threading.Event()

        def first():
            assert helper_raised.wait(10)
            time.sleep(0.02)
            raise ValueError("call 0")

        def helper():
            helper_raised.set()
            raise RuntimeError("helper")

        with pytest.raises(ValueError, match="call 0"):
            kernels.run_together([first, helper])

    def test_helper_error_raised_after_call_0_returns(self):
        finished = []

        def first():
            finished.append(threading.current_thread())

        def helper():
            time.sleep(0.05)  # call 0 has returned by now
            raise RuntimeError("helper")

        with pytest.raises(RuntimeError, match="helper"):
            kernels.run_together([first, helper])
        assert finished == [threading.current_thread()]

    def test_helper_sees_the_callers_errstate(self):
        def underflow():
            return np.exp(np.array([-1000.0]))

        with np.errstate(under="raise", over="warn"):
            assert kernels.run_together([np.geterr, np.geterr, np.geterr]) == [np.geterr()] * 3
            with pytest.raises(FloatingPointError, match="underflow"):
                kernels.run_together([lambda: None, underflow])
        assert kernels.run_together([lambda: None, underflow])[1][0] == 0.0


def test_threads_start_only_in_run_together():
    # synthmeter starts every thread through kernels.run_together
    sites, fidelity_imports = [], set()
    for path in sorted(Path(kernels.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and ast.unparse(node.func) in ("threading.Thread", "Thread"):
                    sites.append((path.stem, getattr(top, "name", None)))
                if path.stem == "fidelity" and isinstance(node, ast.Import):
                    fidelity_imports.update(alias.name for alias in node.names)
                if path.stem == "fidelity" and isinstance(node, ast.ImportFrom):
                    fidelity_imports.add(node.module)
    assert sites == [("kernels", "run_together")]
    assert "threading" not in fidelity_imports


# every private name that one synthmeter module takes from another, as
# (taking module, "defining_module.name"); a new hand-off is declared here
PRIVATE_HAND_OFFS = {("fidelity", "gmm._fit")}


def test_private_names_cross_modules_only_where_declared():
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    package = Path(kernels.__file__).parent
    modules = {path.stem for path in package.glob("*.py")}
    taken = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = {}  # local name -> module, from `from . import module`
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None and alias.name in modules:
                        bound[alias.asname or alias.name] = alias.name
                    elif node.module is not None and private(alias.name):
                        taken.add((path.stem, f"{node.module}.{alias.name}"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and private(node.attr):
                if node.value.id in bound:
                    taken.add((path.stem, f"{bound[node.value.id]}.{node.attr}"))
    assert taken == PRIVATE_HAND_OFFS


def test_report_entries_have_one_encoder():
    # report.entry is the one JSON form of a result: no module writes its own
    # as_dict method or takes dataclasses.asdict
    sites = []
    for path in sorted(Path(kernels.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "as_dict":
                sites.append((path.stem, f"def as_dict, line {node.lineno}"))
            if isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
                sites.extend((path.stem, "imports asdict") for alias in node.names if alias.name == "asdict")
            if isinstance(node, ast.Attribute) and node.attr == "asdict":
                sites.append((path.stem, f"{ast.unparse(node)}, line {node.lineno}"))
    assert sites == []


def test_block_shape_keeps_window_and_bandwidth(monkeypatch):
    # one-row blocks, the 50-row cap, and 2M-entry blocks with no row cap
    # (the blocks the window was first sized by) over one 3,000-row pool
    rng = np.random.default_rng(30)
    x, y = dyadic_rows(rng, 1500), dyadic_rows(rng, 1500)
    pooled = np.vstack([x, y])
    n_pairs = len(pooled) * (len(pooled) - 1) // 2
    windows, bandwidths, mmds = [], [], []
    for block_rows in (1, 50, 2**62):
        monkeypatch.setattr(kernels, "_BLOCK_ROWS", block_rows)
        windows.append(kernels._sample_window(pooled, n_pairs))
        result = kernels.mmd2_rbf(x, y)
        bandwidths.append(result.bandwidth)
        mmds.append(result.mmd2)
    assert windows[0] == windows[1] == windows[2]
    assert bandwidths == [dense_median_bandwidth(x, y)] * 3
    assert mmds[0] == pytest.approx(mmds[1], rel=1e-12, abs=0.0)
    assert mmds[2] == pytest.approx(mmds[1], rel=1e-12, abs=0.0)


def swept_blocks(monkeypatch, a, b=None):
    """The blocks one ``_sweep`` hands its consumer, copied, in row order."""
    blocks, lock = {}, threading.Lock()
    block = kernels._Distances.block

    def recording(self, start, stop, buffers):
        d2 = block(self, start, stop, buffers)
        with lock:
            blocks[start] = d2.copy()
        return d2

    with monkeypatch.context() as patch:
        patch.setattr(kernels._Distances, "block", recording)
        kernels._sweep(lambda d2: None, a, b)
    return [blocks[start] for start in sorted(blocks)]


def test_sq_distance_fold_keeps_subnormal_products_exact(monkeypatch):
    # products of entries near 1e-160 are subnormal, where a.(-2b) rounds
    # differently from -2(a.b); the blocks must still match the dense
    # formula, serial or swept by one or two workers. 95 rows of a cut into
    # 5 blocks of 20 (an odd count, the last of 15 rows) or 2 of 50 (the
    # last of 45)
    rng = np.random.default_rng(5)
    a = rng.uniform(0.5, 1.5, size=(95, 1)) * 1e-160
    b = rng.uniform(0.5, 1.5, size=(140, 1)) * 1e-160
    sq_a, sq_b = (a * a).ravel(), (b * b).ravel()
    dense = np.maximum(sq_a[:, None] + sq_b[None, :] - 2.0 * (a @ b.T), 0.0)
    folded = np.maximum(sq_a[:, None] + sq_b[None, :] + a @ (-2.0 * b).T, 0.0)
    assert np.count_nonzero(folded != dense) > 0
    dense_pairs = np.maximum(sq_a[:, None] + sq_a[None, :] - 2.0 * (a @ a.T), 0.0)
    upper = dense_pairs[np.triu_indices(len(a), k=1)]
    for workers, block_rows in itertools.product((1, 2), (20, 50)):
        monkeypatch.setattr(kernels, "_WORKERS", workers)
        monkeypatch.setattr(kernels, "_BLOCK_ROWS", block_rows)
        blocks = swept_blocks(monkeypatch, a, b)
        np.testing.assert_array_equal(np.vstack(blocks), dense)
        pair_blocks = swept_blocks(monkeypatch, a, None)
        np.testing.assert_array_equal(np.concatenate(pair_blocks), upper)
        (serial,) = on_workers(monkeypatch, (1,), lambda: swept_blocks(monkeypatch, a, b))
        np.testing.assert_array_equal(np.vstack(serial), dense)


def test_mmd_memory_bounded_by_block_not_n(monkeypatch):
    # The dense kernels peaked at 723 MB here (the 6000^2 pooled distance
    # matrix with its upper-triangle copies, then 3000^2 kernel matrices).
    # Blocked, on two workers, the live arrays are each worker's block
    # buffer of _BLOCK_ROWS rows of the 6,000 pooled columns (2.4 MB) and
    # its norm-sum buffer (a tenth of that), plus per-block masks, and the
    # median's window buffer (here 1.4 % of the pairs: 253,083 values) or
    # its sample's 262,144 distances and one chunk of differences. The
    # bound, the window's capacity plus four such blocks (11.6 MB), grows
    # with the row count, not with the number of pairs. Measured: 10.3 MB.
    monkeypatch.setattr(kernels, "_WORKERS", 2)
    rng = np.random.default_rng(0)
    x = rng.gamma(0.5, 0.4, size=(3000, 48))
    y = rng.gamma(0.55, 0.4, size=(3000, 48))
    n_pairs = (len(x) + len(y)) * (len(x) + len(y) - 1) // 2
    capacity = kernels._window_plan(n_pairs)[2]
    bound = 8 * (capacity + 4 * kernels._BLOCK_ROWS * (len(x) + len(y)))
    tracemalloc.start()
    try:
        kernels.mmd2_rbf(x, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound, f"peak {peak / 1e6:.0f} MB, bound {bound / 1e6:.0f} MB"


class TestKlDivergence:
    def test_identical_is_zero(self):
        p = np.array([0.2, 0.3, 0.5])
        assert kernels.kl_divergence(p, p.copy()) == 0.0

    def test_closed_form(self):
        expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert kernels.kl_divergence([0.5, 0.5], [0.25, 0.75]) == pytest.approx(expected, abs=1e-12)

    def test_zero_mass_error(self):
        with pytest.raises(ZeroMass):
            kernels.kl_divergence([1.0, 0.0], [0.0, 1.0], smoothing=0.0)

    @pytest.mark.filterwarnings("error")
    def test_subnormal_q_is_zero_mass(self):
        # p_i / q_i would overflow to inf; under a caller's raising errstate too
        for over in ("warn", "raise"):
            with np.errstate(over=over), pytest.raises(ZeroMass):
                kernels.kl_divergence([1.0, 1.0], [1e-320, 1.0])

    @pytest.mark.parametrize(
        "p, q, smoothing",
        [
            ([0.0, 0.0], [1.0, 1.0], 0.0),
            ([math.nan, 1.0], [1.0, 1.0], 0.0),
            ([math.inf, 1.0], [1.0, 1.0], 0.0),
            ([1.0, 1.0], [0.0, 0.0], 0.0),
            ([1.0, 1.0], [math.nan, 1.0], 0.0),
            ([1e308, 1e308], [1.0, 1.0], 0.0),  # the total overflows
            ([1.7e308, 1.0], [1.0, 1.0], 1e308),  # an entry overflows when smoothed
        ],
        ids=["zero_p", "nan_p", "inf_p", "zero_q", "nan_q", "overflowing_p", "overflowing_smoothing"],
    )
    @pytest.mark.filterwarnings("error")
    def test_rejects_totals_not_finite_and_positive(self, p, q, smoothing):
        # the documented error, with no warning on the way, under a caller's raising errstate too
        for over in ("warn", "raise"):
            with np.errstate(over=over), pytest.raises(ValueError, match="do not normalise"):
                kernels.kl_divergence(p, q, smoothing=smoothing)

    def test_smoothing_avoids_zero_mass(self):
        value = kernels.kl_divergence([1.0, 0.0], [0.0, 1.0], smoothing=1e-6)
        assert np.isfinite(value) and value > 0

    @settings(max_examples=50, deadline=None)
    @given(
        p=arrays(np.float64, 5, elements=st.floats(0.01, 1.0)),
        q=arrays(np.float64, 5, elements=st.floats(0.01, 1.0)),
    )
    def test_non_negative_and_zero_iff_equal(self, p, q):
        p_n, q_n = p / p.sum(), q / q.sum()
        value = kernels.kl_divergence(p_n, q_n, smoothing=1e-6)
        assert value >= -1e-12
        if np.max(np.abs(p_n - q_n)) > 1e-4:
            assert value > 0.0


class TestAcf:
    def test_alternating_closed_form(self):
        x = np.tile([1.0, -1.0], 24)
        result = kernels.acf(x[None, :], max_lag=1)
        assert abs(result.coefficients[0, 0] - (-47.0 / 48.0)) < 1e-12

    def test_lag_zero_extension_is_one(self):
        # the estimator at k = 0 reduces to denom/denom = 1
        rng = np.random.default_rng(0)
        x = rng.normal(size=48)
        centered = x - x.mean()
        rho0 = (centered * centered).sum() / (centered * centered).sum()
        assert rho0 == 1.0

    def test_bounds(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(50, 48))
        result = kernels.acf(x, max_lag=24)
        assert np.all(result.coefficients <= 1.0 + 1e-12)
        assert np.all(result.coefficients >= -1.0 - 1e-12)

    def test_constant_profile_excluded(self):
        x = np.vstack([np.full(48, 2.0), np.arange(48.0)])
        result = kernels.acf(x, max_lag=4)
        assert result.excluded_zero_variance == 1
        assert list(result.kept_indices) == [1]

    def test_long_sine_full_period(self):
        period, cycles = 4, 4_000_000
        t = np.arange(period * cycles)
        x = np.sin(2 * np.pi * (t % period) / period)
        result = kernels.acf(x[None, :], max_lag=period)
        assert abs(result.coefficients[0, period - 1] - 1.0) <= 1e-6

    def test_lag_too_large(self):
        with pytest.raises(LagTooLarge):
            kernels.acf(np.zeros((2, 48)), max_lag=48)


def reference_peak_mask(x, n):
    """Oracle: one lexsort per row, value descending then slot ascending."""
    out = np.zeros_like(x)
    for row, masked in zip(x, out):
        keep = np.lexsort((np.arange(len(row)), -row))[:n]
        masked[keep] = row[keep]
    return out


class TestTopNPeaks:
    def test_hand_selection(self):
        np.testing.assert_array_equal(
            kernels.peak_mask([[1.0, 3.0, 2.0, 5.0]], 2), [[0.0, 3.0, 0.0, 5.0]]
        )

    def test_n_at_least_length_unchanged(self):
        x = np.arange(48.0)[None, :]
        np.testing.assert_array_equal(kernels.peak_mask(x, 48), x)

    def test_tie_break_earliest_slot(self):
        np.testing.assert_array_equal(
            kernels.peak_mask([[2.0, 2.0, 2.0, 1.0]], 2), [[2.0, 2.0, 0.0, 0.0]]
        )

    @settings(max_examples=50, deadline=None)
    @given(
        values=arrays(np.float64, 24, elements=st.floats(0, 10, allow_nan=False)),
        n=st.integers(1, 24),
    )
    def test_kept_values_bit_exact_in_place(self, values, n):
        masked = kernels.peak_mask(values[None, :], n)[0]
        kept = masked != 0.0
        assert np.array_equal(masked[kept], values[kept])
        assert kept.sum() <= n

    @pytest.mark.parametrize("n", [1, 4, 47, 48, 60])
    @pytest.mark.parametrize("data", ["gamma", "half_step_ties", "signed_zeros"])
    def test_matches_per_row_lexsort_bit_for_bit(self, data, n):
        rng = np.random.default_rng(11)
        x = rng.gamma(2.0, 0.3, size=(200, 48))
        if data == "half_step_ties":
            x = np.round(x * 2.0) / 2.0
        elif data == "signed_zeros":
            x = np.round(x) * rng.choice([-1.0, 1.0], size=x.shape)
            x[:5] = rng.choice([-0.0, 0.0], size=(5, 48))
        got = kernels.peak_mask(x, n)
        assert got.view(np.int64).tolist() == reference_peak_mask(x, n).view(np.int64).tolist()


class TestPerSlotStatistics:
    def test_single_profile_mean_is_profile(self):
        x = np.arange(48.0)[None, :]
        stats = kernels.per_slot_statistics(x, [0.5])
        np.testing.assert_array_equal(stats[0], x[0])

    def test_even_count_median_interpolates(self):
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        stats = kernels.per_slot_statistics(x, [0.5])
        assert stats[1, 0] == 2.5

    def test_sort_based_oracle(self):
        rng = np.random.default_rng(123)
        x = rng.normal(0.4, 0.3, size=(1000, 48))
        quantiles = [0.1, 0.5, 0.95]
        stats = kernels.per_slot_statistics(x, quantiles)
        for slot in range(48):
            column = np.sort(x[:, slot])
            assert stats[0, slot] == pytest.approx(column.mean(), abs=1e-12)
            for qi, q in enumerate(quantiles):
                pos = q * (len(column) - 1)
                lo, hi = int(np.floor(pos)), int(np.ceil(pos))
                expected = column[lo] + (pos - lo) * (column[hi] - column[lo])
                assert stats[1 + qi, slot] == pytest.approx(expected, abs=1e-12)


class TestPca:
    def test_axis_aligned_recovery(self):
        # exactly uncorrelated columns: sample covariance is diagonal,
        # so the components are the axes themselves
        rng = np.random.default_rng(4)
        a = rng.normal(0, 5, 100)
        b = rng.normal(0, 1, 100)
        a = a - a.mean()
        b = b - b.mean()
        b = b - (a @ b) / (a @ a) * a  # de-correlate from a
        x = np.column_stack([a * 5, b])
        projection = kernels.pca_project(x, [x])
        recovered = projection.projections[0]
        np.testing.assert_allclose(recovered[:, 0], x[:, 0], atol=1e-9)
        np.testing.assert_allclose(np.abs(recovered[:, 1]), np.abs(x[:, 1]), atol=1e-9)

    def test_rank_deficient(self):
        x = np.outer(np.arange(10.0), np.ones(4))
        with pytest.raises(RankDeficient):
            kernels.pca_project(x, [x])

    def test_eigen_oracle_variance(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(200, 48)) @ rng.normal(size=(48, 48))
        projection = kernels.pca_project(x, [x])
        coords = projection.projections[0]
        centered = x - x.mean(axis=0)
        eigenvalues = np.sort(np.linalg.eigvalsh(centered.T @ centered / (len(x) - 1)))[::-1]
        projected_var = coords.var(axis=0, ddof=1).sum()
        assert projected_var == pytest.approx(eigenvalues[:2].sum(), rel=1e-10)

    def test_top2_beats_random_projections(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(150, 20)) * np.linspace(3, 0.1, 20)
        projection = kernels.pca_project(x, [x])
        centered = x - x.mean(axis=0)

        def reconstruction_error(basis):
            q, _ = np.linalg.qr(basis.T)
            approx = centered @ q @ q.T
            return ((centered - approx) ** 2).sum()

        best = reconstruction_error(projection.components)
        for _ in range(20):
            random_basis = rng.normal(size=(2, 20))
            assert best <= reconstruction_error(random_basis) + 1e-9

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(60, 10))
        first = kernels.pca_project(x, [])
        second = kernels.pca_project(x.copy(), [])
        np.testing.assert_array_equal(first.components, second.components)
        for component in first.components:
            assert component[np.argmax(np.abs(component))] > 0
