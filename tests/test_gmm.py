from __future__ import annotations

import numpy as np
import pytest

from synthmeter import demo, gmm, poisoning
from synthmeter.errors import DimensionMismatch, TooFewRows
from synthmeter.profiles import Horizon, SplitSpec, split_households
from conftest import profile_set


def monotone_violations(trace, tol=1e-9):
    return sum(1 for a, b in zip(trace, trace[1:]) if b < a - tol)


class TestFit:
    def test_k1_closed_form(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0.5, 0.2, size=(100, 48)).clip(min=0)
        data = profile_set(x)
        model = gmm.fit(data, gmm.FitConfig(k=1, seed=0, n_init=1))
        np.testing.assert_allclose(model.means[0], x.mean(axis=0), atol=1e-9)
        expected_var = np.maximum(x.var(axis=0), 1e-6)
        np.testing.assert_allclose(model.variances[0], expected_var, atol=1e-9)
        assert model.weights[0] == pytest.approx(1.0)

    def test_blob_recovery(self, blob_fixture):
        x, _, centers = blob_fixture
        model = gmm.fit(x, gmm.FitConfig(k=2, seed=3))
        # match components to true centers by distance
        order = np.argsort(model.means[:, 0])
        np.testing.assert_allclose(model.means[order], centers, atol=0.2)
        np.testing.assert_allclose(model.weights, [0.5, 0.5], atol=0.05)

    def test_log_likelihood_monotone(self):
        rng = np.random.default_rng(10)
        for seed in range(10):
            x = rng.normal(size=(80, 3))
            model = gmm.fit(x, gmm.FitConfig(k=3, seed=seed, n_init=1, max_iter=60))
            assert monotone_violations(model.log_likelihood_trace) == 0

    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            gmm.fit(np.zeros((3, 2)), gmm.FitConfig(k=5))

    def test_variance_floor_applied(self):
        x = np.zeros((10, 2))  # zero variance everywhere
        model = gmm.fit(x, gmm.FitConfig(k=1, seed=0, n_init=1, variance_floor=1e-6))
        assert np.all(model.variances >= 1e-6)

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(60, 4))
        a = gmm.fit(x, gmm.FitConfig(k=3, seed=42))
        b = gmm.fit(x, gmm.FitConfig(k=3, seed=42))
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.weights, b.weights)


class TestPredict:
    def test_point_at_component_mean(self, blob_fixture):
        x, _, _ = blob_fixture
        model = gmm.fit(x, gmm.FitConfig(k=2, seed=3))
        for comp in range(2):
            prediction = gmm.predict(model, model.means[comp][None, :])
            assert prediction.labels[0] == comp

    def test_responsibilities_normalised(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(50, 5))
        model = gmm.fit(x, gmm.FitConfig(k=4, seed=0))
        prediction = gmm.predict(model, x)
        np.testing.assert_allclose(prediction.responsibilities.sum(axis=1), 1.0, atol=1e-9)

    def test_blob_labels_match_ground_truth(self, blob_fixture):
        x, truth, _ = blob_fixture
        model = gmm.fit(x, gmm.FitConfig(k=2, seed=3))
        labels = gmm.predict(model, x).labels
        agreement = max((labels == truth).mean(), (labels == 1 - truth).mean())
        assert agreement >= 0.99

    def test_component_permutation_permutes_labels(self, blob_fixture):
        x, _, _ = blob_fixture
        model = gmm.fit(x, gmm.FitConfig(k=2, seed=3))
        swapped = gmm.GmmModel(
            weights=model.weights[::-1].copy(),
            means=model.means[::-1].copy(),
            variances=model.variances[::-1].copy(),
        )
        original = gmm.predict(model, x).labels
        permuted = gmm.predict(swapped, x).labels
        np.testing.assert_array_equal(permuted, 1 - original)

    def test_dimension_mismatch(self):
        model = gmm.GmmModel(
            weights=np.array([1.0]), means=np.zeros((1, 4)), variances=np.ones((1, 4))
        )
        with pytest.raises(DimensionMismatch):
            gmm.predict(model, np.zeros((3, 5)))


class TestLabelDistribution:
    def test_label_distributions_normalised(self):
        real = demo.make_population(80, 8, seed=21)
        model = gmm.fit(real, gmm.FitConfig(k=8, seed=0))
        for rows in (real, real.subset(np.arange(len(real)) < len(real) // 2)):
            dist = gmm.label_distribution(gmm.predict(model, rows).labels, model.k)
            assert dist.shape == (model.k,)
            assert dist.sum() == pytest.approx(1.0, abs=1e-12)


class TestSample:
    def _daily_model(self, k=2):
        rng = np.random.default_rng(0)
        means = rng.uniform(0.2, 0.6, size=(k, 48))
        return gmm.GmmModel(
            weights=np.full(k, 1.0 / k),
            means=means,
            variances=np.full((k, 48), 1e-4),
        )

    def test_degenerate_weights(self):
        model = self._daily_model(k=2)
        model.weights = np.array([1.0, 0.0])
        sample = gmm.sample(model, 200, seed=1)
        distance_to_0 = np.abs(sample.profiles.values - model.means[0]).max()
        assert distance_to_0 < 0.1

    def test_floor_variance_near_deterministic(self):
        model = self._daily_model(k=1)
        model.variances = np.full((1, 48), 1e-6)
        sample = gmm.sample(model, 100, seed=2)
        assert np.abs(sample.profiles.values - model.means[0]).max() < 0.01

    def test_component_frequencies(self, blob_fixture):
        # daily-width model with well-separated means; attribute each draw
        # to its nearest mean and compare frequencies with the weights
        means = np.vstack([np.full(48, 0.2), np.full(48, 5.0)])
        model = gmm.GmmModel(
            weights=np.array([0.3, 0.7]),
            means=means,
            variances=np.full((2, 48), 0.01),
        )
        sample = gmm.sample(model, 10_000, seed=7)
        nearest = np.abs(sample.profiles.values.mean(axis=1)[:, None] - means.mean(axis=1)).argmin(axis=1)
        freq = np.bincount(nearest, minlength=2) / 10_000
        np.testing.assert_allclose(freq, model.weights, atol=0.02)

    def test_clamping_counted(self):
        model = gmm.GmmModel(
            weights=np.array([1.0]),
            means=np.zeros((1, 48)),  # mean 0: half of draws negative
            variances=np.ones((1, 48)),
        )
        sample = gmm.sample(model, 100, seed=3)
        assert sample.clamp_count > 0
        assert np.all(sample.profiles.values >= 0)

    def test_deterministic(self):
        model = self._daily_model()
        a = gmm.sample(model, 50, seed=11)
        b = gmm.sample(model, 50, seed=11)
        np.testing.assert_array_equal(a.profiles.values, b.profiles.values)
        assert a.clamp_count == b.clamp_count

    def test_horizon_from_model_width(self):
        # the width of the rows a mixture was fit on names the sample's horizon
        rng = np.random.default_rng(4)
        weekly = gmm.fit(rng.uniform(0.1, 1.0, size=(60, 336)), gmm.FitConfig(k=2, seed=0))
        assert gmm.sample(weekly, 5, seed=1).profiles.horizon is Horizon.WEEKLY
        narrow = gmm.fit(rng.uniform(0.1, 1.0, size=(60, 10)), gmm.FitConfig(k=2, seed=0))
        with pytest.raises(DimensionMismatch, match="width 10 matches no known horizon"):
            gmm.sample(narrow, 5, seed=1)

    def test_sample_fit_round_trip(self, blob_fixture):
        x, _, centers = blob_fixture
        model = gmm.fit(x, gmm.FitConfig(k=2, seed=3))
        sample = _sample_raw(model, 10_000, seed=9)
        refit = gmm.fit(sample, gmm.FitConfig(k=2, seed=5))
        order = np.argsort(refit.means[:, 0])
        np.testing.assert_allclose(refit.means[order], centers, atol=0.3)


def _sample_raw(model: gmm.GmmModel, n: int, seed: int) -> np.ndarray:
    """Raw matrix draw mirroring gmm.sample for non-profile dimensionalities."""
    rng = np.random.default_rng(seed)
    comps = rng.choice(model.k, size=n, p=model.weights / model.weights.sum())
    noise = rng.standard_normal((n, model.n_dims))
    return model.means[comps] + np.sqrt(model.variances[comps]) * noise


def _random_daily_model(k, seed):
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.1, 1.0, size=k)
    return gmm.GmmModel(
        weights=weights / weights.sum(),
        means=rng.uniform(0.0, 0.8, size=(k, 48)),
        variances=rng.uniform(1e-6, 0.3, size=(k, 48)),
    )


class TestSampleOracle:
    """gmm.sample gives the bits of the plain one-line draw, clamped at zero."""

    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize("k", [1, 4, 25])
    def test_matches_plain_expression(self, k, seed):
        model = _random_daily_model(k, seed)
        raw = _sample_raw(model, 500, seed)
        got = gmm.sample(model, 500, seed)
        assert_same_bits(got.profiles.values, np.maximum(raw, 0.0))
        assert got.clamp_count == int((raw < 0).sum())
        assert got.clamp_count > 0  # means near 0 with wide variances draw below it


# --- the plain EM loop, kept as the oracle for gmm.fit and gmm.predict -------


def _reference_log_density(x, means, variances):
    """Per-row, per-component diagonal Gaussian log density, shape (n, k),
    computed from fresh arrays in one expression."""
    inv_var = 1.0 / variances
    log_det = np.log(variances).sum(axis=1)
    quad = (
        (x * x) @ inv_var.T
        - 2.0 * (x @ (means * inv_var).T)
        + (means * means * inv_var).sum(axis=1)[None, :]
    )
    return -0.5 * (x.shape[1] * gmm._LOG_2PI + log_det[None, :] + quad)


def _reference_logsumexp_rows(a):
    """Row-wise log-sum-exp with plain np.exp; rows whose maximum is not
    finite read -inf."""
    m = a.max(axis=1)
    finite = np.isfinite(m)
    out = np.full(len(a), -np.inf)
    if finite.any():
        af = a[finite]
        mf = m[finite]
        out[finite] = mf + np.log(np.exp(af - mf[:, None]).sum(axis=1))
    return out


def _reference_log_responsibilities(x, weights, means, variances):
    """Log responsibilities and per-row log-likelihoods, from fresh arrays."""
    with np.errstate(divide="ignore"):
        joint = _reference_log_density(x, means, variances) + np.log(weights)[None, :]
    norm = _reference_logsumexp_rows(joint)
    return joint - norm[:, None], norm


def _reference_seed_means(x, k, rng):
    """k-means++ seeding with each squared distance of all rows computed at once."""
    n = len(x)
    means = np.empty((k, x.shape[1]))
    means[0] = x[int(rng.integers(n))]
    d2 = ((x - means[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        idx = int(rng.integers(n)) if total <= 0 else int(rng.choice(n, p=d2 / total))
        means[i] = x[idx]
        d2 = np.minimum(d2, ((x - means[i]) ** 2).sum(axis=1))
    return means


def _reference_run_em(x, config, rng):
    """One EM run as a plain loop: the seeding and every E-step allocate
    their arrays, each E-step takes np.exp of every input and recomputes
    x * x."""
    n, k = len(x), config.k
    means = _reference_seed_means(x, k, rng)
    variances = np.tile(np.maximum(x.var(axis=0), config.variance_floor), (k, 1))
    weights = np.full(k, 1.0 / k)
    trace = []
    prev_mean_ll = -np.inf
    for _ in range(config.max_iter):
        log_resp, log_norm = _reference_log_responsibilities(x, weights, means, variances)
        mean_ll = float(log_norm.mean())
        trace.append(mean_ll)
        resp = np.exp(log_resp)
        counts = resp.sum(axis=0)
        weights = counts / n
        alive = counts > 1e-12
        if alive.any():
            new_means = (resp.T @ x)[alive] / counts[alive, None]
            means[alive] = new_means
            sq = (resp.T @ (x * x))[alive] / counts[alive, None]
            variances[alive] = np.maximum(sq - new_means * new_means, config.variance_floor)
        if prev_mean_ll > -np.inf and mean_ll - prev_mean_ll < config.tol * abs(prev_mean_ll):
            break
        prev_mean_ll = mean_ll
    _, log_norm = _reference_log_responsibilities(x, weights, means, variances)
    trace.append(float(log_norm.mean()))
    return gmm.GmmModel(weights=weights, means=means, variances=variances, log_likelihood_trace=trace)


def _reference_fit(x, config):
    """Best of the n_init reference runs, on the streams gmm.fit spawns."""
    streams = np.random.SeedSequence(config.seed).spawn(config.n_init)
    runs = [_reference_run_em(x, config, np.random.default_rng(stream)) for stream in streams]
    best = runs[0]
    for model in runs[1:]:
        if model.log_likelihood_trace[-1] > best.log_likelihood_trace[-1]:
            best = model
    return best


def assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def _poisoned_demo_set():
    """The 250-household demo's poisoned training set (2,600 × 48), built in
    memory as demo.build_demo_workspace builds it at seed 0."""
    population = demo.make_population(250, 20, seed=0, day_step=364 // 20)
    train, _ = split_households(population, SplitSpec(holdout_fraction=0.5, seed=0))
    registry = poisoning.make_attack_registry(poisoning.OutlierSpec(count=100, seed=0), Horizon.DAILY)
    return poisoning.inject(train, registry.seen_outliers, seed=0).values


def _starved_set():
    """Two tight 2-d clusters and five scattered rows; at k=6 and seed 152 one
    component starves (the test asserts it)."""
    rng = np.random.default_rng(152)
    return np.vstack([rng.normal(0, 0.01, (20, 2)), rng.normal(5, 0.01, (20, 2)), rng.normal(0, 3, (5, 2))])


def _blobs_48():
    """Four 48-d blobs close enough that some E-step inputs fall in
    [_EXP_ZERO, _EXP_CLIP) (the test asserts it)."""
    rng = np.random.default_rng(4)
    centers = rng.uniform(0.0, 1.0, size=(4, 48))
    return np.vstack([c + rng.normal(0.0, 0.1, size=(60, 48)) for c in centers])


def _gamma_rows(n):
    """n daily-width rows of gamma draws, like half-hourly kWh."""
    return np.random.default_rng(n).gamma(2.0, 0.2, size=(n, 48))


ORACLE_CASES = {
    "k1": (lambda: np.random.default_rng(0).normal(0.5, 0.2, size=(100, 48)).clip(min=0), dict(k=1, n_init=1)),
    "n_init_1": (lambda: np.random.default_rng(1).normal(size=(300, 5)), dict(k=4, n_init=1, seed=2)),
    "n_init_3": (lambda: np.random.default_rng(1).normal(size=(300, 5)), dict(k=4, n_init=3, seed=2)),
    "starved": (_starved_set, dict(k=6, n_init=1, seed=152)),
    "exp_band": (_blobs_48, dict(k=6, seed=0)),
    "max_iter": (lambda: np.random.default_rng(3).normal(size=(120, 3)), dict(k=5, n_init=2, max_iter=4, tol=1e-12)),
    "poisoned_250": (_poisoned_demo_set, dict(k=25, seed=0)),
    # the seeding squares its distances gmm._SEED_ROWS rows at a time
    "seed_chunk_below": (lambda: _gamma_rows(gmm._SEED_ROWS - 1), dict(k=5, n_init=2, seed=7)),
    "seed_chunk_equal": (lambda: _gamma_rows(gmm._SEED_ROWS), dict(k=5, n_init=2, seed=7)),
    "seed_chunk_ragged": (lambda: _gamma_rows(2 * gmm._SEED_ROWS + 1), dict(k=5, n_init=2, seed=7)),
}


class TestOracle:
    """gmm.fit and gmm.predict give the reference loop's bits."""

    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_fit_and_predict_match_reference_bit_for_bit(self, case, monkeypatch):
        make, options = ORACLE_CASES[case]
        x = make()
        config = gmm.FitConfig(**options)
        band = []  # E-step inputs in [_EXP_ZERO, _EXP_CLIP), per _exp call
        real_exp = gmm._exp

        def counting_exp(a, out=None):
            band.append(int(((a >= gmm._EXP_ZERO) & (a < gmm._EXP_CLIP)).sum()))
            return real_exp(a, out)

        monkeypatch.setattr(gmm, "_exp", counting_exp)
        got = gmm.fit(x, config)
        want = _reference_fit(x, config)
        assert_same_bits(got.weights, want.weights)
        assert_same_bits(got.means, want.means)
        assert_same_bits(got.variances, want.variances)
        assert_same_bits(got.log_likelihood_trace, want.log_likelihood_trace)
        log_resp, _ = _reference_log_responsibilities(x, want.weights, want.means, want.variances)
        prediction = gmm.predict(got, x)
        assert_same_bits(prediction.responsibilities, np.exp(log_resp))
        np.testing.assert_array_equal(prediction.labels, np.exp(log_resp).argmax(axis=1))
        if case == "starved":
            assert (got.weights * len(x) <= 1e-12).sum() == 1
        if case in ("exp_band", "poisoned_250"):
            assert sum(band) > 0
        if case == "max_iter":
            assert len(got.log_likelihood_trace) == config.max_iter + 1

    def test_logsumexp_rows_matches_reference_with_infinite_rows(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(-2000.0, 10.0, size=(40, 7))
        a[3, 2] = -np.inf  # a starved component
        a[5] = -np.inf  # a row no component explains
        a[6, 1] = np.nan
        a[7, 0] = np.inf
        want = _reference_logsumexp_rows(a)
        assert_same_bits(gmm._logsumexp_rows(a), want)
        assert_same_bits(gmm._logsumexp_rows(a, np.empty_like(a)), want)


class TestErrstate:
    """gmm's two local np.errstate(divide="ignore") overrides hold under a
    caller who raises on every floating-point error but underflow."""

    RAISE = dict(divide="raise", over="raise", invalid="raise")

    def test_fit_with_starved_component(self):
        x = _starved_set()
        config = gmm.FitConfig(k=6, n_init=1, seed=152)
        want = gmm.fit(x, config)
        with np.errstate(**self.RAISE):
            got = gmm.fit(x, config)
        for name in ("weights", "means", "variances", "log_likelihood_trace"):
            assert_same_bits(getattr(got, name), getattr(want, name))
        # EM leaves the starved weight tiny but not 0; zero it, so np.log(weights)
        # divides by zero in the E-step that predict shares with fit
        starved = want.weights * len(x) <= 1e-12
        assert starved.sum() == 1
        want.weights = np.where(starved, 0.0, want.weights)
        expected = gmm.predict(want, x).responsibilities
        with np.errstate(**self.RAISE):
            prediction = gmm.predict(want, x)
        assert_same_bits(prediction.responsibilities, expected)
        assert (prediction.responsibilities[:, starved] == 0).all()

    def test_logsumexp_rows_all_minus_inf(self):
        a = np.array([[0.0, -1.0, -np.inf], [-np.inf, -np.inf, -np.inf]])
        with np.errstate(**self.RAISE):
            got = gmm._logsumexp_rows(a)
        assert got[1] == -np.inf
        assert_same_bits(got, _reference_logsumexp_rows(a))


class TestExp:
    """gmm._exp returns np.exp's bits for every input."""

    EDGES = [
        -np.inf, np.nan, 0.0, -0.0, -700.0, np.nextafter(-700.0, -np.inf), -708.4, -745.13, -745.2,
        -746.0, -1e308, 709.7, 710.0,
    ]

    @staticmethod
    def _check(a):
        with np.errstate(over="ignore"):
            want = np.exp(a)
            assert_same_bits(gmm._exp(a), want)
            assert_same_bits(gmm._exp(a, out=np.empty_like(a)), want)
            inplace = a.copy()
            assert gmm._exp(inplace, out=inplace) is inplace
            assert_same_bits(inplace, want)

    def test_edge_values(self):
        a = np.array(self.EDGES)
        self._check(a)
        for value in self.EDGES:  # alone, then among in-range neighbours
            self._check(np.array([value]))
            self._check(np.array([-1.0, value, -2.0, -3.0, -4.0, -5.0, -6.0, -7.0, value]))
        with np.errstate(over="ignore"):
            assert gmm._exp(np.array([710.0]))[0] == np.inf

    @pytest.mark.parametrize("fraction", [0.0, 0.1, 0.45, 1.0])
    def test_arrays_with_underflowing_share(self, fraction):
        # a lane's bits must not depend on its neighbours: some lanes are
        # clipped and zeroed, others computed in a gathered tail
        rng = np.random.default_rng(int(fraction * 100))
        a = rng.uniform(-700.0, 5.0, size=(5100, 25))
        low = rng.random(a.shape) < fraction
        a[low] = rng.uniform(-780.0, -708.0, size=low.sum())
        assert (a < -708).mean() == pytest.approx(fraction, abs=0.01)
        self._check(a)
