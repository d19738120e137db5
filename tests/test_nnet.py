from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from synthmeter import nnet
from synthmeter.errors import DimensionMismatch, InsufficientSamples, InvalidConfig, NonFiniteLoss


def tiny_model(layers, head, seed=0):
    return nnet.init_model(layers, head=head, seed=seed)


# Reference trainer: the plain step loop, allocating every intermediate,
# that nnet.train must reproduce bit for bit.


def _reference_sigmoid(z):
    """The masked sigmoid nnet used before its one stable form, kept as an oracle."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _reference_forward(model, x):
    activations = [x]
    h = x
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = h @ w + b
        if i < last:
            h = np.maximum(z, 0.0)
            activations.append(h)
        else:
            return activations, z


def _reference_loss_and_grad(config, z, y):
    n = len(y)
    if config.loss == nnet.BCE:
        loss = float(np.mean(np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))))
        grad = (_reference_sigmoid(z) - y) / n
    elif config.loss == nnet.MSE:
        diff = z - y
        loss = float(np.mean(diff * diff))
        grad = 2.0 * diff / n
    else:
        u = y - z
        q = config.pinball_q
        loss = float(np.mean(np.where(u >= 0, q * u, (q - 1.0) * u)))
        grad = np.where(u >= 0, -q, 1.0 - q) / n
    return loss, grad


def _reference_backward(model, activations, delta):
    grads_w = [np.empty(0)] * len(model.weights)
    grads_b = [np.empty(0)] * len(model.biases)
    for i in range(len(model.weights) - 1, -1, -1):
        grads_w[i] = activations[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ model.weights[i].T) * (activations[i] > 0)
    return grads_w, grads_b


def reference_train(model, inputs, targets, config, epoch_callback=None):
    x = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64).reshape(len(x), -1)
    out = model.copy()
    out.norm_mean = x.mean(axis=0)
    std = x.std(axis=0)
    out.norm_std = np.where(std > 0, std, 1.0)
    x_n = (x - out.norm_mean) / out.norm_std
    rng = np.random.default_rng(config.seed)
    vel_w = [np.zeros_like(w) for w in out.weights]
    vel_b = [np.zeros_like(b) for b in out.biases]
    trace = []
    for epoch in range(config.epochs):
        order = rng.permutation(len(x_n))
        epoch_losses = []
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            with np.errstate(over="ignore", invalid="ignore"):
                activations, z = _reference_forward(out, x_n[batch])
                loss, grad_z = _reference_loss_and_grad(config, z, y[batch])
                if not np.isfinite(loss):
                    raise NonFiniteLoss(f"loss became {loss} at epoch {epoch}")
                epoch_losses.append(loss)
                grads_w, grads_b = _reference_backward(out, activations, grad_z)
                for i in range(len(out.weights)):
                    vel_w[i] = nnet.MOMENTUM * vel_w[i] - config.learning_rate * grads_w[i]
                    vel_b[i] = nnet.MOMENTUM * vel_b[i] - config.learning_rate * grads_b[i]
                    out.weights[i] += vel_w[i]
                    out.biases[i] += vel_b[i]
        trace.append(float(np.mean(epoch_losses)))
        if epoch_callback is not None:
            epoch_callback(out, epoch)
    return nnet.TrainResult(model=out, loss_trace=trace)


def _task(loss, width, rows=96, seed=0):
    """Inputs, targets and head for one loss; gamma inputs like load data."""
    rng = np.random.default_rng(seed)
    x = rng.gamma(2.0, 0.4, size=(rows, width))
    if loss == nnet.BCE:
        return x, (x[:, 0] > np.median(x[:, 0])).astype(float), nnet.SIGMOID
    return x, x[:, : min(width, 3)].sum(axis=1) + rng.normal(0.0, 0.3, rows), nnet.LINEAR


def _assert_models_identical(a, b):
    for name in ("weights", "biases"):
        for left, right in zip(getattr(a, name), getattr(b, name), strict=True):
            assert np.array_equal(left, right)
    for name in ("norm_mean", "norm_std"):
        left, right = getattr(a, name), getattr(b, name)
        assert (left is None and right is None) or np.array_equal(left, right)


class TestForward:
    def test_zero_weights_sigmoid_gives_half(self):
        model = tiny_model([4, 3, 1], nnet.SIGMOID)
        for w in model.weights:
            w[:] = 0.0
        out = nnet.forward(model, np.random.default_rng(0).normal(size=(10, 4)))
        np.testing.assert_array_equal(out, np.full(10, 0.5))

    def test_identity_linear_layer(self):
        model = tiny_model([3, 3], nnet.LINEAR)
        model.weights[0][:] = np.eye(3)
        model.biases[0][:] = 0.0
        x = np.array([[1.0, -2.0, 3.0]])
        np.testing.assert_array_equal(nnet.forward(model, x), x)

    def test_hand_computed_chain(self):
        # 2-2-1 with hand-set weights: relu then sigmoid, no normalisation
        model = tiny_model([2, 2, 1], nnet.SIGMOID)
        model.weights[0][:] = np.array([[1.0, -1.0], [0.5, 2.0]])
        model.biases[0][:] = np.array([0.1, -0.2])
        model.weights[1][:] = np.array([[2.0], [-1.0]])
        model.biases[1][:] = np.array([0.3])
        x = np.array([1.0, 2.0])
        h = np.maximum(x @ model.weights[0] + model.biases[0], 0.0)
        z = h @ model.weights[1] + model.biases[1]
        expected = 1.0 / (1.0 + np.exp(-z[0]))
        assert nnet.forward(model, x) == pytest.approx(expected, abs=1e-15)

    def test_dimension_mismatch(self):
        model = tiny_model([4, 1], nnet.LINEAR)
        with pytest.raises(DimensionMismatch):
            nnet.forward(model, np.zeros((2, 5)))


class TestPinballLoss:
    def test_exact_prediction_is_zero(self):
        assert nnet.pinball_loss(2.0, 2.0, 0.95) == 0.0

    def test_under_prediction(self):
        assert nnet.pinball_loss(3.0, 2.0, 0.95) == pytest.approx(0.95)

    def test_over_prediction(self):
        assert nnet.pinball_loss(2.0, 3.0, 0.95) == pytest.approx(0.05)


class TestTrain:
    def test_bit_reproducible(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(64, 6))
        y = (x[:, 0] > 0).astype(float)
        config = nnet.TrainConfig(loss=nnet.BCE, epochs=5, batch_size=16, seed=3)
        runs = []
        for _ in range(2):
            model = tiny_model([6, 8, 1], nnet.SIGMOID, seed=1)
            runs.append(nnet.train(model, x, y, config))
        for w_a, w_b in zip(runs[0].model.weights, runs[1].model.weights):
            np.testing.assert_array_equal(w_a, w_b)
        assert runs[0].loss_trace == runs[1].loss_trace

    def test_separable_blobs_high_accuracy(self):
        rng = np.random.default_rng(5)
        a = rng.normal((-2.0, -2.0), 0.3, size=(100, 2))
        b = rng.normal((2.0, 2.0), 0.3, size=(100, 2))
        x = np.vstack([a, b])
        y = np.concatenate([np.zeros(100), np.ones(100)])
        config = nnet.TrainConfig(loss=nnet.BCE, epochs=50, batch_size=32, seed=0)
        result = nnet.train(tiny_model([2, 8, 1], nnet.SIGMOID, seed=0), x, y, config)
        accuracy = ((nnet.forward(result.model, x) > 0.5) == (y > 0.5)).mean()
        assert accuracy >= 0.99

    def test_constant_target_mse(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(80, 4))
        y = np.full(80, 0.7)
        config = nnet.TrainConfig(loss=nnet.MSE, epochs=100, batch_size=20, seed=1, learning_rate=0.02)
        result = nnet.train(tiny_model([4, 8, 1], nnet.LINEAR, seed=2), x, y, config)
        assert result.loss_trace[-1] < 1e-3

    def test_pinball_converges_to_quantile(self):
        # constant inputs: the loss minimiser is the empirical q-quantile
        rng = np.random.default_rng(9)
        x = np.ones((400, 3))
        y = rng.normal(1.0, 0.5, size=400)
        config = nnet.TrainConfig(
            loss=nnet.PINBALL, pinball_q=0.95, epochs=300, batch_size=100, seed=0, learning_rate=0.02
        )
        result = nnet.train(tiny_model([3, 4, 1], nnet.LINEAR, seed=1), x, y, config)
        prediction = float(np.atleast_1d(nnet.forward(result.model, x[:1]))[0])
        target = np.quantile(y, 0.95)
        assert abs(prediction - target) < 0.15

    def test_full_batch_mse_trace_non_increasing(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(50, 3))
        y = x @ np.array([0.5, -0.2, 0.1])
        config = nnet.TrainConfig(loss=nnet.MSE, epochs=60, batch_size=50, seed=0, learning_rate=0.0005)
        result = nnet.train(tiny_model([3, 6, 1], nnet.LINEAR, seed=3), x, y, config)
        trace = result.loss_trace
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))

    def test_non_finite_loss_aborts(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(32, 3)) * 1e6
        y = rng.normal(size=32) * 1e6
        config = nnet.TrainConfig(loss=nnet.MSE, epochs=50, batch_size=8, learning_rate=100.0, seed=0)
        with pytest.raises(NonFiniteLoss):
            nnet.train(tiny_model([3, 8, 1], nnet.LINEAR, seed=0), x, y, config)

    def test_epoch_callback_sees_each_epoch(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(30, 2))
        y = np.zeros(30)
        seen = []
        config = nnet.TrainConfig(loss=nnet.MSE, epochs=4, batch_size=10, seed=0)
        nnet.train(
            tiny_model([2, 2, 1], nnet.LINEAR, seed=0),
            x,
            y,
            config,
            epoch_callback=lambda model, epoch: seen.append(epoch),
        )
        assert seen == [0, 1, 2, 3]

    def test_target_count_must_match_rows(self):
        with pytest.raises(DimensionMismatch):
            nnet.train(
                tiny_model([2, 1], nnet.LINEAR),
                np.zeros((10, 2)),
                np.zeros(11),
                nnet.TrainConfig(loss=nnet.MSE, batch_size=5),
            )

    def test_no_rows_is_insufficient_samples(self):
        with pytest.raises(InsufficientSamples, match="got 0"):
            nnet.train(tiny_model([3, 4, 1], nnet.SIGMOID), np.empty((0, 3)), np.empty(0), nnet.TrainConfig(epochs=1))

    def test_invalid_config_is_a_value_error(self):
        with pytest.raises(InvalidConfig):
            nnet.TrainConfig(epochs=0)
        assert issubclass(InvalidConfig, ValueError)

    def test_head_loss_pairing_enforced(self):
        x, y = np.zeros((8, 2)), np.zeros(8)
        with pytest.raises(ValueError):
            nnet.train(
                tiny_model([2, 1], nnet.LINEAR),
                x,
                y,
                nnet.TrainConfig(loss=nnet.BCE, batch_size=8),
            )


class TestMatchesReferenceLoop:
    @pytest.mark.parametrize("loss", [nnet.BCE, nnet.MSE, nnet.PINBALL])
    @pytest.mark.parametrize("layers", [[48, 64, 32, 1], [5, 1]], ids=["48-64-32-1", "5-1"])
    @pytest.mark.parametrize(
        "batch_size", [32, 40, 96, 200], ids=["divides", "partial", "full", "above_rows"]
    )
    def test_bit_identical(self, loss, layers, batch_size):
        x, y, head = _task(loss, layers[0])
        config = nnet.TrainConfig(loss=loss, batch_size=batch_size, epochs=4, seed=2, pinball_q=0.95)
        model = tiny_model(layers, head, seed=1)
        got = nnet.train(model, x, y, config)
        want = reference_train(model, x, y, config)
        _assert_models_identical(got.model, want.model)
        assert got.loss_trace == want.loss_trace

    def test_fortran_order_inputs(self):
        x, y, head = _task(nnet.MSE, 6)
        x = np.asfortranarray(x)
        config = nnet.TrainConfig(loss=nnet.MSE, batch_size=20, epochs=3, seed=0)
        model = tiny_model([6, 8, 1], head, seed=0)
        got = nnet.train(model, x, y, config)
        want = reference_train(model, x, y, config)
        _assert_models_identical(got.model, want.model)
        assert got.loss_trace == want.loss_trace

    def test_epoch_callback_sees_identical_models(self):
        x, y, head = _task(nnet.BCE, 48)
        config = nnet.TrainConfig(loss=nnet.BCE, batch_size=40, epochs=3, seed=0)
        model = tiny_model([48, 64, 32, 1], head, seed=0)
        seen = {"got": [], "want": []}
        for key, trainer in (("got", nnet.train), ("want", reference_train)):
            trainer(model, x, y, config, epoch_callback=lambda m, e, key=key: seen[key].append((e, m.copy())))
        assert [e for e, _ in seen["got"]] == [e for e, _ in seen["want"]] == [0, 1, 2]
        for (_, got), (_, want) in zip(seen["got"], seen["want"]):
            _assert_models_identical(got, want)

    def test_divergence_raises_at_the_same_epoch(self):
        x, y, head = _task(nnet.MSE, 5)
        config = nnet.TrainConfig(loss=nnet.MSE, batch_size=32, epochs=50, seed=0, learning_rate=0.3)
        model = tiny_model([5, 8, 1], head, seed=0)
        messages = []
        for trainer in (nnet.train, reference_train):
            with pytest.raises(NonFiniteLoss) as excinfo:
                trainer(model, x, y, config)
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]
        assert "at epoch 0" not in messages[0]


class TestStackedArms:
    """``train_arms`` against one ``reference_train`` run per arm."""

    @pytest.mark.parametrize("loss", [nnet.BCE, nnet.MSE, nnet.PINBALL])
    @pytest.mark.parametrize("batch_size", [40, 96], ids=["short_last_batch", "clamped_to_rows"])
    def test_each_arm_bit_identical(self, loss, batch_size):
        # three arms with their own data and their own initial weights
        tasks = [_task(loss, 48, seed=seed) for seed in (0, 1, 2)]
        models = [tiny_model([48, 64, 32, 1], head, seed=seed) for seed, (_, _, head) in enumerate(tasks)]
        config = nnet.TrainConfig(loss=loss, batch_size=batch_size, epochs=3, seed=2, pinball_q=0.9)
        seen = [[] for _ in tasks]
        got = nnet.train_arms(
            models, [x for x, _, _ in tasks], [y for _, y, _ in tasks], config,
            epoch_callbacks=[lambda m, e, arm=arm: arm.append((e, m.copy())) for arm in seen],
        )
        for model, (x, y, _), result, arm_seen in zip(models, tasks, got, seen, strict=True):
            want_seen = []
            want = reference_train(model, x, y, config, epoch_callback=lambda m, e: want_seen.append((e, m.copy())))
            _assert_models_identical(result.model, want.model)
            assert result.loss_trace == want.loss_trace
            assert [e for e, _ in arm_seen] == [e for e, _ in want_seen] == [0, 1, 2]
            for (_, seen_model), (_, want_model) in zip(arm_seen, want_seen):
                _assert_models_identical(seen_model, want_model)

    def test_one_arm_without_callback(self):
        tasks = [_task(nnet.MSE, 6, rows=50, seed=seed) for seed in (3, 4)]
        model = tiny_model([6, 8, 1], nnet.LINEAR, seed=0)
        config = nnet.TrainConfig(loss=nnet.MSE, batch_size=16, epochs=4, seed=1)
        epochs = []
        got = nnet.train_arms(
            [model, model], [x for x, _, _ in tasks], [y for _, y, _ in tasks], config,
            epoch_callbacks=[None, lambda m, e: epochs.append(e)],
        )
        assert epochs == [0, 1, 2, 3]
        for (x, y, _), result in zip(tasks, got, strict=True):
            want = reference_train(model, x, y, config)
            _assert_models_identical(result.model, want.model)
            assert result.loss_trace == want.loss_trace

    def test_divergent_arm_raises_its_own_error(self):
        # at this rate the arm on y converges and the arm on 1000 y diverges
        x, y, head = _task(nnet.MSE, 5)
        config = nnet.TrainConfig(loss=nnet.MSE, batch_size=32, epochs=50, seed=0, learning_rate=0.05)
        model = tiny_model([5, 8, 1], head, seed=0)
        assert np.isfinite(reference_train(model, x, y, config).loss_trace).all()
        with pytest.raises(NonFiniteLoss) as want:
            reference_train(model, x, y * 1e3, config)
        with pytest.raises(NonFiniteLoss) as got:
            nnet.train_arms([model, model], [x, x], [y, y * 1e3], config, [None, None])
        assert str(got.value) == str(want.value)

    def test_arms_must_match(self):
        x, y, head = _task(nnet.MSE, 5)
        config = nnet.TrainConfig(loss=nnet.MSE, batch_size=16, epochs=1)
        model = tiny_model([5, 8, 1], head)
        with pytest.raises(DimensionMismatch, match="row counts"):
            nnet.train_arms([model, model], [x, x[:-1]], [y, y[:-1]], config, [None, None])
        with pytest.raises(DimensionMismatch, match="architecture"):
            nnet.train_arms([model, tiny_model([5, 4, 1], head)], [x, x], [y, y], config, [None, None])
        with pytest.raises(ValueError, match="shorter"):
            nnet.train_arms([model, model], [x], [y], config, [None, None])
        with pytest.raises(ValueError, match="shorter"):
            nnet.train_arms([model, model], [x, x], [y, y], config, [None])


class TestArmOrderContract:
    """``train_arms`` returns, and raises, what ``nnet.train`` calls in arm order would."""

    # target scale per arm: at this rate an arm on 10 y diverges at epoch 3
    # and one on 200 y at epoch 1 or 2, depending on its initial weights
    SCALES = {
        "none_diverges": (1.0, 0.5, 1.5),
        "arm_2_diverges": (1.0, 0.5, 10.0),
        "arm_2_before_arm_1": (1.0, 10.0, 200.0),
        "arm_0_diverges": (200.0, 1.0, 10.0),
    }

    @pytest.mark.parametrize("case", list(SCALES))
    def test_three_arms_match_train_in_arm_order(self, case):
        x, y, head = _task(nnet.MSE, 5)
        config = nnet.TrainConfig(loss=nnet.MSE, batch_size=32, epochs=30, seed=0, learning_rate=0.05)
        models = [tiny_model([5, 8, 1], head, seed=seed) for seed in range(3)]
        targets = [y * scale for scale in self.SCALES[case]]

        # the oracle: each arm alone, the first error in arm order the one raised
        want, want_epochs, error = [], [], None
        for model, target in zip(models, targets):
            epochs = []
            try:
                want.append(nnet.train(model, x, target, config, lambda m, e, epochs=epochs: epochs.append(e)))
            except NonFiniteLoss as exc:
                error = error or str(exc)
            want_epochs.append(epochs)
        if case == "arm_2_before_arm_1":
            assert len(want_epochs[2]) < len(want_epochs[1]) < config.epochs

        seen = [[] for _ in models]
        callbacks = [lambda m, e, epochs=epochs: epochs.append(e) for epochs in seen]
        if error is None:
            got = nnet.train_arms(models, [x] * 3, targets, config, callbacks)
            for result, expected in zip(got, want, strict=True):
                _assert_models_identical(result.model, expected.model)
                assert result.loss_trace == expected.loss_trace
        else:
            with pytest.raises(NonFiniteLoss) as got:
                nnet.train_arms(models, [x] * 3, targets, config, callbacks)
            assert str(got.value) == error
        # a diverged arm's callback stops at its divergence; arm 0's stops every arm
        stop = len(want_epochs[0])
        assert seen == [epochs[:stop] for epochs in want_epochs]
        assert case == "none_diverges" or any(len(epochs) < config.epochs for epochs in seen)


# the caller's floating-point settings at their strictest that trained
# networks are expected to meet (underflow in exp is by design)
STRICT = {"over": "raise", "invalid": "raise", "divide": "raise"}


class TestCallersErrstate:
    """Training overrides the caller's ``np.errstate`` for its step loop only:
    divergence still surfaces as NonFiniteLoss, and a fault in the rows
    themselves as the caller's FloatingPointError."""

    def test_divergence_raises_non_finite_loss(self):
        x, y, head = _task(nnet.MSE, 5)
        config = nnet.TrainConfig(loss=nnet.MSE, batch_size=32, epochs=50, seed=0, learning_rate=0.3)
        model = tiny_model([5, 8, 1], head, seed=0)
        with pytest.raises(NonFiniteLoss) as want:
            reference_train(model, x, y, config)
        with np.errstate(**STRICT), pytest.raises(NonFiniteLoss) as got:
            nnet.train(model, x, y, config)
        assert str(got.value) == str(want.value)

    def test_diverging_second_arm_raises_once_training_ends(self):
        x, y, head = _task(nnet.MSE, 5)
        config = nnet.TrainConfig(loss=nnet.MSE, batch_size=32, epochs=50, seed=0, learning_rate=0.05)
        model = tiny_model([5, 8, 1], head, seed=0)
        with pytest.raises(NonFiniteLoss) as want:
            reference_train(model, x, y * 1e3, config)
        epochs = []
        with np.errstate(**STRICT), pytest.raises(NonFiniteLoss) as got:
            nnet.train_arms([model, model], [x, x], [y, y * 1e3], config, [lambda m, e: epochs.append(e), None])
        assert str(got.value) == str(want.value)
        assert epochs == list(range(config.epochs))

    def test_standardisation_keeps_the_callers_settings(self):
        # the squares inside x.std overflow
        x = np.random.default_rng(0).normal(size=(16, 3)) * 1e200
        config = nnet.TrainConfig(loss=nnet.MSE, epochs=1)
        with np.errstate(**STRICT), pytest.raises(FloatingPointError, match="overflow"):
            nnet.train(tiny_model([3, 4, 1], nnet.LINEAR), x, np.zeros(16), config)


def _trained(head, width, seed=0):
    """A model of the tasks' architecture with standardisation constants."""
    loss = nnet.BCE if head == nnet.SIGMOID else nnet.MSE
    x, y, _ = _task(loss, width, rows=300, seed=seed)
    model = tiny_model([width, 64, 32, 1], head, seed=seed)
    return nnet.train(model, x, y, nnet.TrainConfig(loss=loss, epochs=2, seed=seed)).model


class TestScoringMatchesReference:
    """``forward`` and ``logits`` against ``_reference_forward`` on rows
    standardised by the plain expression, bit for bit."""

    @staticmethod
    def _assert_scores_match(model, x):
        rows = np.atleast_2d(x)  # a single row is scored as one 2-d row
        _, z = _reference_forward(model, (rows - model.norm_mean) / model.norm_std)
        probs = _reference_sigmoid(z) if model.head == nnet.SIGMOID else z
        for got, want in ((nnet.logits(model, x), z[:, 0]), (nnet.forward(model, x), probs[:, 0])):
            got = np.atleast_1d(got)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("head", [nnet.SIGMOID, nnet.LINEAR])
    @pytest.mark.parametrize("rows, width", [(2500, 47), (5000, 48)])
    def test_full_sets(self, head, rows, width):
        x, _, _ = _task(nnet.MSE, width, rows=rows, seed=5)
        self._assert_scores_match(_trained(head, width), x)

    def test_single_row(self):
        x, _, _ = _task(nnet.MSE, 48, rows=10, seed=6)
        model = _trained(nnet.SIGMOID, 48)
        assert np.ndim(nnet.forward(model, x[3])) == 0
        self._assert_scores_match(model, x[3])

    @pytest.mark.parametrize("outputs", [1, 2])
    def test_single_row_logits_match_forward_shape(self, outputs):
        model = tiny_model([4, 3, outputs], nnet.LINEAR)
        row = np.ones(4)
        got = nnet.logits(model, row)
        want = nnet.logits(model, row[None, :])[0]
        assert np.shape(got) == np.shape(nnet.forward(model, row)) == ((2,) if outputs == 2 else ())
        assert np.array_equal(got, want)

    def test_fortran_order_input(self):
        x, _, _ = _task(nnet.MSE, 48, rows=2500, seed=7)
        self._assert_scores_match(_trained(nnet.LINEAR, 48), np.asfortranarray(x))

    def test_forecast_slice(self):
        # the forecast tasks score values[:, :47], a view with a 48-wide row stride
        values, _, _ = _task(nnet.MSE, 48, rows=2500, seed=8)
        self._assert_scores_match(_trained(nnet.LINEAR, 47), values[:, :47])


def _traced_peak(call) -> int:
    """Peak bytes that ``tracemalloc`` sees allocated during ``call()``."""
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


class TestMemory:
    """Training holds one standardised copy of its rows, and scoring at most
    that copy and two layers' outputs (1.15x, 1.2x and 2.35x measured)."""

    ROWS = 10_000

    def test_train_holds_one_copy_of_the_rows(self):
        x, y, head = _task(nnet.BCE, 48, rows=self.ROWS)
        model = tiny_model([48, 64, 32, 1], head)
        peak = _traced_peak(lambda: nnet.train(model, x, y, nnet.TrainConfig(epochs=1)))
        assert peak < 1.5 * x.nbytes, f"peak {peak / x.nbytes:.2f}x the rows"

    def test_stacked_arms_hold_one_copy_of_their_rows(self):
        # column slices, as the forecast tasks pass them
        values, y, head = _task(nnet.MSE, 48, rows=self.ROWS)
        arms = [values[:, :47], values[:, 1:]]
        model = tiny_model([47, 64, 32, 1], head)
        config = nnet.TrainConfig(loss=nnet.MSE, epochs=1)
        peak = _traced_peak(lambda: nnet.train_arms([model, model], arms, [y, y], config, [None, None]))
        size = sum(x.nbytes for x in arms)
        assert peak < 1.5 * size, f"peak {peak / size:.2f}x the rows"

    def test_scoring_drops_each_layers_input(self):
        x, _, _ = _task(nnet.BCE, 48, rows=self.ROWS)
        model = _trained(nnet.SIGMOID, 48)
        peak = _traced_peak(lambda: nnet.logits(model, x))
        assert peak < 2.5 * x.nbytes, f"peak {peak / x.nbytes:.2f}x the rows"


def test_sigmoid_matches_masked_form():
    """The one stable sigmoid has the bits of the masked form it replaced."""
    rng = np.random.default_rng(0)
    edges = [0.0, -0.0, 745.0, -745.0, 800.0, -800.0, 1e308, -1e308, np.inf, -np.inf]
    z = np.concatenate([rng.standard_normal(200_000) * 10.0, edges]).reshape(-1, 2)
    got = nnet._sigmoid(z)
    assert got.shape == z.shape
    assert np.array_equal(got.view(np.uint64), _reference_sigmoid(z).view(np.uint64))


def gradient_check(model: nnet.MlpModel, config: nnet.TrainConfig, inputs, targets) -> float:
    """Max relative error between nnet's analytic gradients and central
    finite differences.

    Step 1e-5, double precision. Intended for small models only. Criterion
    05 of the acceptance suite imports it from here.
    """
    x = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64).reshape(len(x), -1)
    if sum(w.size + b.size for w, b in zip(model.weights, model.biases)) > 10_000:
        raise ValueError("gradient_check is for small models (<= 1e4 parameters)")
    nnet._check_head_loss(model, config)
    work = model.copy()
    x_n = nnet._normalise(work, x)

    # layer buffers make _forward_pass keep every layer's input for _backward
    layer_out = [np.empty((len(x), width)) for width in work.layer_sizes[1:]]
    activations, z = nnet._forward_pass(work.weights, work.biases, x_n, layer_out)
    _, grad_z = nnet._loss_and_grad(config, z, y)
    grads_w, grads_b = nnet._backward(work.weights, activations, grad_z)

    step = 1e-5

    def loss_at() -> float:
        _, z_now = nnet._forward_pass(work.weights, work.biases, x_n)
        total, _ = nnet._loss_and_grad(config, z_now, y)
        return float(total) / z_now.size

    max_rel = 0.0
    for params, grads in ((work.weights, grads_w), (work.biases, grads_b)):
        for arr, grad in zip(params, grads):
            flat = arr.ravel()
            gflat = grad.ravel()
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + step
                hi = loss_at()
                flat[j] = orig - step
                lo = loss_at()
                flat[j] = orig
                numeric = (hi - lo) / (2.0 * step)
                denom = max(abs(numeric) + abs(gflat[j]), 1e-8)
                max_rel = max(max_rel, abs(numeric - gflat[j]) / denom)
    return max_rel


class TestGradientCheck:
    def test_bce_small_network(self):
        rng = np.random.default_rng(0)
        for seed in range(3):
            model = tiny_model([2, 4, 1], nnet.SIGMOID, seed=seed)
            x = rng.normal(size=(16, 2))
            y = rng.integers(0, 2, size=16).astype(float)
            error = gradient_check(model, nnet.TrainConfig(loss=nnet.BCE), x, y)
            assert error < 1e-4

    def test_mse_at_perfect_fit(self):
        # zero weights, zero targets: stationary point, both gradients ~ 0
        model = tiny_model([3, 2, 1], nnet.LINEAR, seed=0)
        for w in model.weights:
            w[:] = 0.0
        x = np.random.default_rng(1).normal(size=(10, 3))
        y = np.zeros(10)
        error = gradient_check(model, nnet.TrainConfig(loss=nnet.MSE), x, y)
        assert error < 1e-6

    def test_pinball_off_kink(self):
        rng = np.random.default_rng(3)
        for seed in range(3):
            model = tiny_model([2, 4, 1], nnet.LINEAR, seed=seed)
            x = rng.normal(size=(12, 2))
            logits = np.atleast_1d(nnet.logits(model, x))
            y = logits + np.where(rng.random(12) > 0.5, 1.0, -1.0)  # |u| = 1 >> step
            error = gradient_check(
                model, nnet.TrainConfig(loss=nnet.PINBALL, pinball_q=0.95), x, y
            )
            assert error < 1e-4

