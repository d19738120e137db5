"""Minimal feed-forward network engine.

Backs the membership-inference discriminator, the season classifier and
the intraday forecasters. Deliberately small: ReLU hidden layers, a
sigmoid or linear head, mini-batch gradient descent with momentum 0.9,
and bit-reproducible training for a fixed seed and data order.

One step loop, ``train_arms``, trains K arms of one architecture in
lockstep: ``train`` is its K = 1 call, the paired TSTR arms its K = 2 one.
Arms share the seed and row count, so they draw the same permutation and
cut the same batches, and one stacked step is one step of every arm:
each layer is a batched ``np.matmul`` over a leading arm axis.

Training runs from one workspace allocated per call, because at batch
sizes near 64 numpy's per-call overhead is a large share of a step: with
48-64-32-1 layers on one BLAS thread of a 2-vCPU Intel Xeon (AVX-512), a
step took about 90 us for one arm and 145 us for two, so about 35 us of
it is overhead, which stacking K arms shares among them, and the rest
grows with the arms. Parameters, gradients and momentum velocities each
live in one flat (K, P) buffer; each arm's model holds weight and bias
views into its row of the parameter buffer, so the momentum step is four
whole-buffer operations.
The rows are held once, standardised into one (K, rows, width) buffer,
and each step gathers its shuffled batch from it into a (K, batch_size,
width) buffer. Each layer's outputs and back-propagated deltas are
written into (K, batch_size, width) buffers, cut once for a short last
batch. A step allocates nothing the size of the model or of a layer's
output; only the loss's per-row temporaries and the ReLU masks remain.
Batch losses are summed into a per-epoch buffer and checked once per
epoch. Scoring standardises into one new array and keeps only the layer
it is computing and the one before it.

Contract: the workspace and the stacking change where results are
stored, never what is computed. Every float operation is the one a plain
one-arm step loop performs, on the same operands and in the same order
(``tests/test_nnet.py`` keeps that loop as its oracle), so each arm's
weights, loss trace and every report built from them are bit-identical
to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InsufficientSamples, NonFiniteLoss, check_value

SIGMOID = "sigmoid"
LINEAR = "linear"

BCE = "bce"
MSE = "mse"
PINBALL = "pinball"

MOMENTUM = 0.9


@dataclass(frozen=True)
class TrainConfig:
    loss: str = BCE
    learning_rate: float = 0.05
    batch_size: int = 64
    epochs: int = 50
    seed: int = 0
    pinball_q: float = 0.95

    def __post_init__(self):
        check_value("loss", self.loss, self.loss in (BCE, MSE, PINBALL), f"{BCE!r}, {MSE!r} or {PINBALL!r}")
        check_value("learning_rate", self.learning_rate, self.learning_rate > 0, "positive")
        for key in ("batch_size", "epochs"):
            check_value(key, getattr(self, key), getattr(self, key) >= 1, "at least 1")
        check_value("pinball_q", self.pinball_q, 0.0 < self.pinball_q < 1.0, "in (0, 1)")


@dataclass
class MlpModel:
    layer_sizes: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    head: str = SIGMOID
    # per-dimension input standardisation, stored with the model
    norm_mean: np.ndarray | None = None
    norm_std: np.ndarray | None = None

    def copy(self) -> "MlpModel":
        return MlpModel(
            layer_sizes=list(self.layer_sizes),
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            head=self.head,
            norm_mean=None if self.norm_mean is None else self.norm_mean.copy(),
            norm_std=None if self.norm_std is None else self.norm_std.copy(),
        )


def init_model(layer_sizes: list[int], head: str = SIGMOID, seed: int = 0) -> MlpModel:
    """He-style initialisation scaled to fan-in; biases start at zero."""
    if len(layer_sizes) < 2:
        raise ValueError("need at least an input and an output layer")
    if head not in (SIGMOID, LINEAR):
        raise ValueError(f"unknown head {head!r}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        weights.append(rng.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in))
        biases.append(np.zeros(fan_out))
    return MlpModel(layer_sizes=list(layer_sizes), weights=weights, biases=biases, head=head)


def _normalise(model: MlpModel, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(x - norm_mean) / norm_std, into ``out`` if given, by one subtraction
    and one in-place division; ``x`` itself for a model without constants."""
    if model.norm_mean is None:
        return x
    out = np.subtract(x, model.norm_mean, out=out)
    out /= model.norm_std
    return out


def _forward_pass(
    weights: list[np.ndarray], biases: list[np.ndarray], x: np.ndarray, out: list[np.ndarray] | None = None
) -> tuple[list[np.ndarray], np.ndarray]:
    """Returns hidden activations (post-ReLU, starting with the input) and logits.

    Serves one model (``x`` of shape (rows, width)) or K stacked arms
    (``x`` (K, rows, width), weights (K, fan_in, fan_out), biases
    (K, 1, fan_out)). ``out``, if given, holds one array per layer shaped
    like that layer's output, to write it into, and every layer's input is
    kept for ``_backward``. Without it (scoring) each layer's input is
    dropped once its output exists, so an ``x`` the caller does not keep
    is freed after the first layer.
    """
    activations = [x]
    del x  # held by ``activations`` alone, so scoring can let it go
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = np.matmul(activations[-1], w, out=None if out is None else out[i])
        z += b
        if i == last:
            return activations, z
        if out is None:
            activations.pop()
        activations.append(np.maximum(z, 0.0, out=z))
    raise AssertionError("unreachable")


def _sigmoid(z: np.ndarray, e: np.ndarray | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """The stable sigmoid: as e = exp(-|z|) is exp(-z) for z >= 0 and exp(z)
    below, it is 1/(1 + exp(-z)) and exp(z)/(1 + exp(z)) there. ``e``, if
    given, is exp(-|z|) already computed; ``out`` receives the result."""
    if e is None:
        e = np.exp(-np.abs(z))
    return np.divide(np.where(z >= 0, 1.0, e), 1.0 + e, out=out)


def _checked_logits(model: MlpModel, inputs) -> np.ndarray:
    """Pre-head outputs as ``forward`` and ``logits`` return them: one row per
    input row, one value per row for one output, one row for a 1-d input."""
    x = np.asarray(inputs, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != model.layer_sizes[0]:
        raise DimensionMismatch(f"expected input width {model.layer_sizes[0]}, got {x.shape[1]}")
    # passed, not kept, so the standardised rows are freed after the first layer
    _, z = _forward_pass(model.weights, model.biases, _normalise(model, x))
    z = z[:, 0] if z.shape[1] == 1 else z
    return z[0] if single else z


def forward(model: MlpModel, inputs) -> np.ndarray:
    """Deterministic forward pass; sigmoid heads yield probabilities in (0, 1)."""
    z = _checked_logits(model, inputs)
    return _sigmoid(z) if model.head == SIGMOID else z


def logits(model: MlpModel, inputs) -> np.ndarray:
    """Raw pre-head outputs; useful for ranking beyond sigmoid saturation."""
    return _checked_logits(model, inputs)


def pinball_loss(y, y_hat, q: float) -> np.ndarray:
    """Quantile loss: u = y - y_hat; q*u if u >= 0 else (q - 1)*u."""
    if not (0.0 < q < 1.0):
        raise ValueError("q must be in (0, 1)")
    u = np.asarray(y, dtype=np.float64) - np.asarray(y_hat, dtype=np.float64)
    return np.where(u >= 0, q * u, (q - 1.0) * u)


def _check_head_loss(model: MlpModel, config: TrainConfig) -> None:
    if config.loss == BCE and model.head != SIGMOID:
        raise ValueError("binary cross-entropy requires a sigmoid head")
    if config.loss in (MSE, PINBALL) and model.head != LINEAR:
        raise ValueError(f"{config.loss} requires a linear head")


def _loss_and_grad(
    config: TrainConfig,
    logits_z: np.ndarray,
    targets: np.ndarray,
    out: np.ndarray | None = None,
    loss_out: np.ndarray | None = None,
):
    """Summed loss over each batch (the last two axes) and the gradient of
    the mean loss w.r.t. the logits.

    A batch's mean loss is its sum over rows x output width. The gradient
    is written into ``out`` if given, an array shaped like the logits, and
    the sums into ``loss_out``, shaped like the leading (arm) axes.
    """
    z = logits_z
    y = targets
    n = y.shape[-2]
    if config.loss == BCE:
        # stable form on logits: max(z,0) - z*y + log(1 + exp(-|z|)), whose
        # exp(-|z|) the sigmoid reuses
        e = np.abs(z)
        np.negative(e, out=e)
        np.exp(e, out=e)
        terms = np.maximum(z, 0.0) - z * y + np.log1p(e)
        grad = _sigmoid(z, e, out)
        grad -= y
        grad /= n
    elif config.loss == MSE:
        grad = np.subtract(z, y, out=out)
        terms = grad * grad
        grad *= 2.0
        grad /= n
    else:  # pinball
        u = y - z
        q = config.pinball_q
        nonneg = u >= 0
        terms = np.where(nonneg, q * u, (q - 1.0) * u)
        grad = np.divide(np.where(nonneg, -q, 1.0 - q), n, out=out)
    # np.mean's own sum, without its per-call overhead
    return np.add.reduce(terms, axis=(-2, -1), out=loss_out), grad


def _backward(weights: list[np.ndarray], activations: list[np.ndarray], grad_logits: np.ndarray, out=None):
    """Weight and bias gradients by back-propagation, for one model or K
    stacked arms as in ``_forward_pass``.

    ``out``, if given, is ``(grads_w, grads_b, deltas)``: arrays shaped like
    the weights and biases to write the gradients into, and one array per
    hidden layer shaped like its deltas.
    """
    last = len(weights) - 1
    if out is None:
        out = [None] * (last + 1), [None] * (last + 1), [None] * last
    grads_w, grads_b, deltas = out
    delta = grad_logits
    for i in range(last, -1, -1):
        grads_w[i] = np.matmul(activations[i].swapaxes(-1, -2), delta, out=grads_w[i])
        grads_b[i] = np.add.reduce(delta, axis=-2, out=grads_b[i])
        if i > 0:
            delta = np.matmul(delta, weights[i].swapaxes(-1, -2), out=deltas[i - 1])
            delta *= activations[i] > 0
    return grads_w, grads_b


def _flat_views(flat: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Consecutive views of the columns of the (K, P) ``flat``, shaped
    (K, *shape) for each of the given shapes."""
    views, offset = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[:, offset : offset + size].reshape(len(flat), *shape))
        offset += size
    return views


@dataclass
class TrainResult:
    model: MlpModel
    loss_trace: list[float] = field(default_factory=list)


def train(
    model: MlpModel,
    inputs,
    targets,
    config: TrainConfig,
    epoch_callback=None,
) -> TrainResult:
    """Mini-batch gradient descent with momentum 0.9 on a copy of the model.

    The input standardisation constants are computed from this training
    set and stored in the returned model. ``epoch_callback(model, epoch)``
    runs after each epoch, e.g. to record evaluation traces. The loss
    trace holds the mean batch loss per epoch. A batch size above the row
    count trains on the full set each step. NaN or infinite loss aborts
    with NonFiniteLoss.
    """
    [result] = train_arms([model], [inputs], [targets], config, [epoch_callback])
    return result


def _checked_arrays(model: MlpModel, inputs, targets) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.layer_sizes[0]:
        raise DimensionMismatch(f"expected input width {model.layer_sizes[0]}")
    if len(x) == 0:
        raise InsufficientSamples(f"training needs at least one input row, got {len(x)}")
    if y.ndim == 0 or len(y) != len(x):
        raise DimensionMismatch(f"expected {len(x)} targets, one per input row, got shape {y.shape}")
    y = y.reshape(len(x), -1)
    if y.shape[1] != model.layer_sizes[-1]:
        raise DimensionMismatch(f"expected target width {model.layer_sizes[-1]}")
    return x, y


def train_arms(
    models: list[MlpModel],
    inputs,
    targets,
    config: TrainConfig,
    epoch_callbacks,
) -> list[TrainResult]:
    """``train`` for K arms in lockstep: arm k trains ``models[k]`` on
    ``inputs[k]`` and ``targets[k]`` with ``epoch_callbacks[k]`` (None for
    none), and its result is bit-identical to that ``train`` call. This is
    the one step loop; see the module docstring.

    The arms share one architecture and row count. Each keeps its own
    standardisation constants. A NaN or infinite loss raises what ``train``
    calls in arm order would: arm 0's NonFiniteLoss at once, any other
    arm's once training ends, the lowest-numbered failed arm's first. A
    diverged arm's callback is not called again; the other arms share no
    arithmetic with it, so they train on bit for bit.
    """
    given = zip(models, inputs, targets, epoch_callbacks, strict=True)
    arrays = [_checked_arrays(m, x, y) for m, x, y, _ in given]
    sizes = models[0].layer_sizes
    rows = len(arrays[0][0])
    if any(m.layer_sizes != sizes for m in models):
        raise DimensionMismatch("arms trained together need one architecture")
    if any(len(x) != rows for x, _ in arrays):
        raise DimensionMismatch("arms trained together need equal row counts")
    for model in models:
        _check_head_loss(model, config)

    arms = len(models)
    outs = [model.copy() for model in models]
    # every arm's constants first, so that x.std's row-sized temporary is
    # freed before the one standardised copy of the rows is made
    for trained, (x, _) in zip(outs, arrays):
        trained.norm_mean = x.mean(axis=0)
        std = x.std(axis=0)
        trained.norm_std = np.where(std > 0, std, 1.0)
    x_n = np.empty((arms, rows, sizes[0]))
    for trained, (x, _), x_arm in zip(outs, arrays, x_n):
        _normalise(trained, x, out=x_arm)
    y = np.stack([y for _, y in arrays])

    # the workspace: see the module docstring
    params = np.stack([
        np.concatenate([a.ravel() for pair in zip(out.weights, out.biases) for a in pair]) for out in outs
    ])
    grads = np.empty_like(params)
    velocity = np.zeros_like(params)
    shapes = [a.shape for pair in zip(outs[0].weights, outs[0].biases) for a in pair]
    param_views = _flat_views(params, shapes)
    weights, biases = param_views[0::2], param_views[1::2]
    for k, out in enumerate(outs):
        out.weights, out.biases = [w[k] for w in weights], [b[k] for b in biases]
    # each arm's biases broadcast over its batch rows
    biases = [b[:, None, :] for b in biases]
    grad_views = _flat_views(grads, shapes)
    batch = min(config.batch_size, rows)
    outputs = [np.empty((arms, batch, width)) for width in sizes[1:]]
    deltas = [np.empty((arms, batch, width)) for width in sizes[1:-1]]
    grad_logits = np.empty((arms, batch, sizes[-1]))
    starts = range(0, rows, batch)

    def cut(n: int):
        """(batch inputs, layer outputs, backward buffers, logit gradient) for
        a batch of n rows; np.take needs a contiguous ``out`` to skip a copy."""
        return (
            np.empty((arms, n, sizes[0])),
            [o[:, :n] for o in outputs],
            (grad_views[0::2], grad_views[1::2], [d[:, :n] for d in deltas]),
            grad_logits[:, :n],
        )

    full, last = cut(batch), cut(rows - starts[-1])
    # each step's loss sums, and the term counts that make them means
    losses = np.empty((len(starts), arms))
    n_terms = np.array([[min(batch, rows - start) * sizes[-1]] for start in starts], dtype=np.float64)
    y_epoch = np.empty(y.shape)

    rng = np.random.default_rng(config.seed)
    traces: list[list[float]] = [[] for _ in outs]
    errors: dict[int, NonFiniteLoss] = {}  # by arm, from its first non-finite loss
    for epoch in range(config.epochs):
        order = rng.permutation(rows)
        # a permutation has no out-of-range index to clip; "clip" only spares
        # the buffered copy that the default "raise" makes of ``out``
        np.take(y, order, axis=1, out=y_epoch, mode="clip")
        # Divergence surfaces as NonFiniteLoss, not as numpy warnings or the
        # caller's FloatingPointError; an arm whose loss is not finite runs
        # on in NaN until training ends. Overriding the caller's settings
        # here is safe: the rows were standardised above, under those
        # settings, so only the steps' own arithmetic runs here, and an
        # overflow in it is the arm diverging, which the loss check after
        # each epoch raises once it reaches the loss.
        with np.errstate(over="ignore", invalid="ignore"):
            for step, start in enumerate(starts):
                stop = start + batch
                x_batch, layer_out, backward_out, grad_out = full if stop <= rows else last
                np.take(x_n, order[start:stop], axis=1, out=x_batch, mode="clip")
                activations, z = _forward_pass(weights, biases, x_batch, layer_out)
                _, grad_z = _loss_and_grad(config, z, y_epoch[:, start:stop], grad_out, losses[step])
                _backward(weights, activations, grad_z, backward_out)
                # velocity = MOMENTUM * velocity - learning_rate * gradient
                velocity *= MOMENTUM
                grads *= config.learning_rate
                velocity -= grads
                params += velocity
            losses /= n_terms
        for step, k in np.argwhere(~np.isfinite(losses)).tolist():  # in step order
            if k not in errors:
                errors[k] = NonFiniteLoss(f"loss became {float(losses[step, k])} at epoch {epoch}")
        if 0 in errors:
            raise errors[0]
        for k, (out, trace, callback) in enumerate(zip(outs, traces, epoch_callbacks)):
            if k not in errors:
                trace.append(float(np.mean(losses[:, k])))
                if callback is not None:
                    callback(out, epoch)
    if errors:
        raise errors[min(errors)]
    return [TrainResult(model=out, loss_trace=trace) for out, trace in zip(outs, traces)]
