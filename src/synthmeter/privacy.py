"""The four privacy-attack protocols.

* Distance-based reconstruction: one-tailed KS on nearest-neighbour
  distances of sampled synthetic rows to train vs holdout. p >= 0.05
  means no memorisation evidence.
* Outlier-poisoned reconstruction: per injected outlier, nearest
  synthetic distance divided by the outlier's norm; the CDF of these
  scale-free ratios over a threshold grid is the attack curve.
* Plain membership inference: a discriminator trained synthetic-vs-
  holdout, precision at threshold 0.5 on a balanced train/holdout
  attack set; 0.5 is a random guess.
* Outlier-poisoned membership inference: the same discriminator scored
  on the registry, its top scores, as many as the registry has seen
  rows, predicted positive, so precision equals recall; chance is the
  seen fraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels, nnet
from .errors import DegenerateInput, InsufficientSamples, check_value
from .poisoning import OutlierRegistry
from .profiles import ProfileSet, require_same_horizon

DEFAULT_DISCRIMINATOR_HIDDEN = (64, 32)


def default_threshold_ratios() -> tuple[float, ...]:
    # 0.05 .. 1.00 step 0.05; the 0.3 policy ratio is on the grid
    return tuple(round(0.05 * i, 2) for i in range(1, 21))


@dataclass(frozen=True)
class ReconstructionConfig:
    threshold_ratios: tuple[float, ...] = field(default_factory=default_threshold_ratios)
    # synthetic rows sampled; None: all, up to 2,000 (_sample_size), so the
    # poisoned reconstruction under-reports on larger synthetic sets
    sample_size: int | None = None
    seed: int = 0

    def __post_init__(self):
        ratios = tuple(sorted(float(r) for r in self.threshold_ratios))
        check_value("threshold_ratios", self.threshold_ratios, len(ratios) > 0, "non-empty")
        check_value("threshold_ratios", self.threshold_ratios, len(set(ratios)) == len(ratios), "distinct")
        for r in ratios:
            check_value("threshold_ratios", r, 0.0 < r <= 1.0, "in (0, 1]")
        size = self.sample_size
        check_value("sample_size", size, size is None or size >= 1, "at least 1")
        object.__setattr__(self, "threshold_ratios", ratios)


@dataclass
class ReconstructionResult:
    fraction_reconstructed: dict[float, float]
    per_outlier_nn_distance_ratio: np.ndarray


@dataclass
class MiaResult:
    precision: float
    attack_set_size: int
    positive_fraction: float
    discriminator_train_loss_trace: list[float] = field(default_factory=list)


def _downsample(rows: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """``size`` rows drawn without replacement, kept in their input order."""
    if len(rows) <= size:
        return rows
    return rows[np.sort(rng.choice(len(rows), size=size, replace=False))]


def _sample_size(requested: int | None, synthetic: ProfileSet) -> int:
    """Synthetic rows a distance attack samples (None: all, up to 2000)."""
    return min(len(synthetic), 2000) if requested is None else requested


def reconstruction_ks(
    train: ProfileSet,
    holdout: ProfileSet,
    synthetic: ProfileSet,
    sample_size: int | None = None,
    seed: int = 0,
) -> kernels.KsResult:
    """Distance-based reconstruction test.

    Samples synthetic rows without replacement, computes their nearest
    distances into train and holdout, and returns the one-tailed KS
    result. A small p-value indicates synthetic rows sit suspiciously
    close to the training set.
    """
    require_same_horizon(train, holdout, synthetic)
    sample_size = _sample_size(sample_size, synthetic)
    if sample_size < kernels.KS_MIN_SAMPLE:
        raise InsufficientSamples(f"need at least {kernels.KS_MIN_SAMPLE} sampled synthetic rows")
    sample = _downsample(synthetic.values, sample_size, np.random.default_rng(seed))
    d_train = kernels.nearest_neighbor_distances(sample, train).nn_distance
    d_holdout = kernels.nearest_neighbor_distances(sample, holdout).nn_distance
    return kernels.ks_one_tailed(d_train, d_holdout)


def reconstruction_poisoned(
    registry: OutlierRegistry,
    synthetic: ProfileSet,
    config: ReconstructionConfig = ReconstructionConfig(),
) -> ReconstructionResult:
    """Outlier-poisoned reconstruction attack.

    An outlier counts as reconstructed at ratio r when its nearest
    synthetic row lies within r times the outlier's own Euclidean norm.
    The reported curve is non-decreasing in r by construction and
    invariant to jointly rescaling synthetic rows and outliers.
    """
    outliers = registry.seen_outliers
    if len(outliers) == 0 or len(synthetic) == 0:
        raise InsufficientSamples("registry outliers and synthetic set must be non-empty")
    require_same_horizon(outliers, synthetic)
    norms = np.linalg.norm(outliers.values, axis=1)
    if not norms.all():
        row = int(np.argmin(norms))
        raise DegenerateInput(
            f"registry outlier row {row} (household {outliers.household_ids[row]}) is all zero; "
            "its distance ratio is undefined"
        )
    sample_size = _sample_size(config.sample_size, synthetic)
    sample = _downsample(synthetic.values, sample_size, np.random.default_rng(config.seed))
    nn = kernels.nearest_neighbor_distances(outliers, sample)
    ratios = nn.nn_distance / norms
    fractions = {r: float((ratios <= r).mean()) for r in config.threshold_ratios}
    return ReconstructionResult(
        fraction_reconstructed=fractions,
        per_outlier_nn_distance_ratio=ratios,
    )


def _train_discriminator(
    positives: np.ndarray,
    negatives: np.ndarray,
    seed: int,
) -> nnet.TrainResult:
    """Synthetic-vs-real discriminator. Sides are balanced by seeded
    down-sampling of the larger one so 0.5 stays the uninformative prior."""
    rng = np.random.default_rng(seed)
    size = min(len(positives), len(negatives))
    # stacked straight from the draws, so no down-sampled copy outlives the stack
    x = np.vstack([_downsample(positives, size, rng), _downsample(negatives, size, rng)])
    y = np.concatenate([np.ones(size), np.zeros(size)])
    width = x.shape[1]
    model = nnet.init_model([width, *DEFAULT_DISCRIMINATOR_HIDDEN, 1], head=nnet.SIGMOID, seed=seed)
    return nnet.train(model, x, y, nnet.TrainConfig(loss=nnet.BCE, seed=seed))


def mia_plain(
    train: ProfileSet,
    holdout: ProfileSet,
    synthetic: ProfileSet,
    seed: int = 0,
) -> MiaResult:
    """Plain membership inference.

    The holdout set is split 50/50 into a discriminator-training half
    and an attack half. The discriminator learns synthetic (True) vs
    holdout half 1 (False); the attack set is train (True) vs holdout
    half 2 (False), balanced by down-sampling. Precision is evaluated at
    probability threshold 0.5; with no positive predictions the result
    is the random-guess value 0.5.
    """
    require_same_horizon(train, holdout, synthetic)
    if len(holdout) < 4:
        raise InsufficientSamples("holdout must have at least 4 rows to split")
    if len(train) == 0 or len(synthetic) == 0:
        raise InsufficientSamples("train and synthetic sets must be non-empty")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(holdout))
    half = len(holdout) // 2
    disc_half = holdout.values[np.sort(order[:half])]
    attack_half = holdout.values[np.sort(order[half:])]

    trained = _train_discriminator(synthetic.values, disc_half, seed=seed)

    size = min(len(train), len(attack_half))
    attack_x = np.vstack([_downsample(train.values, size, rng), _downsample(attack_half, size, rng)])
    truth = np.concatenate([np.ones(size, dtype=bool), np.zeros(size, dtype=bool)])

    probs = nnet.forward(trained.model, attack_x)
    precision = threshold_precision(probs, truth)
    return MiaResult(
        precision=precision,
        attack_set_size=len(attack_x),
        positive_fraction=0.5,
        discriminator_train_loss_trace=trained.loss_trace,
    )


def threshold_precision(probs: np.ndarray, truth: np.ndarray) -> float:
    """Precision of predictions strictly above probability 0.5.

    With no positive predictions (e.g. a discriminator stuck at 0.5)
    the precision is undefined; the random-guess value 0.5
    is reported by convention.
    """
    probs = np.asarray(probs, dtype=np.float64)
    truth = np.asarray(truth, dtype=bool)
    predicted = probs > 0.5
    if predicted.sum() == 0:
        return 0.5
    return float(truth[predicted].mean())


def top_fraction_precision(scores: np.ndarray, truth: np.ndarray) -> float:
    """Precision when the top scores, as many as ``truth`` has positives, are
    predicted positive, so precision equals recall; random scores read the
    positive fraction.

    Ordering is by descending score with exact ties resolved by input
    order.
    """
    scores = np.asarray(scores, dtype=np.float64)
    truth = np.asarray(truth, dtype=bool)
    n = len(scores)
    if n == 0 or len(truth) != n:
        raise ValueError("scores and truth must be equal-length and non-empty")
    n_pos = int(truth.sum())
    if n_pos == 0:
        raise ValueError("truth has no positives")
    order = np.lexsort((np.arange(n), -scores))
    picked = order[:n_pos]
    return float(truth[picked].sum() / n_pos)


def mia_poisoned(
    registry: OutlierRegistry,
    synthetic: ProfileSet,
    holdout: ProfileSet,
    seed: int = 0,
) -> MiaResult:
    """Outlier-poisoned membership inference.

    The discriminator learns synthetic (True) vs holdout (False) and
    scores the registry's rows (seen, unseen-same, unseen-different, in
    that fixed order). The top ``seen`` count by score is predicted
    positive, so chance precision is the seen fraction of the registry.
    Scores are ranked on the discriminator's logits: sigmoid is strictly
    monotone, so this is the probability ordering without the float
    saturation that collapses confident predictions into ties.
    """
    attack, truth = registry.attack_set()
    require_same_horizon(attack, synthetic, holdout)
    if len(holdout) == 0 or len(synthetic) == 0:
        raise InsufficientSamples("holdout and synthetic sets must be non-empty")
    trained = _train_discriminator(synthetic.values, holdout.values, seed=seed)
    scores = nnet.logits(trained.model, attack.values)
    precision = top_fraction_precision(scores, truth)
    return MiaResult(
        precision=precision,
        attack_set_size=len(attack),
        positive_fraction=len(registry.seen_outliers) / len(attack),
        discriminator_train_loss_trace=trained.loss_trace,
    )
