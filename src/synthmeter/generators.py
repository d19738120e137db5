"""Synthetic-data sources: two built-in reference generators bracketing
the privacy spectrum, plus the metadata any generator's output carries.
External synthetic files are read with ``profiles.read_wide``.

The memorizer regurgitates (optionally jittered) training rows, so every
attack should flag it; the poisoned discriminator MIA does not, since it
ranks seen outliers against unseen ones at chance. The mixture sampler
draws from a fitted density model, the well-behaved control in that it
copies no rows; fit on poisoned data it reproduces the outliers'
distribution, and the poisoned reconstruction attack flags it by design.
Claimed epsilon/delta values are carried through to reports untouched;
the toolkit never computes privacy budgets.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import asdict, dataclass

import numpy as np

from . import gmm
from .errors import InvalidConfig, check_value
from .profiles import ProfileSet

EXTERNAL = "external"


@dataclass(frozen=True)
class GeneratorMetadata:
    name: str = EXTERNAL
    kind: str = EXTERNAL
    claimed_epsilon: float | None = None
    claimed_delta: float | None = None
    notes: str = ""

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class MemorizerConfig:
    jitter_sigma: float = 0.0
    seed: int = 0
    sequential: bool = False  # cycle rows in order instead of sampling

    def __post_init__(self):
        check_value("jitter_sigma", self.jitter_sigma, self.jitter_sigma >= 0, "non-negative")


def memorizer_generate(train: ProfileSet, n: int, config: MemorizerConfig) -> ProfileSet:
    """Copy training rows (uniformly sampled, or cycled when sequential)
    plus i.i.d. per-slot Gaussian jitter, clamped at zero."""
    if len(train) == 0:
        raise ValueError("training set is empty")
    if n < 1:
        raise InvalidConfig(f"n must be at least 1, got {n}")
    rng = np.random.default_rng(config.seed)
    if config.sequential:
        picks = np.arange(n) % len(train)
    else:
        picks = rng.integers(0, len(train), size=n)
    values = train.values[picks]
    if config.jitter_sigma > 0:
        values = values + rng.normal(0.0, config.jitter_sigma, size=values.shape)
        values = np.maximum(values, 0.0)
    epoch = dt.date(2000, 1, 1)
    return ProfileSet(
        values=values,
        household_ids=tuple(f"memorizer_{i:06d}" for i in range(n)),
        start_dates=(epoch,) * n,
        horizon=train.horizon,
    )


def gmm_generate(train: ProfileSet, n: int, config: gmm.FitConfig) -> ProfileSet:
    """Fit a diagonal mixture on the training set, then sample n rows."""
    model = gmm.fit(train, config)
    return gmm.sample(model, n, seed=config.seed).profiles
