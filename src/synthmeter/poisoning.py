"""Artificial outlier construction, injection and the attack registry.

Outliers are implausibly high flat profiles (i.i.d. normal per slot,
default 6 kWh per half-hour, roughly 20x a typical household mean) whose
presence in synthetic output is direct evidence of training-data leakage.
The registry keeps the injected rows plus two control groups so poisoned
attacks can be scored against known ground truth.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, replace

import numpy as np

from .errors import MalformedRow, SynthmeterError, check_value
from .profiles import Horizon, ProfileSet, read_wide, require_same_horizon, write_wide

SEEN = "seen"
UNSEEN_SAME = "unseen_same"
UNSEEN_DIFF = "unseen_diff"

_REGISTRY_DATE = dt.date(2000, 1, 1)


@dataclass(frozen=True)
class OutlierSpec:
    count: int = 100
    mu: float = 6.0
    sigma: float = 1.0
    seed: int = 0

    def __post_init__(self):
        check_value("count", self.count, self.count >= 1, "at least 1")
        check_value("sigma", self.sigma, self.sigma >= 0, "non-negative")


def make_outliers(
    spec: OutlierSpec,
    horizon: Horizon,
    group: str = SEEN,
    rng: np.random.Generator | None = None,
) -> ProfileSet:
    """Draw count profiles of i.i.d. N(mu, sigma^2) slots, clamped at zero.

    With the default spec a clamp is a six-sigma event, so the clamp count
    is expected to be zero.
    """
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    values = rng.normal(spec.mu, spec.sigma, size=(spec.count, horizon.length))
    values = np.maximum(values, 0.0)
    return ProfileSet(
        values=values,
        household_ids=tuple(f"outlier_{group}_{i:04d}" for i in range(spec.count)),
        start_dates=(_REGISTRY_DATE,) * spec.count,
        horizon=horizon,
        labels=(group,) * spec.count,
    )


def _concat(*sets: ProfileSet) -> ProfileSet:
    """The rows of ``sets`` in order, with their ids, dates and labels."""
    horizon = require_same_horizon(*sets)  # before vstack, whose own error would hide the cause
    return ProfileSet(
        values=np.vstack([s.values for s in sets]),
        household_ids=tuple(h for s in sets for h in s.household_ids),
        start_dates=tuple(d for s in sets for d in s.start_dates),
        horizon=horizon,
        labels=tuple(l for s in sets for l in s.labels),
    )


def inject(train: ProfileSet, outliers: ProfileSet, seed: int) -> ProfileSet:
    """Union of train and outliers, shuffled by seed; never mutates inputs."""
    if len(outliers) == 0:
        return train
    union = _concat(train, outliers)
    return union.subset(np.random.default_rng(seed).permutation(len(union)))


@dataclass
class OutlierRegistry:
    """Ground truth for poisoned attacks: only ``seen_outliers`` were injected."""

    seen_outliers: ProfileSet
    unseen_same_dist: ProfileSet
    unseen_diff_dist: ProfileSet

    def attack_set(self) -> tuple[ProfileSet, np.ndarray]:
        """All registry rows in fixed group order plus boolean membership labels."""
        combined = _concat(self.seen_outliers, self.unseen_same_dist, self.unseen_diff_dist)
        return combined, np.array([label == SEEN for label in combined.labels])


def make_attack_registry(spec: OutlierSpec, horizon: Horizon, diff_mu: float | None = None) -> OutlierRegistry:
    """Three disjoint outlier groups: seen, unseen same-distribution, unseen
    different-distribution (``spec`` with mean ``diff_mu``, default double
    ``spec.mu``).

    The three groups draw from separate seed streams, so no rows coincide.
    """
    diff_dist_spec = replace(spec, mu=2.0 * spec.mu if diff_mu is None else diff_mu)
    streams = np.random.SeedSequence(spec.seed).spawn(3)
    seen = make_outliers(spec, horizon, group=SEEN, rng=np.random.default_rng(streams[0]))
    unseen_same = make_outliers(
        spec, horizon, group=UNSEEN_SAME, rng=np.random.default_rng(streams[1])
    )
    unseen_diff = make_outliers(
        diff_dist_spec, horizon, group=UNSEEN_DIFF, rng=np.random.default_rng(streams[2])
    )
    return OutlierRegistry(
        seen_outliers=seen,
        unseen_same_dist=unseen_same,
        unseen_diff_dist=unseen_diff,
    )


def write_registry(registry: OutlierRegistry, path) -> None:
    """Persist as a wide profile file whose label column is the group tag."""
    combined, _ = registry.attack_set()
    write_wide(combined, path)


def read_registry(path, horizon: Horizon | None = None) -> OutlierRegistry:
    combined = read_wide(path, horizon=horizon)
    groups = {SEEN: [], UNSEEN_SAME: [], UNSEEN_DIFF: []}
    for i, (label, household) in enumerate(zip(combined.labels, combined.household_ids)):
        if label not in groups:  # named by household: read_wide skips blank lines, so i gives no line
            raise SynthmeterError(f"{path}: unknown registry group {label!r} (household {household})")
        groups[label].append(i)
    for name, rows in groups.items():
        if not rows:
            raise MalformedRow(1, f"registry group {name!r} is empty", path)
    return OutlierRegistry(
        seen_outliers=combined.subset(groups[SEEN]),
        unseen_same_dist=combined.subset(groups[UNSEEN_SAME]),
        unseen_diff_dist=combined.subset(groups[UNSEEN_DIFF]),
    )
