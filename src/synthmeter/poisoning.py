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

from .errors import InvalidConfig, MalformedRow
from .profiles import Horizon, ProfileSet, Role, read_wide, require_same_horizon, write_wide

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
        if self.count < 1:
            raise InvalidConfig("count must be positive")
        if self.sigma < 0:
            raise InvalidConfig("sigma must be non-negative")


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
        role=Role.ATTACK,
        labels=(group,) * spec.count,
        artificial=(True,) * spec.count,
    )


def inject(train: ProfileSet, outliers: ProfileSet, seed: int) -> ProfileSet:
    """Union of train and outliers, shuffled by seed; never mutates inputs."""
    if len(outliers) == 0:
        return train
    require_same_horizon(train, outliers)
    values = np.vstack([train.values, outliers.values])
    ids = train.household_ids + outliers.household_ids
    dates = train.start_dates + outliers.start_dates
    labels = train.labels + outliers.labels
    artificial = train.artificial + outliers.artificial
    order = np.random.default_rng(seed).permutation(len(values))
    return ProfileSet(
        values=values[order],
        household_ids=tuple(ids[i] for i in order),
        start_dates=tuple(dates[i] for i in order),
        horizon=train.horizon,
        role=Role.TRAIN,
        labels=tuple(labels[i] for i in order),
        artificial=tuple(artificial[i] for i in order),
    )


@dataclass
class OutlierRegistry:
    """Ground truth for poisoned attacks: only ``seen_outliers`` were injected."""

    seen_outliers: ProfileSet
    unseen_same_dist: ProfileSet
    unseen_diff_dist: ProfileSet

    def attack_set(self) -> tuple[ProfileSet, np.ndarray]:
        """All registry rows in fixed group order plus boolean membership labels."""
        sets = [self.seen_outliers, self.unseen_same_dist, self.unseen_diff_dist]
        horizon = require_same_horizon(*sets)
        values = np.vstack([s.values for s in sets])
        ids = tuple(h for s in sets for h in s.household_ids)
        dates = tuple(d for s in sets for d in s.start_dates)
        labels = tuple(l for s in sets for l in s.labels)
        combined = ProfileSet(
            values=values,
            household_ids=ids,
            start_dates=dates,
            horizon=horizon,
            role=Role.ATTACK,
            labels=labels,
            artificial=(True,) * len(values),
        )
        truth = np.array([label == SEEN for label in labels])
        return combined, truth


def make_attack_registry(
    spec: OutlierSpec,
    horizon: Horizon,
    diff_dist_spec: OutlierSpec | None = None,
) -> OutlierRegistry:
    """Three disjoint outlier groups: seen, unseen same-distribution, unseen
    different-distribution (default: double the mean).

    Seen and unseen-same share the generating spec but use separate seed
    streams, so no rows coincide.
    """
    if diff_dist_spec is None:
        diff_dist_spec = replace(spec, mu=2.0 * spec.mu)
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
    combined = read_wide(path, role=Role.ATTACK, horizon=horizon, artificial=True)
    groups = {SEEN: [], UNSEEN_SAME: [], UNSEEN_DIFF: []}
    for i, label in enumerate(combined.labels):
        if label not in groups:
            raise MalformedRow(i + 2, f"unknown registry group {label!r}")
        groups[label].append(i)
    for name, rows in groups.items():
        if not rows:
            raise MalformedRow(1, f"registry group {name!r} is empty")
    return OutlierRegistry(
        seen_outliers=combined.subset(groups[SEEN]),
        unseen_same_dist=combined.subset(groups[UNSEEN_SAME]),
        unseen_diff_dist=combined.subset(groups[UNSEEN_DIFF]),
    )
