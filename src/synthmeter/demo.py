"""Seeded demo population used for end-to-end runs and controls.

Profiles mimic domestic half-hourly consumption: a base load, a morning
and an evening peak with household-specific magnitudes and timing, a
seasonal multiplier and multiplicative noise. Nothing here is calibrated
to any real dataset; the point is realistic structure (non-negative,
spiky, autocorrelated, seasonal) at a chosen scale.

``build_demo_workspace`` turns such a population into the bundled
end-to-end workspace (ingest, split, poison, generate) and its manifest.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
from pathlib import Path

import numpy as np

from . import generators, gmm, kernels, poisoning
from .errors import InvalidConfig, SynthmeterError
from .profiles import Horizon, ProfileSet, SplitSpec, SUMMER_AUTUMN, WINTER_SPRING
from .profiles import _csv_prefix, _row_texts
from .profiles import ingest, season_label, split_households, write_wide

_SLOTS = np.arange(48)
_CLOCKS = tuple(f"T{slot // 2:02d}:{slot % 2 * 30:02d}:00" for slot in range(48))


def _uniform_about(rng: np.random.Generator, lo: float, hi: float, spread: float) -> float:
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo) * spread
    return rng.uniform(mid - half, mid + half)


def _household_archetype(rng: np.random.Generator, spread: float = 1.0) -> dict:
    """Household parameters; ``spread`` in [0, 1] scales how much households
    differ from each other (1.0 = fully diverse, 0 = identical)."""
    slot_span = max(1, round(3 * spread))
    return {
        "base": _uniform_about(rng, 0.04, 0.12, spread),  # kWh per half-hour standby
        "morning_peak": _uniform_about(rng, 0.2, 0.8, spread),
        "morning_slot": int(rng.integers(16 - slot_span, 16 + slot_span)),  # around 08:00
        "evening_peak": _uniform_about(rng, 0.4, 1.6, spread),
        "evening_slot": int(rng.integers(38 - slot_span, 38 + slot_span)),  # around 19:00
        "width": _uniform_about(rng, 1.5, 3.5, spread),
        "winter_factor": _uniform_about(rng, 1.1, 1.6, spread),
    }


def _household_days(arch: dict, days: list[dt.date], rng: np.random.Generator) -> np.ndarray:
    """One household's profiles, a row per day; the noise is drawn day after day."""
    morning = arch["morning_peak"] * np.exp(-0.5 * ((_SLOTS - arch["morning_slot"]) / arch["width"]) ** 2)
    evening = arch["evening_peak"] * np.exp(-0.5 * ((_SLOTS - arch["evening_slot"]) / arch["width"]) ** 2)
    seasonal = np.array([arch["winter_factor"] if season_label(day) == WINTER_SPRING else 1.0 for day in days])
    shape = (arch["base"] + morning + evening) * seasonal[:, None]
    noise = rng.lognormal(mean=0.0, sigma=0.18, size=(len(days), 48))
    return np.maximum(shape * noise, 0.0)


def make_population(
    n_households: int,
    days_per_household: int,
    seed: int = 0,
    start: dt.date = dt.date(2012, 1, 1),
    day_step: int = 7,
    spread: float = 1.0,
) -> ProfileSet:
    """Daily ProfileSet with per-household archetypes and seasonal labels.

    Days are spaced ``day_step`` apart per household so a modest count of
    profiles spans both season halves. ``spread`` controls household
    diversity: 1.0 gives the full archetype range, small values an almost
    interchangeable population.
    """
    rng = np.random.default_rng(seed)
    days = [start + dt.timedelta(days=d * day_step) for d in range(days_per_household)]
    values = np.empty((n_households * len(days), 48))
    for h in range(n_households):
        arch = _household_archetype(rng, spread=spread)
        values[h * len(days):(h + 1) * len(days)] = _household_days(arch, days, rng)
    return ProfileSet(
        values=values,
        household_ids=tuple(f"H{h:05d}" for h in range(n_households) for _ in days),
        start_dates=tuple(days) * n_households,
        horizon=Horizon.DAILY,
        labels=tuple(season_label(day) for day in days) * n_households,
    )


def write_long_csv(profiles: ProfileSet, path) -> int:
    """Write a daily ProfileSet as the long reading format, as csv.writer would;
    returns row count."""
    days = profiles.horizon.length // 48
    # {d} is the household and date of day d, {days + 48 d + s} the kWh text of its slot s;
    # date + clock equals naive datetime.isoformat() at whole minutes
    template = "".join(
        f"{{{d}}}{clock},{{{days + 48 * d + slot}}}\r\n"
        for d in range(days) for slot, clock in enumerate(_CLOCKS)
    ).format
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["household_id", "timestamp", "kwh"])
        for household, day, text in zip(profiles.household_ids, profiles.start_dates, _row_texts(profiles.values)):
            prefix = _csv_prefix(household)
            heads = [prefix + (day + dt.timedelta(days=d)).isoformat() for d in range(days)]
            fh.write(template(*heads, *text.split(",")))
    return len(profiles) * profiles.horizon.length


def labelled_gmm_synthetic(train, seed: int = 0):
    """Season-labelled synthetic data for TSTR: one mixture per season half,
    sampled at the subset's own size and tagged with its label."""
    parts: list = []
    labels: list[str] = []
    for label in (WINTER_SPRING, SUMMER_AUTUMN):
        rows = [i for i, lab in enumerate(train.labels) if lab == label]
        if not rows:
            raise SynthmeterError(f"no {label} profiles to fit the season mixture on")
        subset = train.subset(rows)
        k = min(10, max(1, len(subset) // 20))
        part = generators.gmm_generate(subset, len(subset), gmm.FitConfig(k=k, seed=seed))
        parts.append(part.values)
        labels.extend([label] * len(part))
    values = np.vstack(parts)
    return ProfileSet(
        values=values,
        household_ids=tuple(f"synfit_{i:06d}" for i in range(len(values))),
        start_dates=(min(train.start_dates),) * len(values),
        horizon=train.horizon,
        labels=tuple(labels),
    )


@kernels.one_blas_thread
def build_demo_workspace(
    target: Path, households: int = 250, days: int = 20, seed: int = 0
) -> Path:
    """Materialise the bundled end-to-end demo: ingest -> split -> inject ->
    generate -> manifest. Returns the manifest path."""
    for name, value in (("households", households), ("days", days)):
        if value < 1:
            raise InvalidConfig(f"{name} must be at least 1, got {value}")
    target = Path(target)
    target.mkdir(parents=True, exist_ok=True)

    # spread each household's days across the year so both season labels appear
    day_step = max(1, 364 // days)
    population = make_population(households, days, seed=seed, day_step=day_step)
    long_path = target / "readings.csv"
    write_long_csv(population, long_path)
    ingested = ingest(long_path, Horizon.DAILY)

    train, holdout = split_households(
        ingested.profiles, SplitSpec(holdout_fraction=0.5, seed=seed)
    )
    spec = poisoning.OutlierSpec(count=100, mu=6.0, sigma=1.0, seed=seed)
    registry = poisoning.make_attack_registry(spec, Horizon.DAILY)
    poisoned = poisoning.inject(train, registry.seen_outliers, seed=seed)

    k = min(25, max(2, len(poisoned) // 40))
    synthetic = generators.gmm_generate(poisoned, len(poisoned), gmm.FitConfig(k=k, seed=seed))
    synthetic_fit = labelled_gmm_synthetic(train, seed=seed)
    eval_population = make_population(
        max(40, households // 4), days, seed=seed + 1,
        start=dt.date(2014, 1, 2), day_step=day_step,
    )

    written = (
        ("train", train), ("holdout", holdout), ("synthetic", synthetic),
        ("synthetic_fit", synthetic_fit), ("eval", eval_population),
    )
    for name, profiles in written:
        write_wide(profiles, target / f"{name}.csv")
    poisoning.write_registry(registry, target / "registry.csv")

    manifest = {
        "horizon": "daily",
        "seed": seed,
        "train": "train.csv",
        "holdout": "holdout.csv",
        "synthetic": "synthetic.csv",
        "registry": "registry.csv",
        "generator": {"name": "demo-gmm-sampler", "kind": "gmm"},
        "fidelity": {"clusters_k": 25},
        "privacy": {
            "recon": True,
            "recon_poisoned": True,
            "mia": True,
            "mia_poisoned": True,
            "policy": {"ratio": 0.3, "max_fraction": 0.0},
        },
        "utility": {
            "real_fit": "train.csv",
            "synthetic_fit": "synthetic_fit.csv",
            "eval": "eval.csv",
            "epochs": 20,
        },
    }
    manifest_path = target / "manifest.json"
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return manifest_path
