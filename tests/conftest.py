from __future__ import annotations

import datetime as dt

import numpy as np
import pytest
from hypothesis import settings

from synthmeter.profiles import Horizon, ProfileSet

# every @given test draws the same examples on every run (derandomize also turns off the example database)
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def profile_set(values, horizon=None, labels=None, start_dates=None):
    """Wrap a raw value matrix in a ProfileSet with generated metadata."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values[None, :]
    n = len(values)
    if horizon is None:
        horizon = {h.length: h for h in Horizon}[values.shape[1]]
    if start_dates is None:
        start_dates = tuple(dt.date(2012, 1, 1) + dt.timedelta(days=i) for i in range(n))
    return ProfileSet(
        values=values,
        household_ids=tuple(f"h{i:05d}" for i in range(n)),
        start_dates=tuple(start_dates),
        horizon=horizon,
        labels=tuple(labels) if labels is not None else (),
    )


@pytest.fixture(scope="session")
def blob_fixture():
    """Two well-separated 2-d Gaussian blobs with known parameters."""
    rng = np.random.default_rng(1234)
    a = rng.normal((0.0, 0.0), 0.5, size=(200, 2))
    b = rng.normal((10.0, 10.0), 0.5, size=(200, 2))
    x = np.vstack([a, b])
    truth = np.concatenate([np.zeros(200, dtype=int), np.ones(200, dtype=int)])
    return x, truth, np.array([[0.0, 0.0], [10.0, 10.0]])


@pytest.fixture(scope="session")
def small_population():
    from synthmeter import demo

    return demo.make_population(60, 8, seed=5)
