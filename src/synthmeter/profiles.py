"""Canonical load-profile containers, ingestion and household splits.

A profile is a fixed-length vector of half-hourly consumption (kWh): 48
slots for a day, 336 for a week. Sets of profiles are stored as an
immutable matrix plus per-row metadata so every downstream computation is
a plain numpy operation.
"""

from __future__ import annotations

import csv
import datetime as dt
import enum
import io
import math
from array import array
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from .errors import (
    EmptyResult,
    HorizonMismatch,
    InvalidConfig,
    MalformedRow,
    NegativeValue,
    NonFiniteValue,
    TooFewHouseholds,
    check_value,
)

WINTER_SPRING = "WS"
SUMMER_AUTUMN = "SA"

# December through May count as winter/spring, the rest as summer/autumn.
_WS_MONTHS = frozenset({12, 1, 2, 3, 4, 5})

# The largest kWh a profile value may hold: far above any meter reading and far below
# overflow, as its square summed over 336 slots and 1e8 rows is about 1e210. A larger
# finite value would reach the metrics only as overflowed (infinite) distances.
MAX_KWH = 1e100


class Horizon(enum.Enum):
    DAILY = 48
    WEEKLY = 336

    @property
    def length(self) -> int:
        return self.value

    @classmethod
    def from_name(cls, name: str) -> "Horizon":
        try:
            return cls[str(name).upper()]
        except KeyError:
            raise InvalidConfig(f"unknown horizon {name!r}; expected daily or weekly") from None


def season_label(start_date: dt.date) -> str:
    """Season of a profile's first day: WS for Dec-May, SA for Jun-Nov."""
    return WINTER_SPRING if start_date.month in _WS_MONTHS else SUMMER_AUTUMN


@dataclass(frozen=True)
class ProfileSet:
    """Immutable matrix of profiles with aligned per-row metadata.

    ``values`` has shape (n, horizon.length); rows are kWh per half-hour.
    ``labels`` holds free-form row tags ("" when absent): season labels
    WS/SA for real data, registry group tags for attack sets. Every value
    must be finite, non-negative and at most ``MAX_KWH``.
    """

    values: np.ndarray
    household_ids: tuple[str, ...]
    start_dates: tuple[dt.date, ...]
    horizon: Horizon
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        values = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if values.ndim != 2 or values.shape[1] != self.horizon.length:
            raise HorizonMismatch(
                f"values shape {values.shape} does not match horizon {self.horizon.name} "
                f"(length {self.horizon.length})"
            )
        n = values.shape[0]
        labels = self.labels if self.labels else ("",) * n
        if not (len(self.household_ids) == len(self.start_dates) == len(labels) == n):
            raise ValueError("metadata lengths do not match the number of profile rows")
        for error, fault, bad in (
            (NonFiniteValue, "non-finite kWh", ~np.isfinite(values).all(axis=1)),
            (NegativeValue, "negative kWh", (values < 0).any(axis=1)),
            (NonFiniteValue, f"kWh above {MAX_KWH:g}", (values > MAX_KWH).any(axis=1)),
        ):
            if bad.any():
                row = int(np.argmax(bad))
                raise error(
                    f"{fault} in profile row {row} "
                    f"(household {self.household_ids[row]}, {self.start_dates[row]})"
                )
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "household_ids", tuple(self.household_ids))
        object.__setattr__(self, "start_dates", tuple(self.start_dates))
        object.__setattr__(self, "labels", tuple(labels))

    def __len__(self) -> int:
        return self.values.shape[0]

    def subset(self, indices) -> "ProfileSet":
        idx = np.asarray(indices)
        if idx.dtype == bool:
            idx = np.flatnonzero(idx)
        else:
            idx = idx.astype(np.int64, copy=False)
        return ProfileSet(
            values=self.values[idx],
            household_ids=tuple(self.household_ids[i] for i in idx),
            start_dates=tuple(self.start_dates[i] for i in idx),
            horizon=self.horizon,
            labels=tuple(self.labels[i] for i in idx),
        )


def require_same_horizon(*sets: ProfileSet) -> Horizon:
    horizons = {s.horizon for s in sets}
    if len(horizons) != 1:
        raise HorizonMismatch(f"mixed horizons: {sorted(h.name for h in horizons)}")
    return next(iter(horizons))


@dataclass(frozen=True)
class SplitSpec:
    holdout_fraction: float = 0.5
    seed: int = 0

    def __post_init__(self):
        fraction = self.holdout_fraction
        check_value("holdout_fraction", fraction, 0.0 < fraction < 1.0, "in (0, 1)")


@dataclass
class IngestResult:
    profiles: ProfileSet
    rows_read: int
    dropped_periods: int


def _parse_timestamp(raw: str, line: int, path) -> dt.datetime:
    text = raw.strip()
    if text.endswith("Z"):
        text = text[:-1]
    try:
        ts = dt.datetime.fromisoformat(text)
    except ValueError:
        raise MalformedRow(line, f"bad timestamp {raw!r}", path) from None
    if ts.minute not in (0, 30) or ts.second or ts.microsecond:
        raise MalformedRow(line, f"timestamp {raw!r} not on a half-hour boundary", path)
    return ts


def _week_start(day: dt.date) -> dt.date:
    return day - dt.timedelta(days=day.weekday())  # weeks start on Monday


def ingest(readings_path, horizon: Horizon) -> IngestResult:
    """Build one profile per household per complete day/week from long CSV.

    Input columns: household_id, timestamp (ISO-8601, half-hour aligned),
    kwh. A period with any missing or duplicated slot is dropped and
    counted; nothing is imputed. Output rows are sorted by household id
    then start date, so the result is independent of input order.

    Each distinct timestamp text is parsed and validated once and
    memoised as (period start, slot); only successful parses are stored,
    so a bad timestamp raises at its first line. Each period is an
    ``array("d")`` of the horizon's length filled with NaN: kWh is
    validated finite, so a NaN slot is one not read yet, a slot read
    twice marks the period duplicated, and a NaN left at the end marks
    it incomplete.
    """
    length = horizon.length
    weekly = horizon is Horizon.WEEKLY
    unread = array("d", [math.nan]) * length
    # timestamp text -> (period_start, slot)
    slot_of: dict[str, tuple[dt.date, int]] = {}
    periods: dict[tuple[str, dt.date], array] = {}
    duplicated: set[tuple[str, dt.date]] = set()
    rows_read = 0
    with open(readings_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise EmptyResult(f"{readings_path}: input file is empty")
        expected = ["household_id", "timestamp", "kwh"]
        if [c.strip() for c in header] != expected:
            raise MalformedRow(1, f"expected header {','.join(expected)}", readings_path)
        for line, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise MalformedRow(line, f"expected 3 fields, got {len(row)}", readings_path)
            household = row[0].strip()
            if not household:
                raise MalformedRow(line, "empty household_id", readings_path)
            placed = slot_of.get(row[1])
            if placed is None:
                ts = _parse_timestamp(row[1], line, readings_path)
                day = ts.date()
                start = _week_start(day) if weekly else day
                slot = (day - start).days * 48 + ts.hour * 2 + (ts.minute == 30)
                placed = slot_of[row[1]] = start, slot
            start, slot = placed
            try:
                kwh = float(row[2])
            except ValueError:
                raise MalformedRow(line, f"bad kwh value {row[2]!r}", readings_path) from None
            if not 0 <= kwh <= MAX_KWH:  # NaN fails it too
                above = math.isfinite(kwh) and kwh > 0
                fault = f"above {MAX_KWH:g}" if above else "must be finite and non-negative"
                raise MalformedRow(line, f"kwh {fault}, got {row[2]}", readings_path)
            rows_read += 1
            key = (household, start)
            period = periods.get(key)
            if period is None:
                period = periods[key] = unread[:]
            elif not math.isnan(period[slot]):
                duplicated.add(key)
            period[slot] = kwh

    dropped = 0
    kept: list[tuple[str, dt.date]] = []
    rows: list[np.ndarray] = []
    for key in sorted(periods):
        values = np.frombuffer(periods[key])
        if key in duplicated or np.isnan(values).any():
            dropped += 1
            continue
        kept.append(key)
        rows.append(values)
    if not kept:
        raise EmptyResult("no complete period survived ingestion")

    profile_set = ProfileSet(
        values=np.stack(rows),
        household_ids=tuple(h for h, _ in kept),
        start_dates=tuple(d for _, d in kept),
        horizon=horizon,
        labels=tuple(season_label(d) for _, d in kept),
    )
    return IngestResult(profiles=profile_set, rows_read=rows_read, dropped_periods=dropped)


def split_households(data: ProfileSet, spec: SplitSpec) -> tuple[ProfileSet, ProfileSet]:
    """Partition by household, never by individual profile.

    The same seed always produces the same membership. Both sides must
    end up with at least two households.
    """
    households = sorted(set(data.household_ids))
    n = len(households)
    n_holdout = int(round(spec.holdout_fraction * n))
    if n_holdout < 2 or n - n_holdout < 2:
        raise TooFewHouseholds(
            f"{n} households at fraction {spec.holdout_fraction} leaves a side below 2"
        )
    rng = np.random.default_rng(spec.seed)
    order = rng.permutation(n)
    holdout_ids = {households[i] for i in order[:n_holdout]}
    mask = np.array([hid in holdout_ids for hid in data.household_ids])
    return data.subset(~mask), data.subset(mask)


def _slot_columns(length: int) -> list[str]:
    return [f"hh_{i:02d}" for i in range(length)]


# Rows formatted per repr() call by the writers; 512 was no faster and held four times the transient strings
_BLOCK_ROWS = 128
_CHUNK_LINES = 256  # lines parsed per np.loadtxt call by read_wide
_QUOTED = frozenset(',"\r\n')  # the characters that make csv.writer quote a field
_LOADTXT_SPACE = "\x1c\x1d\x1e\x1f"  # taken as space around a number by np.loadtxt, not by float()


def _csv_prefix(*fields: str) -> str:
    """``fields`` as csv.writer writes them at the start of a row, with the comma that follows."""
    if _QUOTED.isdisjoint("".join(fields)):
        return ",".join(fields) + ","
    buffer = io.StringIO()
    csv.writer(buffer).writerow(fields)
    return buffer.getvalue()[:-2] + ","  # drop the writer's \r\n


def _row_texts(values: np.ndarray):
    """Each row of ``values`` as csv.writer writes it: float reprs, comma-separated.
    One repr() of a block's nested list formats every value of the block."""
    for start in range(0, len(values), _BLOCK_ROWS):
        text = repr(values[start:start + _BLOCK_ROWS].tolist())
        yield from text[2:-2].replace(", ", ",").split("],[")


def write_wide(profiles: ProfileSet, path) -> None:
    """Write the canonical wide profile file all tools share, as csv.writer would."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["household_id", "start_date", "label", *_slot_columns(profiles.horizon.length)])
        for household, day, label, text in zip(
            profiles.household_ids, profiles.start_dates, profiles.labels, _row_texts(profiles.values)
        ):
            fh.write(f"{_csv_prefix(household, day.isoformat(), label)}{text}\r\n")


def _header_horizon(header, path, horizon: Horizon | None) -> Horizon:
    """The horizon of a wide file's header row (None if empty), checked against ``horizon``."""
    if header is None:
        raise EmptyResult(f"{path} is empty")
    n_slots = len(header) - 3
    if header[:3] != ["household_id", "start_date", "label"]:
        raise MalformedRow(1, "expected header household_id,start_date,label,hh_00,...", path)
    if horizon is not None and n_slots != horizon.length:
        raise HorizonMismatch(
            f"{path} has {n_slots} value columns, expected {horizon.length}"
        )
    if horizon is None:
        try:
            horizon = Horizon(n_slots)
        except ValueError:
            raise HorizonMismatch(f"{path} has {n_slots} value columns; no known horizon matches") from None
    if header[3:] != _slot_columns(horizon.length):
        raise MalformedRow(1, "slot columns must be hh_00..hh_{L-1}", path)
    return horizon


def read_horizon(path) -> Horizon:
    """The horizon of a wide profile file, from its header alone: no profile row is read."""
    with open(path, newline="") as fh:
        return _header_horizon(next(csv.reader(fh), None), path, None)


def _parse_chunk(lines: list[str], length: int):
    """(ids, dates, labels, values) of a chunk of wide-file lines, or None if a line
    is blank, has not ``3 + length`` fields, or holds a bad date or value, or a value
    whose magnitude is NaN or above ``MAX_KWH``.

    A line with a quote is split by csv.reader, any other at its first three commas.
    np.loadtxt parses with CPython's correctly rounded string-to-double, so its bits are
    float()'s; it refuses a few texts float() takes (``1_0``, non-ASCII digits).
    """
    text = "".join(lines)
    if any(char in text for char in _LOADTXT_SPACE):
        return None
    ids, days, labels, tails = [], [], [], []
    for line in lines:
        if '"' in line:
            try:
                fields = next(csv.reader([line]))
            except (csv.Error, StopIteration):
                return None
            if len(fields) != 3 + length:
                return None
            fields[3:] = [",".join(fields[3:])]  # a value holding , " \r or \n cannot parse
        else:
            fields = line.split(",", 3)
            if len(fields) != 4 or not fields[3] or fields[3].isspace():  # loadtxt warns on chunks of blank lines
                return None
        ids.append(fields[0])
        days.append(fields[1])
        labels.append(fields[2])
        tails.append(fields[3])
    try:
        dates = list(map(dt.date.fromisoformat, days))
        values = np.loadtxt(tails, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    # min and max are NaN if any value is, and NaN fails both tests
    if values.shape != (len(lines), length) or not (-MAX_KWH <= values.min() and values.max() <= MAX_KWH):
        return None
    return ids, dates, labels, values


def read_wide(path, horizon: Horizon | None = None) -> ProfileSet:
    """Read a canonical wide profile file.

    When ``horizon`` is given, files of the wrong width raise
    HorizonMismatch; otherwise the width must match one of the known
    horizons. Every error names ``path``.

    Lines are parsed and checked in chunks. If a chunk fails, the file is read
    again one csv record at a time, which takes what float() takes and raises
    the error of the first bad line.
    """
    with open(path, newline="") as fh:
        horizon = _header_horizon(next(csv.reader(fh), None), path, horizon)
        chunks = []
        while lines := list(islice(fh, _CHUNK_LINES)):
            chunk = _parse_chunk(lines, horizon.length)
            if chunk is None:
                chunks = _read_records(path, horizon)
                break
            chunks.append(chunk)
    if not chunks:
        raise EmptyResult(f"{path} contains no profiles")
    ids, dates, labels, values = zip(*chunks)
    return ProfileSet(
        values=np.concatenate(values),
        household_ids=tuple(chain.from_iterable(ids)),
        start_dates=tuple(chain.from_iterable(dates)),
        horizon=horizon,
        labels=tuple(chain.from_iterable(labels)),
    )


def _read_records(path, horizon: Horizon) -> list:
    """The file as one chunk for ``read_wide``, read one csv record at a time."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        horizon = _header_horizon(next(reader, None), path, horizon)

        ids: list[str] = []
        dates: list[dt.date] = []
        labels: list[str] = []
        rows: list[np.ndarray] = []
        for line, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3 + horizon.length:
                raise MalformedRow(line, f"expected {3 + horizon.length} fields, got {len(row)}", path)
            try:
                date = dt.date.fromisoformat(row[1])
            except ValueError:
                raise MalformedRow(line, f"bad start_date {row[1]!r}", path) from None
            try:
                values = np.array([float(v) for v in row[3:]])
            except ValueError:
                raise MalformedRow(line, "bad kWh value", path) from None
            if not abs(values).max() <= MAX_KWH:  # NaN fails it too
                finite = np.isfinite(values).all()
                fault = f"kWh magnitude above {MAX_KWH:g}" if finite else "non-finite kWh value"
                raise MalformedRow(line, fault, path)
            ids.append(row[0])
            dates.append(date)
            labels.append(row[2])
            rows.append(values)
    return [(ids, dates, labels, np.stack(rows))] if rows else []
