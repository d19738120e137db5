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
LONG_HEADER = ("household_id", "timestamp", "kwh")  # the header of a long reading file, which ingest reads


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
        if idx.size == 0:
            idx = idx.astype(np.int64)  # [] arrives as float64
        # numpy raises IndexError on a mask of another length, a row out of range or an
        # index array neither boolean nor integer (floats are not truncated, text not parsed)
        idx = np.arange(len(self))[idx]
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
    so a bad timestamp raises at its first line. All periods share one
    flat ``array("d")``: a new period appends the horizon's length of
    NaN and records its offset. kWh is validated finite, so a NaN slot is
    one not read yet, a slot read twice marks the period duplicated, and a
    NaN left at the end marks it incomplete. The complete periods are
    gathered, in sorted order, into one new matrix, and the flat buffer is
    freed before the set is built.
    """
    length = horizon.length
    weekly = horizon is Horizon.WEEKLY
    unread = array("d", [math.nan]) * length
    # timestamp text -> (period_start, slot)
    slot_of: dict[str, tuple[dt.date, int]] = {}
    flat = array("d")
    # (household, period start) -> offset of the period's first slot in flat
    periods: dict[tuple[str, dt.date], int] = {}
    duplicated: set[tuple[str, dt.date]] = set()
    rows_read = 0
    with open(readings_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise EmptyResult(f"{readings_path}: input file is empty")
        if tuple(c.strip() for c in header) != LONG_HEADER:
            raise MalformedRow(1, f"expected header {','.join(LONG_HEADER)}", readings_path)
        for row in reader:
            line = reader.line_num  # the physical line the record ends on
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
            offset = periods.get(key)
            if offset is None:
                offset = periods[key] = len(flat)
                flat.extend(unread)
            elif not math.isnan(flat[offset + slot]):
                duplicated.add(key)
            flat[offset + slot] = kwh

    matrix = np.frombuffer(flat).reshape(-1, length)
    incomplete = np.isnan(matrix).any(axis=1)
    kept = [
        key for key in sorted(periods)
        if key not in duplicated and not incomplete[periods[key] // length]
    ]
    dropped = len(periods) - len(kept)
    if not kept:
        raise EmptyResult("no complete period survived ingestion")
    values = matrix[np.array([periods[key] for key in kept]) // length]
    del matrix, flat  # the view holds flat's buffer: drop both so it is freed here

    profile_set = ProfileSet(
        values=values,
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


# Rows formatted per repr() call by write_wide; 512 was no faster and held four times the transient strings
_BLOCK_ROWS = 128
_CHUNK_LINES = 256  # records parsed per np.loadtxt call by read_wide
_QUOTED = frozenset(',"\r\n')  # the characters that make csv.writer quote a field
_LOADTXT_SPACE = "\x1c\x1d\x1e\x1f"  # taken as space around a number by np.loadtxt, not by float()
_WIDE_FIELDS = ("household_id", "start_date", "label")  # a wide file's header fields before its slot columns


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
        csv.writer(fh).writerow([*_WIDE_FIELDS, *_slot_columns(profiles.horizon.length)])
        for household, day, label, text in zip(
            profiles.household_ids, profiles.start_dates, profiles.labels, _row_texts(profiles.values)
        ):
            fh.write(f"{_csv_prefix(household, day.isoformat(), label)}{text}\r\n")


def _header_horizon(header, path, horizon: Horizon | None) -> Horizon:
    """The horizon of a wide file's header row (None if empty), checked against ``horizon``."""
    if header is None:
        raise EmptyResult(f"{path} is empty")
    n_slots = len(header) - 3
    if tuple(header[:3]) != _WIDE_FIELDS:
        raise MalformedRow(1, f"expected header {','.join(_WIDE_FIELDS)},hh_00,...", path)
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


def _start_date(text: str) -> dt.date:
    """The date of a YYYY-MM-DD text; ValueError on the other forms Python 3.11 takes (``20130204``)."""
    if (date := dt.date.fromisoformat(text)).isoformat() != text:
        raise ValueError(f"{text!r} is not YYYY-MM-DD")
    return date


def _records(fh, line: int, length: int):
    """(the physical line it ends on, its text, its fields) of each non-blank record of ``fh`` after
    ``line``. A line without a quote is split at its first three commas. A line with one starts a csv
    record, whose text is its list of fields: its value fields are joined into one if there are
    ``length`` of them, else it has no fields."""
    for text in fh:
        line += 1
        if '"' not in text:
            if not text.isspace():
                yield line, text, text.split(",", 3)
            continue
        reader = csv.reader(chain([text], fh))
        row = next(reader)
        line += reader.line_num - 1
        if len(row) > 1 or row and row[0].strip():
            yield line, row, [*row[:3], ",".join(row[3:])] if len(row) == 3 + length else ()


def _parse_chunk(records: list, length: int, path):
    """(ids, dates, labels, values) of a chunk of ``_records``; repeated id, date and label texts
    share one object each. np.loadtxt parses all values with CPython's correctly rounded
    string-to-double, so its bits are float()'s. A wrong field count, a bad date, a
    ``_LOADTXT_SPACE`` character, a text np.loadtxt refuses (float() takes ``1_0``), a NaN or a
    magnitude above ``MAX_KWH`` sends the chunk to ``_check_records``."""
    fields = [record[2] for record in records]
    if any(len(f) != 4 or not f[3] or f[3].isspace() for f in fields):  # loadtxt warns on chunks of blank lines
        return _check_records(records, length, path)
    ids, days, labels, tails = zip(*fields)
    cells: dict[str, str] = {}  # a household repeats per period
    ids, labels = ([cells.setdefault(cell, cell) for cell in column] for column in (ids, labels))
    text = "".join(tails)
    try:
        date_of = {day: _start_date(day) for day in set(days)}
        values = np.loadtxt(tails, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        values = None
    # min and max are NaN if any value is, and NaN fails the test
    if (values is None or values.shape != (len(records), length) or any(char in text for char in _LOADTXT_SPACE)
            or not -MAX_KWH <= values.min() <= values.max() <= MAX_KWH):
        return _check_records(records, length, path)
    return ids, [date_of[day] for day in days], labels, values


def _check_records(records: list, length: int, path):
    """``_parse_chunk`` of a chunk its bulk parse refused, one record at a time in line
    order, with float(): the first bad record raises, naming the physical line it ends on."""
    checked = []
    for line, row, _ in records:
        row = row.rstrip("\r\n").split(",") if isinstance(row, str) else row
        if len(row) != 3 + length:
            raise MalformedRow(line, f"expected {3 + length} fields, got {len(row)}", path)
        try:
            date = _start_date(row[1])
        except ValueError:
            raise MalformedRow(line, f"bad start_date {row[1]!r}", path) from None
        try:
            values = np.array([float(v) for v in row[3:]])
        except ValueError:
            raise MalformedRow(line, "bad kWh value", path) from None
        if not abs(values).max() <= MAX_KWH:  # NaN fails it too
            fault = f"kWh magnitude above {MAX_KWH:g}" if np.isfinite(values).all() else "non-finite kWh value"
            raise MalformedRow(line, fault, path)
        checked.append((row[0], date, row[2], values))
    ids, dates, labels, rows = zip(*checked)
    return ids, dates, labels, np.stack(rows)


def read_wide(path, horizon: Horizon | None = None) -> ProfileSet:
    """Read a canonical wide profile file.

    When ``horizon`` is given, files of the wrong width raise
    HorizonMismatch; otherwise the width must match one of the known
    horizons. Every error names ``path``. The file is read once; only
    a chunk that fails the bulk parse is checked again, record by record.
    """
    with open(path, newline="") as fh:
        horizon = _header_horizon(next(csv.reader(fh), None), path, horizon)
        records = _records(fh, 1, horizon.length)  # a header that passes holds no line break
        batches = iter(lambda: list(islice(records, _CHUNK_LINES)), [])
        chunks = [_parse_chunk(batch, horizon.length, path) for batch in batches]
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
