from __future__ import annotations

import csv
import dataclasses
import datetime as dt
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthmeter import demo, profiles, report
from synthmeter.errors import (
    EmptyResult,
    HorizonMismatch,
    MalformedRow,
    NegativeValue,
    NonFiniteValue,
    SynthmeterError,
    TooFewHouseholds,
)
from synthmeter.profiles import (
    MAX_KWH,
    Horizon,
    IngestResult,
    ProfileSet,
    SplitSpec,
    _header_horizon,
    _parse_timestamp,
    _slot_columns,
    _week_start,
    ingest,
    read_wide,
    season_label,
    split_households,
    write_wide,
)

from conftest import profile_set


def reference_write_wide(profiles, path):
    """The per-value writer that write_wide must reproduce byte for byte."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["household_id", "start_date", "label", *_slot_columns(profiles.horizon.length)])
        for i in range(len(profiles)):
            writer.writerow(
                [
                    profiles.household_ids[i],
                    profiles.start_dates[i].isoformat(),
                    profiles.labels[i],
                    *(repr(float(v)) for v in profiles.values[i]),
                ]
            )


def reference_write_long_csv(profiles, path):
    """The datetime-based writer that demo.write_long_csv must reproduce."""
    rows = 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["household_id", "timestamp", "kwh"])
        for i in range(len(profiles)):
            day = profiles.start_dates[i]
            for slot in range(profiles.horizon.length):
                ts = dt.datetime.combine(day, dt.time(0, 0)) + dt.timedelta(minutes=30 * slot)
                writer.writerow(
                    [profiles.household_ids[i], ts.isoformat(), repr(float(profiles.values[i, slot]))]
                )
                rows += 1
    return rows


WRITERS = ((write_wide, reference_write_wide), (demo.write_long_csv, reference_write_long_csv))


def reference_make_population(n_households, days_per_household, seed, start, day_step, spread):
    """The per-day generator that demo.make_population must reproduce bit for bit."""
    rng = np.random.default_rng(seed)
    rows, ids, dates = [], [], []
    slots = np.arange(48)
    for h in range(n_households):
        arch = demo._household_archetype(rng, spread=spread)
        for d in range(days_per_household):
            day = start + dt.timedelta(days=d * day_step)
            morning = arch["morning_peak"] * np.exp(-0.5 * ((slots - arch["morning_slot"]) / arch["width"]) ** 2)
            evening = arch["evening_peak"] * np.exp(-0.5 * ((slots - arch["evening_slot"]) / arch["width"]) ** 2)
            seasonal = arch["winter_factor"] if season_label(day) == "WS" else 1.0
            shape = (arch["base"] + morning + evening) * seasonal
            rows.append(np.maximum(shape * rng.lognormal(mean=0.0, sigma=0.18, size=48), 0.0))
            ids.append(f"H{h:05d}")
            dates.append(day)
    return ProfileSet(
        values=np.stack(rows), household_ids=tuple(ids), start_dates=tuple(dates), horizon=Horizon.DAILY,
        labels=tuple(season_label(d) for d in dates),
    )


def reference_read_wide(path, horizon=None):
    """The per-record reader that read_wide must agree with, errors included."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        horizon = _header_horizon(next(reader, None), path, horizon)
        ids, dates, labels, rows = [], [], [], []
        for row in reader:
            line = reader.line_num  # the physical line the record ends on
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3 + horizon.length:
                raise MalformedRow(line, f"expected {3 + horizon.length} fields, got {len(row)}", path)
            try:
                date = dt.date.fromisoformat(row[1])
                if date.isoformat() != row[1]:  # YYYY-MM-DD only, as Python 3.10 reads it
                    raise ValueError(row[1])
            except ValueError:
                raise MalformedRow(line, f"bad start_date {row[1]!r}", path) from None
            try:
                values = np.array([float(v) for v in row[3:]])
            except ValueError:
                raise MalformedRow(line, "bad kWh value", path) from None
            if not abs(values).max() <= MAX_KWH:
                finite = np.isfinite(values).all()
                fault = f"kWh magnitude above {MAX_KWH:g}" if finite else "non-finite kWh value"
                raise MalformedRow(line, fault, path)
            ids.append(row[0])
            dates.append(date)
            labels.append(row[2])
            rows.append(values)
    if not rows:
        raise EmptyResult(f"{path} contains no profiles")
    return ProfileSet(
        values=np.stack(rows),
        household_ids=tuple(ids),
        start_dates=tuple(dates),
        horizon=horizon,
        labels=tuple(labels),
    )


def reference_ingest(readings_path, horizon):
    """The dict-bucket ingest that ingest must agree with, errors included."""
    length = horizon.length
    periods = {}
    duplicated = set()
    rows_read = 0
    with open(readings_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise EmptyResult(f"{readings_path}: input file is empty")
        expected = ["household_id", "timestamp", "kwh"]
        if [c.strip() for c in header] != expected:
            raise MalformedRow(1, f"expected header {','.join(expected)}", readings_path)
        for row in reader:
            line = reader.line_num  # the physical line the record ends on
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise MalformedRow(line, f"expected 3 fields, got {len(row)}", readings_path)
            household = row[0].strip()
            if not household:
                raise MalformedRow(line, "empty household_id", readings_path)
            ts = _parse_timestamp(row[1], line, readings_path)
            try:
                kwh = float(row[2])
            except ValueError:
                raise MalformedRow(line, f"bad kwh value {row[2]!r}", readings_path) from None
            if not np.isfinite(kwh) or kwh < 0:
                raise MalformedRow(line, f"kwh must be finite and non-negative, got {row[2]}", readings_path)
            rows_read += 1
            day = ts.date()
            slot_of_day = ts.hour * 2 + (1 if ts.minute == 30 else 0)
            if horizon is Horizon.DAILY:
                start = day
                slot = slot_of_day
            else:
                start = _week_start(day)
                slot = (day - start).days * 48 + slot_of_day
            key = (household, start)
            bucket = periods.setdefault(key, {})
            if slot in bucket:
                duplicated.add(key)
            bucket[slot] = kwh

    dropped = 0
    kept = []
    for key in sorted(periods):
        if key in duplicated or len(periods[key]) != length:
            dropped += 1
            continue
        slots = periods[key]
        kept.append((key[0], key[1], np.array([slots[i] for i in range(length)])))
    if not kept:
        raise EmptyResult("no complete period survived ingestion")
    profile_set = ProfileSet(
        values=np.stack([v for _, _, v in kept]),
        household_ids=tuple(h for h, _, _ in kept),
        start_dates=tuple(d for _, d, _ in kept),
        horizon=horizon,
        labels=tuple(season_label(d) for _, d, _ in kept),
    )
    return IngestResult(profiles=profile_set, rows_read=rows_read, dropped_periods=dropped)


def assert_same_ingest(got, want):
    assert np.array_equal(got.profiles.values, want.profiles.values)
    assert got.profiles.household_ids == want.profiles.household_ids
    assert got.profiles.start_dates == want.profiles.start_dates
    assert got.profiles.labels == want.profiles.labels
    assert got.profiles.horizon is want.profiles.horizon
    assert got.rows_read == want.rows_read
    assert got.dropped_periods == want.dropped_periods


def write_long(path, rows):
    with open(path, "w") as fh:
        fh.write("household_id,timestamp,kwh\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def day_rows(household, day, values):
    base = dt.datetime.fromisoformat(f"{day}T00:00:00")
    return [
        (household, (base + dt.timedelta(minutes=30 * i)).isoformat(), values[i])
        for i in range(len(values))
    ]


class TestIngest:
    def test_single_complete_day(self, tmp_path):
        path = tmp_path / "readings.csv"
        write_long(path, day_rows("h1", "2013-02-03", [0.5] * 48))
        result = ingest(path, Horizon.DAILY)
        assert len(result.profiles) == 1
        assert result.dropped_periods == 0
        assert result.profiles.start_dates[0] == dt.date(2013, 2, 3)
        np.testing.assert_array_equal(result.profiles.values[0], np.full(48, 0.5))

    def test_missing_slot_drops_day(self, tmp_path):
        path = tmp_path / "readings.csv"
        rows = day_rows("h1", "2013-02-03", [0.5] * 48)[:-1]  # 47 readings
        rows += day_rows("h1", "2013-02-04", [0.2] * 48)
        write_long(path, rows)
        result = ingest(path, Horizon.DAILY)
        assert len(result.profiles) == 1
        assert result.dropped_periods == 1

    def test_duplicate_slot_drops_day(self, tmp_path):
        path = tmp_path / "readings.csv"
        rows = day_rows("h1", "2013-02-03", [0.5] * 48)
        rows.append(("h1", "2013-02-03T10:00:00", 0.9))
        rows += day_rows("h1", "2013-02-04", [0.2] * 48)
        write_long(path, rows)
        result = ingest(path, Horizon.DAILY)
        assert len(result.profiles) == 1
        assert result.dropped_periods == 1

    def test_three_households_two_days_each(self, tmp_path):
        # hand-built 288-row fixture: 3 households x 2 complete days
        path = tmp_path / "readings.csv"
        rows = []
        for h in ("a", "b", "c"):
            for day in ("2013-06-01", "2013-06-02"):
                rows += day_rows(h, day, [0.1] * 48)
        assert len(rows) == 288
        write_long(path, rows)
        result = ingest(path, Horizon.DAILY)
        assert len(result.profiles) == 6
        assert result.rows_read == 288

    def test_output_sorted_by_household_then_date(self, tmp_path):
        path = tmp_path / "readings.csv"
        rows = day_rows("b", "2013-06-01", [0.1] * 48)
        rows += day_rows("a", "2013-06-02", [0.1] * 48)
        rows += day_rows("a", "2013-06-01", [0.1] * 48)
        write_long(path, rows)
        result = ingest(path, Horizon.DAILY)
        keys = list(zip(result.profiles.household_ids, result.profiles.start_dates))
        assert keys == sorted(keys)

    def test_weekly_complete_week(self, tmp_path):
        path = tmp_path / "readings.csv"
        rows = []
        monday = dt.date(2013, 6, 3)
        for d in range(7):
            rows += day_rows("h1", (monday + dt.timedelta(days=d)).isoformat(), [0.3] * 48)
        write_long(path, rows)
        result = ingest(path, Horizon.WEEKLY)
        assert len(result.profiles) == 1
        assert result.profiles.horizon is Horizon.WEEKLY
        assert result.profiles.start_dates[0] == monday

    def test_weekly_partial_week_dropped(self, tmp_path):
        path = tmp_path / "readings.csv"
        rows = []
        monday = dt.date(2013, 6, 3)
        for d in range(6):  # one day short
            rows += day_rows("h1", (monday + dt.timedelta(days=d)).isoformat(), [0.3] * 48)
        write_long(path, rows)
        with pytest.raises(EmptyResult):
            ingest(path, Horizon.WEEKLY)

    def test_malformed_timestamp_minute(self, tmp_path):
        path = tmp_path / "readings.csv"
        write_long(path, [("h1", "2013-02-03T00:15:00", 0.5)])
        with pytest.raises(MalformedRow) as err:
            ingest(path, Horizon.DAILY)
        assert err.value.line == 2

    def test_negative_kwh_rejected(self, tmp_path):
        path = tmp_path / "readings.csv"
        write_long(path, [("h1", "2013-02-03T00:00:00", -0.5)])
        with pytest.raises(MalformedRow):
            ingest(path, Horizon.DAILY)

    def test_unparseable_kwh_reports_line(self, tmp_path):
        path = tmp_path / "readings.csv"
        rows = day_rows("h1", "2013-02-03", [0.5] * 48)
        rows[10] = ("h1", rows[10][1], "oops")
        write_long(path, rows)
        with pytest.raises(MalformedRow) as err:
            ingest(path, Horizon.DAILY)
        assert err.value.line == 12

    def test_error_names_physical_line_after_quoted_newline(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text('household_id,timestamp,kwh\n"h\n1",2013-02-03T00:00:00,0.5\nh1,2013-02-03T00:30:00,x\n')
        with pytest.raises(MalformedRow) as err:
            ingest(path, Horizon.DAILY)
        assert str(err.value) == f"{path}: line 4: bad kwh value 'x'"

    def test_empty_input(self, tmp_path):
        path = tmp_path / "readings.csv"
        write_long(path, [])
        with pytest.raises(EmptyResult):
            ingest(path, Horizon.DAILY)


    @pytest.mark.parametrize("horizon", [Horizon.DAILY, Horizon.WEEKLY])
    def test_matches_reference_on_shuffled_messy_input(self, tmp_path, horizon):
        rng = np.random.default_rng(11)
        monday = dt.date(2013, 5, 27)  # the weeks span May -> June, WS -> SA
        rows = []
        for household in ("b", "a"):  # both households read at the same timestamps
            for d in range(14):
                day = (monday + dt.timedelta(days=d)).isoformat()
                rows += day_rows(household, day, rng.gamma(0.5, 0.4, 48).tolist())
        stamps = [r[1] for r in rows]
        rows[3] = ("b", stamps[3] + "Z", rows[3][2])
        rows[50] = ("b", f"  {stamps[50]} ", rows[50][2])
        rows[700] = ("a", f" {stamps[700]}Z", rows[700][2])
        rows.append(("a", stamps[60], 0.25))  # duplicated slot: day 2 of "a"
        del rows[672 + 9 * 48 + 5]  # missing slot: day 9 of "a", in its second week
        rows = [rows[i] for i in rng.permutation(len(rows))]
        path = tmp_path / "readings.csv"
        write_long(path, rows)
        got = ingest(path, horizon)
        assert_same_ingest(got, reference_ingest(path, horizon))
        assert got.dropped_periods == 2
        assert len(got.profiles) == (26 if horizon is Horizon.DAILY else 2)

    def test_matches_reference_on_demo_population(self, tmp_path):
        path = tmp_path / "readings.csv"
        demo.write_long_csv(demo.make_population(15, 6, seed=3, day_step=61), path)
        assert_same_ingest(ingest(path, Horizon.DAILY), reference_ingest(path, Horizon.DAILY))

    def test_bad_timestamp_raises_at_first_line_though_repeated(self, tmp_path):
        path = tmp_path / "readings.csv"
        rows = day_rows("h1", "2013-02-03", [0.5] * 4)
        rows.insert(2, ("h1", "2013-02-03T00:15:00", 0.5))  # line 4
        rows.append(("h2", "2013-02-03T00:15:00", 0.5))  # line 7
        write_long(path, rows)
        with pytest.raises(MalformedRow) as err:
            ingest(path, Horizon.DAILY)
        assert err.value.line == 4
        assert "not on a half-hour boundary" in str(err.value)

    @pytest.mark.parametrize(
        "bad",
        [
            ("h1", "2013-02-03T00:15:00", 0.5),
            ("h1", "2013-02-03T00:00:01", 0.5),
            ("h1", "03/02/2013 00:00", 0.5),
            ("h1", "2013-02-03T00:30:00", "nan"),
            ("h1", "2013-02-03T00:30:00", "inf"),
            ("h1", "2013-02-03T00:30:00", -0.5),
            ("h1", "2013-02-03T00:30:00", "oops"),
            (" ", "2013-02-03T00:30:00", 0.5),
            ("h1", "2013-02-03T00:30:00"),
        ],
        ids=["quarter_hour", "seconds", "not_iso", "nan", "inf", "negative", "text", "no_household", "two_fields"],
    )
    def test_errors_match_reference(self, tmp_path, bad):
        path = tmp_path / "readings.csv"
        rows = day_rows("h1", "2013-02-03", [0.5] * 48)
        rows.insert(7, bad)  # after the same timestamps were read once
        rows.insert(40, bad)
        write_long(path, rows)
        with pytest.raises(MalformedRow) as want:
            reference_ingest(path, Horizon.DAILY)
        with pytest.raises(MalformedRow) as got:
            ingest(path, Horizon.DAILY)
        assert got.value.line == want.value.line == 9
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(f"{path}: line 9: ")

    def test_empty_file_error_names_the_file(self, tmp_path):
        path = tmp_path / "readings.csv"
        path.write_text("")
        with pytest.raises(EmptyResult) as err:
            ingest(path, Horizon.DAILY)
        assert str(err.value) == f"{path}: input file is empty"

    def test_header_error_names_the_file(self, tmp_path):
        path = tmp_path / "readings.csv"
        path.write_text("household,timestamp,kwh\n")
        with pytest.raises(MalformedRow) as err:
            ingest(path, Horizon.DAILY)
        assert str(err.value).startswith(f"{path}: line 1: expected header")

    def test_memory_per_period_is_compact(self, tmp_path):
        path = tmp_path / "readings.csv"
        demo.write_long_csv(demo.make_population(100, 20, seed=1, day_step=3), path)
        tracemalloc.start()
        try:
            result = ingest(path, Horizon.DAILY)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.profiles) == 2000
        # 384 bytes of values per period; the flat buffer and the gathered matrix hold them twice
        assert peak / 2000 < 1300, f"{peak / 2000:.0f} bytes per period"

    def test_demo_setup_holds_each_matrix_once(self, tmp_path):
        # build_demo_workspace splits the population it drew and drops each profile
        # matrix after its last reader
        households, days = 100, 20
        value_bytes = households * days * 48 * 8
        tracemalloc.start()
        try:
            demo.build_demo_workspace(tmp_path / "ws", households=households, days=days, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / value_bytes < 4.5, f"peak {peak / value_bytes:.2f}x the population's values"


class TestSeasonLabel:
    @pytest.mark.parametrize(
        "month,expected",
        [(12, "WS"), (1, "WS"), (5, "WS"), (6, "SA"), (9, "SA"), (11, "SA")],
    )
    def test_month_rule(self, month, expected):
        assert season_label(dt.date(2013, month, 15)) == expected

    def test_weekly_takes_first_day_label(self, tmp_path):
        path = tmp_path / "readings.csv"
        rows = []
        monday = dt.date(2013, 5, 27)  # week spans May -> June
        for d in range(7):
            rows += day_rows("h1", (monday + dt.timedelta(days=d)).isoformat(), [0.3] * 48)
        write_long(path, rows)
        result = ingest(path, Horizon.WEEKLY)
        assert result.profiles.labels[0] == "WS"


class TestWideFormat:
    @pytest.mark.parametrize("horizon", [Horizon.DAILY, Horizon.WEEKLY])
    def test_writers_byte_identical_to_reference(self, tmp_path, horizon):
        rng = np.random.default_rng(4)
        n = 9
        values = rng.gamma(0.5, 0.4, (n, horizon.length))
        values[0, :6] = [0.0, -0.0, 0.1 + 0.2, 1e-300, 5e-324, 123456789.125]
        values[1] = 1.0 / 3.0
        source = profile_set(
            values,
            horizon=horizon,
            labels=["WS", "SA", "", "seen", "a,b", 'q"t', "WS", "SA", ""],
            start_dates=[dt.date(2012, 12, 31) + dt.timedelta(days=5 * i) for i in range(n)],
        )
        # ids csv.writer must quote (and one it must not)
        ids = ("h,1", 'h"2', " h3", "h\n4", "", *source.household_ids[5:])
        for case in (source, dataclasses.replace(source, household_ids=ids)):
            for writer, reference in WRITERS:
                got, want = tmp_path / "got.csv", tmp_path / "want.csv"
                count = writer(case, got)
                assert count == reference(case, want)
                assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("horizon", [Horizon.DAILY, Horizon.WEEKLY])
    def test_writers_byte_identical_across_block_edges(self, tmp_path, monkeypatch, horizon):
        monkeypatch.setattr(profiles, "_BLOCK_ROWS", 3)  # blocks of 3, 3, 3 and a short last 1
        rng = np.random.default_rng(11)
        n = 10
        source = dataclasses.replace(
            profile_set(rng.gamma(0.5, 0.4, (n, horizon.length)), horizon=horizon, labels=["WS", "a,b"] * 5),
            household_ids=tuple(f"h{i}" if i % 4 else f'h"{i}' for i in range(n)),
        )
        for writer, reference in WRITERS:
            got, want = tmp_path / "got.csv", tmp_path / "want.csv"
            assert writer(source, got) == reference(source, want)
            assert got.read_bytes() == want.read_bytes()

    def test_demo_workspace_writers_byte_identical(self, small_population, tmp_path):
        write_wide(small_population, tmp_path / "got.csv")
        reference_write_wide(small_population, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        assert demo.write_long_csv(small_population, tmp_path / "got_long.csv") == 60 * 8 * 48
        reference_write_long_csv(small_population, tmp_path / "want_long.csv")
        assert (tmp_path / "got_long.csv").read_bytes() == (tmp_path / "want_long.csv").read_bytes()

    def test_round_trip_identical(self, small_population, tmp_path):
        path = tmp_path / "wide.csv"
        write_wide(small_population, path)
        again = read_wide(path)
        assert np.array_equal(again.values, small_population.values)
        assert again.household_ids == small_population.household_ids
        assert again.start_dates == small_population.start_dates
        assert again.labels == small_population.labels

    def test_read_applies_horizon(self, small_population, tmp_path):
        path = tmp_path / "synthetic.csv"
        write_wide(small_population, path)
        loaded = read_wide(path, horizon=Horizon.DAILY)
        assert loaded.horizon is Horizon.DAILY
        assert len(loaded) == len(small_population)

    def test_read_memory_is_bounded_by_the_values(self, tmp_path):
        population = demo.make_population(250, 20, seed=2, day_step=18)
        path = tmp_path / "wide.csv"
        write_wide(population, path)
        tracemalloc.start()
        try:
            got = read_wide(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(got) == 5000
        assert peak < 3.5 * got.values.nbytes, f"peak {peak / got.values.nbytes:.2f}x the values"

    def test_bulk_path_shares_repeated_cells(self, tmp_path, monkeypatch):
        # 60 households of 20 days spread over a year: 1,200 rows in five chunks,
        # each holding a run of households, a few dozen dates and both labels
        population = demo.make_population(60, 20, seed=3, day_step=18)
        ids = list(population.household_ids)
        ids[300:320] = ["H,300"] * 20  # ids csv.writer quotes, in the second and the last chunk
        ids[-1] = 'H"59'
        monkeypatch.setattr(profiles, "_check_records", None)  # the bulk path alone
        for source in (population, dataclasses.replace(population, household_ids=tuple(ids))):
            path = tmp_path / "wide.csv"
            write_wide(source, path)
            want = reference_read_wide(path)
            got = read_wide(path)
            assert got.values.tobytes() == want.values.tobytes()
            assert (got.household_ids, got.start_dates, got.labels) == (
                want.household_ids, want.start_dates, want.labels
            )
            assert got.household_ids == source.household_ids
            assert set(got.labels) == {profiles.WINTER_SPRING, profiles.SUMMER_AUTUMN}
            size = profiles._CHUNK_LINES
            for start in range(0, len(got), size):
                for cells in (got.household_ids, got.start_dates, got.labels):
                    chunk = cells[start : start + size]
                    assert len({id(cell) for cell in chunk}) == len(set(chunk))

    def test_quote_in_last_chunk_opens_the_file_once(self, tmp_path, monkeypatch):
        rows = [wide_row(i) for i in range(2 * profiles._CHUNK_LINES)]
        path = tmp_path / "wide.csv"
        path.write_text(wide_text([*rows, '"h,q",' + ",".join(wide_row(0)[1:])]))
        opened = []
        monkeypatch.setattr(profiles, "open", lambda *args, **kw: opened.append(args[0]) or open(*args, **kw),
                            raising=False)
        got = read_wide(path)
        assert opened == [path]
        assert len(got) == len(rows) + 1 and got.household_ids[-1] == "h,q"

    def test_header_width_checked(self, tmp_path):
        path = tmp_path / "wide.csv"
        cols = ",".join(f"hh_{i:02d}" for i in range(47))
        path.write_text(f"household_id,start_date,label,{cols}\n")
        with pytest.raises(HorizonMismatch):
            read_wide(path, horizon=Horizon.DAILY)

    def test_bad_value_reports_line(self, tmp_path):
        source = profile_set(np.full((2, 48), 0.4))
        path = tmp_path / "wide.csv"
        write_wide(source, path)
        lines = path.read_text().splitlines()
        fields = lines[2].split(",")
        fields[5] = "bad"
        lines[2] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedRow) as err:
            read_wide(path)
        assert err.value.line == 3

    def test_error_names_physical_line_after_quoted_newline(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text(wide_text(['"h\n1",' + ",".join(wide_row(1)[1:]), with_value(wide_row(2), 7, "x")]))
        with pytest.raises(MalformedRow) as err:
            read_wide(path)
        assert str(err.value) == f"{path}: line 4: bad kWh value"


def wide_text(rows, length=48, newline="\n"):
    """A wide file: the header, then ``rows`` (each a list of field texts or a raw line)."""
    header = ["household_id", "start_date", "label", *_slot_columns(length)]
    lines = [",".join(row) if isinstance(row, list) else row for row in [header, *rows]]
    return newline.join(lines) + newline


def wide_row(i, length=48, day="2013-02-04", label="WS"):
    return [f"h{i}", day, label, *(repr(0.01 * (i + 1) * (slot + 1)) for slot in range(length))]


def with_value(row, slot, text):
    row = list(row)
    row[3 + slot] = text
    return row


# the profile row that holds the fault: the first of the third chunk of 2 lines
FAULT_AT = 4


def faulty(*fault_rows):
    rows = [wide_row(i) for i in range(8)]
    rows[FAULT_AT:FAULT_AT + len(fault_rows)] = fault_rows
    return wide_text(rows)


READ_CASES = {
    # text, and whether it is read without the check by record (else one chunk of two lines is)
    "lf": (wide_text([wide_row(i) for i in range(7)]), True),
    "crlf": (wide_text([wide_row(i) for i in range(7)], newline="\r\n"), True),
    "cr": (wide_text([wide_row(i) for i in range(7)], newline="\r"), True),
    "no_final_newline": (wide_text([wide_row(i) for i in range(5)])[:-1], True),
    "quoted": (wide_text([
        *(wide_row(i) for i in range(3)),
        '"a,b",2013-02-04,"q""t",' + ",".join(wide_row(3)[3:]),
        'a"b,2013-02-04,"WS",' + ",".join(f'"{v}"' for v in wide_row(4)[3:]),
        *(wide_row(i) for i in range(5, 7)),
    ]), True),
    "float_texts": (wide_text([
        *(wide_row(i) for i in range(3)),
        with_value(with_value(with_value(wide_row(3), 0, "-0.0"), 1, "5e-324"), 2, repr(0.1 + 0.2)),
        with_value(with_value(with_value(wide_row(4), 0, " 1.5 "), 1, "1E2"), 2, "+.5"),
        with_value(with_value(wide_row(5), 47, repr(MAX_KWH)), 0, "\u20031.5\xa0"),
    ]), True),
    "weekly": (wide_text([wide_row(i, length=336, day="2013-02-04") for i in range(5)], length=336), True),
    "blank_lines": (wide_text([*(wide_row(i) for i in range(4)), "", "   ", '""', wide_row(4), ""]), True),
    "quoted_newline": (
        wide_text([*(wide_row(i) for i in range(3)), '"h\n3",2013-02-04,"W\r\nS",' + ",".join(wide_row(3)[3:])]), True
    ),
    "underscore_digits": (wide_text([*(wide_row(i) for i in range(4)), with_value(wide_row(4), 3, "1_0")]), False),
    "non_ascii_digits": (wide_text([*(wide_row(i) for i in range(4)), with_value(wide_row(4), 3, "\u0661.5")]),
                         False),
}

READ_FAULTS = {
    "field_count": faulty(wide_row(9)[:-1]),
    "field_count_whole_chunk": faulty(wide_row(9)[:-1], wide_row(10)[:-1]),
    "field_count_quoted_comma": faulty(wide_row(9)[:-2] + ['"0.5,0.5"']),
    "metadata_only": faulty(wide_row(9)[:3]),
    "no_values_whole_chunk": faulty([*wide_row(9)[:3], ""], [*wide_row(10)[:3], ""]),
    "bad_date": faulty(wide_row(9, day="2013-02-30")),
    "basic_format_date": faulty(wide_row(9, day="20130204")),  # Python 3.11's fromisoformat takes these two
    "week_date": faulty(wide_row(9, day="2013-W06-1")),
    "bad_value_then_bad_date": faulty(with_value(wide_row(9), 7, "x"), wide_row(10, day="2013-02-30")),
    "bad_value": faulty(with_value(wide_row(9), 7, "x")),
    "empty_value": faulty(with_value(wide_row(9), 7, "")),
    "file_separator_after_value": faulty(with_value(wide_row(9), 7, "0.5\x1c")),
    "nan": faulty(with_value(wide_row(9), 7, "nan")),
    "inf": faulty(with_value(wide_row(9), 7, "-inf")),
    "overflow_to_inf": faulty(with_value(wide_row(9), 7, "1e400")),
    "above_max_kwh": faulty(with_value(wide_row(9), 7, "1e300")),
    "negative": faulty(with_value(wide_row(9), 7, "-0.5")),
    "empty_file": "",
    "header_only": wide_text([]),
    "blank_only": wide_text(["", " "]),
    "bad_header": wide_text([wide_row(0)]).replace("household_id", "household", 1),
}


class TestReadWideOracle:
    """read_wide against the per-record reader, in chunks of two lines."""

    @pytest.fixture(autouse=True)
    def few_lines(self, monkeypatch):
        monkeypatch.setattr(profiles, "_CHUNK_LINES", 2)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", list(READ_CASES))
    def test_reads_what_the_reference_reads(self, tmp_path, monkeypatch, case):
        text, bulk = READ_CASES[case]
        path = tmp_path / "wide.csv"
        path.write_bytes(text.encode())
        want = reference_read_wide(path)
        rechecked, check = [], profiles._check_records

        def spy(chunk, *args):
            rechecked.append(chunk)
            return check(chunk, *args)

        monkeypatch.setattr(profiles, "_check_records", spy)
        got = read_wide(path)
        assert len(rechecked) == (0 if bulk else 1)  # a clean chunk never reaches the check by record
        assert got.values.tobytes() == want.values.tobytes()
        assert got.household_ids == want.household_ids
        assert got.start_dates == want.start_dates
        assert got.labels == want.labels
        assert got.horizon is want.horizon

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(0.0, 1e6, allow_subnormal=True), st.integers(1, 25), st.sampled_from("efg")),
            min_size=5, max_size=5,
        )
    )
    def test_value_texts_read_to_float_bits(self, tmp_path_factory, texts):
        # long and short decimal texts of each value, every one a rounding case for the parser
        rows = [with_value(wide_row(i), 5 + i, f"{x:.{digits}{kind}}") for i, (x, digits, kind) in enumerate(texts)]
        path = tmp_path_factory.mktemp("bits") / "wide.csv"
        path.write_text(wide_text(rows))
        assert read_wide(path).values.tobytes() == reference_read_wide(path).values.tobytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", list(READ_FAULTS))
    def test_errors_match_reference(self, tmp_path, case):
        path = tmp_path / "wide.csv"
        path.write_bytes(READ_FAULTS[case].encode())
        with pytest.raises(SynthmeterError) as want:
            reference_read_wide(path)
        with pytest.raises(SynthmeterError) as got:
            read_wide(path)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)
        assert getattr(got.value, "line", None) == getattr(want.value, "line", None)
        if isinstance(want.value, MalformedRow) and want.value.line > 1:
            assert want.value.line == FAULT_AT + 2

class TestDemoPopulation:
    @pytest.mark.parametrize(
        "args",
        [
            (40, 20, 0, dt.date(2012, 1, 1), 18, 1.0),
            (30, 6, 17, dt.date(2014, 1, 2), 61, 0.2),
            (1, 1, 3, dt.date(2012, 6, 1), 7, 0.0),
        ],
    )
    def test_matches_per_day_reference(self, args):
        got, want = demo.make_population(*args), reference_make_population(*args)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.household_ids == want.household_ids
        assert got.start_dates == want.start_dates
        assert got.labels == want.labels


class TestDemoReadings:
    """build_demo_workspace splits the population it drew; the long reading file of
    that population must ingest to the same rows as its train and holdout files."""

    @pytest.mark.parametrize("households,days", [(12, 6), (40, 20)])
    def test_readings_ingest_to_train_and_holdout(self, tmp_path, households, days):
        ws = tmp_path / "ws"
        demo.build_demo_workspace(ws, households=households, days=days, seed=1)
        population = demo.make_population(households, days, seed=1, day_step=max(1, 364 // days))
        demo.write_long_csv(population, tmp_path / "readings.csv")
        got = ingest(tmp_path / "readings.csv", Horizon.DAILY)
        assert got.dropped_periods == 0
        assert len(got.profiles) == households * days
        assert got.rows_read == 48 * len(got.profiles)
        train, holdout = (read_wide(ws / f"{name}.csv", Horizon.DAILY) for name in ("train", "holdout"))
        ids = train.household_ids + holdout.household_ids
        dates = train.start_dates + holdout.start_dates
        order = sorted(range(len(ids)), key=lambda i: (ids[i], dates[i]))
        want = np.vstack([train.values, holdout.values])[order]
        assert np.array_equal(got.profiles.values.view(np.int64), want.view(np.int64))
        assert got.profiles.household_ids == tuple(ids[i] for i in order)
        assert got.profiles.start_dates == tuple(dates[i] for i in order)
        assert got.profiles.labels == tuple((train.labels + holdout.labels)[i] for i in order)

    def test_workspace_holds_only_the_files_its_manifest_names(self, tmp_path):
        ws = tmp_path / "ws"
        demo.build_demo_workspace(ws, households=12, days=6, seed=1)
        manifest = json.loads((ws / "manifest.json").read_text())
        named = {manifest[key] for key in ("train", "holdout", "synthetic", "registry")}
        named |= {manifest["utility"][key] for key in report.UTILITY_FILES}
        assert sorted(path.name for path in ws.iterdir()) == sorted({"manifest.json", *named})

    @pytest.mark.parametrize("households", [99_999, 100_000, 100_001])
    def test_population_comes_out_in_ingest_order(self, monkeypatch, households):
        # ids are padded to the largest household number, so past 100,000 households they still
        # sort as numbers and build_demo_workspace can split and write the population as drawn;
        # the archetype and day draws are stubbed, as only the metadata is checked
        monkeypatch.setattr(demo, "_household_archetype", lambda rng, spread: {})
        monkeypatch.setattr(demo, "_household_days", lambda arch, days, rng: 0.5)
        population = demo.make_population(households, 2, day_step=182)
        keys = list(zip(population.household_ids, population.start_dates))
        assert keys == sorted(keys)
        assert len(set(population.household_ids)) == households
        assert population.household_ids[-1] == f"H{households - 1:05d}"
        assert population.household_ids[0] == ("H00000" if households <= 100_000 else "H000000")

    def test_setup_formats_each_profile_once(self, tmp_path, monkeypatch):
        # each wide file formats each of its profiles once
        row_texts = profiles._row_texts
        formatted = 0

        def counted(values):
            nonlocal formatted
            for text in row_texts(values):
                formatted += 1
                yield text

        monkeypatch.setattr(profiles, "_row_texts", counted)
        ws = tmp_path / "ws"
        demo.build_demo_workspace(ws, households=12, days=6, seed=1)
        rows = {
            name: len((ws / f"{name}.csv").read_text().splitlines()) - 1
            for name in ("train", "holdout", "synthetic", "synthetic_fit", "eval", "registry")
        }
        assert rows["train"] + rows["holdout"] == 12 * 6
        assert formatted == sum(rows.values())


class TestProfileSet:
    def test_negative_values_rejected(self):
        values = np.full((5, 48), 0.4)
        values[3, 17] = values[4, 0] = -1.0
        with pytest.raises(NegativeValue, match=r"row 3 \(household h00003, 2012-01-04\)") as err:
            profile_set(values)
        assert isinstance(err.value, ValueError)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        values = np.full((5, 48), 0.4)
        values[3, 17] = bad
        values[4, 0] = bad
        with pytest.raises(SynthmeterError, match=r"row 3 \(household h00003, 2012-01-04\)"):
            profile_set(values)

    def test_values_above_max_kwh_rejected(self):
        values = np.full((5, 48), 0.4)
        values[4, 0] = MAX_KWH  # the bound itself is a valid value
        profile_set(values.copy())
        values[3, 17] = 1e300
        with pytest.raises(NonFiniteValue, match=r"kWh above 1e\+100 in profile row 3 \(household h00003, "):
            profile_set(values)

    def test_values_immutable(self, small_population):
        with pytest.raises(ValueError):
            small_population.values[0, 0] = 99.0

    @pytest.mark.parametrize("mask", [[False, True, True], [True] * 7])
    def test_subset_rejects_mask_of_another_length(self, mask):
        # numpy's own error: a short mask must not pick rows, a long one must
        # not be reported as an out-of-bounds row index
        data = profile_set(np.full((5, 48), 0.4))
        with pytest.raises(IndexError, match=f"size of axis is 5 but .* boolean axis is {len(mask)}"):
            data.subset(np.array(mask))

    @pytest.mark.parametrize("indices", [[0.7, 1.9], np.array([1.0, 2.0]), np.array(["1", "2"])])
    def test_subset_rejects_index_neither_boolean_nor_integer(self, indices):
        # numpy's own error: floats are not truncated to rows, text is not parsed as numbers
        data = profile_set(np.full((5, 48), 0.4))
        with pytest.raises(IndexError, match="must be of integer .or boolean. type"):
            data.subset(indices)

    @pytest.mark.parametrize("indices", [[], (), np.array([], dtype=np.int64), range(0)])
    def test_subset_of_no_rows_is_empty(self, indices):
        empty = profile_set(np.full((5, 48), 0.4)).subset(indices)
        assert len(empty) == 0 and empty.values.shape == (0, 48)
        assert empty.household_ids == empty.start_dates == empty.labels == ()

    def test_horizon_length_enforced(self):
        with pytest.raises(HorizonMismatch):
            ProfileSet(
                values=np.zeros((1, 40)),
                household_ids=("a",),
                start_dates=(dt.date(2012, 1, 1),),
                horizon=Horizon.DAILY,
            )


class TestSplitHouseholds:
    def test_partition_and_sizes(self, small_population):
        train, holdout = split_households(small_population, SplitSpec(holdout_fraction=0.5, seed=7))
        train_ids = set(train.household_ids)
        holdout_ids = set(holdout.household_ids)
        assert not (train_ids & holdout_ids)
        assert train_ids | holdout_ids == set(small_population.household_ids)
        assert len(train_ids) == len(holdout_ids) == 30

    def test_deterministic(self, small_population):
        spec = SplitSpec(holdout_fraction=0.3, seed=99)
        first = split_households(small_population, spec)
        second = split_households(small_population, spec)
        assert first[0].household_ids == second[0].household_ids
        assert first[1].household_ids == second[1].household_ids

    def test_fraction_counts(self):
        values = np.full((100, 48), 0.2)
        ps = ProfileSet(
            values=values,
            household_ids=tuple(f"h{i}" for i in range(100)),
            start_dates=(dt.date(2012, 1, 1),) * 100,
            horizon=Horizon.DAILY,
        )
        train, holdout = split_households(ps, SplitSpec(holdout_fraction=0.2, seed=0))
        assert len(set(train.household_ids)) == 80
        assert len(set(holdout.household_ids)) == 20

    def test_too_few_households(self):
        ps = profile_set(np.full((3, 48), 0.2))
        with pytest.raises(TooFewHouseholds):
            split_households(ps, SplitSpec(holdout_fraction=0.4, seed=0))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), fraction=st.floats(0.2, 0.8))
    def test_partition_property(self, seed, fraction):
        values = np.full((20, 48), 0.1)
        ps = ProfileSet(
            values=values,
            household_ids=tuple(f"h{i}" for i in range(20)),
            start_dates=(dt.date(2012, 1, 1),) * 20,
            horizon=Horizon.DAILY,
        )
        train, holdout = split_households(ps, SplitSpec(holdout_fraction=fraction, seed=seed))
        assert set(train.household_ids).isdisjoint(holdout.household_ids)
        assert set(train.household_ids) | set(holdout.household_ids) == set(ps.household_ids)
