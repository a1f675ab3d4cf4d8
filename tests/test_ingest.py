"""Daily-CSV ingestion and export against a row-by-row reference reader."""

import csv
import datetime
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenbreak.cli import IngestResult, ingest_daily, write_daily_csv
from eigenbreak.datagen import DGPSpec, generate
from eigenbreak.funcspace import CoeffSeries, fourier_basis
from reference import project

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)

DAYS_PER_YEAR = 365


# ---------------------------------------------------------------------------
# reference reader: a dict of readings per year, checked row by row and
# projected year by year; the oracle for ingest_daily


def _reference_day_index(date: datetime.date) -> int | None:
    """Day position on the fixed 365-day grid; None for Feb 29."""
    if date.month == 2 and date.day == 29:
        return None
    day = date.timetuple().tm_yday
    leap = date.year % 4 == 0 and (date.year % 100 != 0 or date.year % 400 == 0)
    if leap and (date.month, date.day) > (2, 29):
        day -= 1
    return day


def reference_ingest(csv_path, order: int, min_days: int = 360) -> IngestResult:
    per_year: dict[int, dict[int, float]] = {}
    bad_lines: list[str] = []
    with open(csv_path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header] != ["date", "value"]:
            raise ValueError(f"{csv_path}: expected header 'date,value', got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                bad_lines.append(f"line {lineno}: expected 2 fields, got {len(row)}")
                continue
            raw_date, raw_value = row[0].strip(), row[1].strip()
            try:
                date = datetime.date.fromisoformat(raw_date)
            except ValueError:
                bad_lines.append(f"line {lineno}: unparseable date {raw_date!r}")
                continue
            if not raw_value:
                continue  # missing reading
            try:
                value = float(raw_value)
            except ValueError:
                bad_lines.append(f"line {lineno}: unparseable value {raw_value!r}")
                continue
            if not math.isfinite(value):
                bad_lines.append(f"line {lineno}: non-finite value {raw_value!r}")
                continue
            day = _reference_day_index(date)
            if day is None:
                continue  # Feb 29 dropped
            readings = per_year.setdefault(date.year, {})
            if day in readings:
                bad_lines.append(f"line {lineno}: duplicate reading for {raw_date}")
                continue
            readings[day] = value
    if bad_lines:
        shown = "; ".join(bad_lines[:5])
        more = f" (+{len(bad_lines) - 5} more)" if len(bad_lines) > 5 else ""
        raise ValueError(f"{csv_path}: {shown}{more}")

    basis = fourier_basis(order, DAYS_PER_YEAR)
    rows = []
    years = []
    excluded = []
    for year in sorted(per_year):
        readings = per_year[year]
        if len(readings) < min_days:
            excluded.append((year, len(readings)))
            continue
        days = np.array(sorted(readings))
        values = np.array([readings[d] for d in days])
        positions = (days - 0.5) / DAYS_PER_YEAR
        rows.append(project(values, positions, basis))
        years.append(year)
    if not rows:
        raise ValueError(f"{csv_path}: no year has at least {min_days} valid readings")
    return IngestResult(
        series=CoeffSeries(np.vstack(rows), basis),
        years=tuple(years),
        excluded=tuple(excluded),
    )


#: complete years share one multi-column solve, which rounds apart from the
#: reference's solve of each year on its own; set before the first comparison
COMPLETE_YEAR_TOLERANCE = 1e-13


def _outcome(reader, path, order, min_days):
    """Coefficient rows, years and exclusions, or the error text."""
    try:
        result = reader(path, order, min_days)
    except ValueError as exc:
        return "error", str(exc)
    return result.series.coeffs, result.years, result.excluded


def assert_matches_reference(path, order=3, min_days=360, tolerance=0.0):
    """Years, exclusions and error texts equal the reference reader's; so do
    the coefficient bytes, or, given a ``tolerance``, the coefficients to
    within that fraction of the largest one."""
    got = _outcome(ingest_daily, path, order, min_days)
    want = _outcome(reference_ingest, path, order, min_days)
    if isinstance(got[0], str) or isinstance(want[0], str):
        assert got == want
        return
    assert got[1:] == want[1:]
    if tolerance == 0.0:
        assert got[0].tobytes() == want[0].tobytes()
    else:
        assert got[0].shape == want[0].shape
        assert np.max(np.abs(got[0] - want[0])) <= tolerance * np.max(np.abs(want[0]))


# ---------------------------------------------------------------------------
# generated files

YEARS = st.sampled_from([1900, 1999, 2000, 2001, 2004])
VALUES = st.floats(-40.0, 40.0, allow_nan=False).map(repr)
BAD_DATES = ["2001-02-30", "2001-13-01", "0000-01-01", "20010101", "abc", "2001-1-01",
             "2001-00-10", "2001-01-011", "2001-01-01T00", "２００１-01-01"]
BAD_VALUES = ["abc", "nan", "inf", "-inf", "1_0", "1e400", "1.5.2"]


def _iso(year: int, day: int) -> str:
    return (datetime.date(year, 1, 1) + datetime.timedelta(days=day)).isoformat()


@st.composite
def reading_rows(draw):
    """Rows for distinct dates, some padded, quoted or missing their value."""
    dates = draw(st.lists(st.tuples(YEARS, st.integers(0, 364)), min_size=8, max_size=60,
                          unique=True))
    rows = []
    for year, day in dates:
        date, value = _iso(year, day), draw(VALUES)
        rows.append(draw(st.sampled_from([
            f"{date},{value}", f"  {date} ,\t{value} ", f'"{date}","{value}"', f"{date},",
        ])))
    return rows


@st.composite
def odd_rows(draw):
    """Rows that are skipped, or wrong in one of the ways ingestion reports."""
    date = _iso(draw(YEARS), draw(st.integers(0, 364)))
    value = draw(VALUES)
    # a Feb 29 row's value is checked before its day is dropped
    feb29 = f"{draw(st.sampled_from([2000, 2004]))}-02-29"
    return draw(st.sampled_from([
        f"{draw(YEARS)}-02-29,{value}", "", "  ", ",", '"",""', date, f"{date},{value},1",
        f"{draw(st.sampled_from(BAD_DATES))},{value}",
        f"{date},{draw(st.sampled_from(BAD_VALUES))}",
        f"{feb29},{draw(st.sampled_from(BAD_VALUES))}", f"{feb29},",
    ]))


@given(
    rows=reading_rows(),
    odd=st.lists(odd_rows(), max_size=8),
    repeats=st.lists(st.integers(0, 59), max_size=3),
    order=st.sampled_from([1, 3]),
    min_days=st.sampled_from([1, 4, 8]),
    newline=st.sampled_from(["\n", "\r\n"]),
    data=st.data(),
)
@PROPERTY
def test_ingest_matches_reference_reader(tmp_path_factory, rows, odd, repeats, order,
                                         min_days, newline, data):
    # repeated rows are second readings for a day, possibly after faulty rows
    rows = rows + odd + [rows[i] for i in repeats if i < len(rows)]
    rows = data.draw(st.permutations(rows))
    path = tmp_path_factory.mktemp("ingest") / "daily.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(newline.join(["date,value", *rows]) + newline)
    assert_matches_reference(path, order, min_days)


def test_ingest_matches_reference_on_generated_years(tmp_path):
    series = generate(DGPSpec(N=6, T=9, seed=5))
    path = tmp_path / "series.csv"
    write_daily_csv(series, 1998, path)
    assert_matches_reference(path, order=9, tolerance=COMPLETE_YEAR_TOLERANCE)
    lines = path.read_text().splitlines()
    rng = np.random.default_rng(1)
    kept = [line for i, line in enumerate(lines[1:]) if not (730 <= i < 1000 and i % 3)]
    rng.shuffle(kept)
    kept.insert(40, "2000-02-29,3.0")
    kept[50] = kept[50].split(",")[0] + ","
    path.write_text("\n".join([lines[0], *kept]) + "\n")
    assert_matches_reference(path, order=9, min_days=300, tolerance=COMPLETE_YEAR_TOLERANCE)
    result = ingest_daily(path, order=9, min_days=300)
    assert result.years == (1998, 1999, 2001, 2002, 2003)
    assert result.excluded == ((2000, 185),)


def test_ingest_matches_reference_on_a_shuffled_mix_of_years(tmp_path):
    # complete years, one year missing scattered days, one at exactly
    # min_days and one below it, and a Feb 29 row in a complete leap year
    path = tmp_path / "mixed.csv"
    write_daily_csv(generate(DGPSpec(N=7, T=9, seed=8)), 1998, path)
    header, *rows = path.read_text().splitlines()
    rng = np.random.default_rng(4)
    by_year = [rows[i:i + DAYS_PER_YEAR] for i in range(0, len(rows), DAYS_PER_YEAR)]
    for year_rows, missing in zip(by_year[3:], (12, 15, 0, 16)):
        for i in rng.choice(DAYS_PER_YEAR, missing, replace=False).tolist():
            # a missing day at an odd index keeps its row with an empty value;
            # one at an even index loses its row
            year_rows[i] = year_rows[i].split(",")[0] + "," if i % 2 else None
    mixed = [row for year_rows in by_year for row in year_rows if row is not None]
    mixed.append("2000-02-29,7.5")
    rng.shuffle(mixed)
    path.write_text("\n".join([header, *mixed]) + "\n")

    assert_matches_reference(path, order=9, min_days=350, tolerance=COMPLETE_YEAR_TOLERANCE)
    result = ingest_daily(path, order=9, min_days=350)
    assert result.years == (1998, 1999, 2000, 2001, 2002, 2003)
    assert result.excluded == ((2004, 349),)
    # the two years short of complete are each solved alone, as the reference does
    reference = reference_ingest(path, order=9, min_days=350).series.coeffs
    np.testing.assert_array_equal(result.series.coeffs[[3, 4]], reference[[3, 4]])


#: ingest_daily's tracemalloc peak on a 123-year file at order 41, fixed
#: before the first run; holding every row's texts at once it was 16 MiB
INGEST_PEAK_BYTES = 12 * 2**20


def test_ingest_memory_on_a_century_of_readings(tmp_path):
    path = tmp_path / "daily.csv"
    write_daily_csv(generate(DGPSpec(N=123, T=21, seed=7)), 1896, path)
    ingest_daily(path, order=41)  # the basis is built once per process
    tracemalloc.start()
    try:
        result = ingest_daily(path, order=41)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.years == tuple(range(1896, 2019))
    assert peak < INGEST_PEAK_BYTES, f"peak {peak / 2**20:.1f} MiB"


# ---------------------------------------------------------------------------
# error texts


def _ingest_error(tmp_path, body: str) -> str:
    path = tmp_path / "bad.csv"
    path.write_text("date,value\n" + body)
    with pytest.raises(ValueError) as info:
        ingest_daily(path, order=3)
    message = str(info.value)
    assert message.startswith(f"{path}: ")
    return message[len(f"{path}: "):]


def test_ingest_reports_field_count(tmp_path):
    assert _ingest_error(tmp_path, "2001-01-01,1.0\n2001-01-02,1.0,2\n") == \
        "line 3: expected 2 fields, got 3"


def test_ingest_reports_unparseable_value(tmp_path):
    assert _ingest_error(tmp_path, "2001-01-01, abc \n") == "line 2: unparseable value 'abc'"


def test_ingest_reports_non_finite_value(tmp_path):
    assert _ingest_error(tmp_path, "2001-01-01,1.0\n2001-01-02,nan\n") == \
        "line 3: non-finite value 'nan'"


def test_ingest_lists_first_five_bad_lines_in_line_order(tmp_path):
    body = "".join([
        "2001-01-01,1.0\n",
        "2001-01-01,2.0\n",   # line 3: duplicate
        "2001-02-30,1.0\n",   # line 4: date
        "2001-01-03,x\n",     # line 5: value
        "2001-01-04\n",       # line 6: field count
        "2001-01-05,inf\n",   # line 7: non-finite
        "2001-01-06,1.0\n",
        "2001-01-01,3.0\n",   # line 9: duplicate
    ])
    assert _ingest_error(tmp_path, body) == (
        "line 3: duplicate reading for 2001-01-01; line 4: unparseable date '2001-02-30'; "
        "line 5: unparseable value 'x'; line 6: expected 2 fields, got 1; "
        "line 7: non-finite value 'inf' (+1 more)"
    )


# ---------------------------------------------------------------------------
# export


def test_write_daily_csv_bytes_are_golden(tmp_path):
    # digest recorded before the writer formatted dates from array suffixes;
    # 996 is a leap year and all years but the last are below 1000
    path = tmp_path / "series.csv"
    write_daily_csv(generate(DGPSpec(N=5, T=5, seed=3)), 996, path)
    lines = path.read_text().splitlines()
    assert lines[1].startswith("0996-01-01,") and lines[-1].startswith("1000-12-31,")
    assert lines[1 + 59].startswith("0996-03-01,")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "0aa7509a3ab71174aa34dc8c3c7d6d0ee61f3ef6029022d3567b6f0b3030d314")


@pytest.mark.parametrize("start_year, message", [(0, "year 0 "), (9997, "year 10000 ")])
def test_write_daily_csv_refuses_years_outside_the_calendar(tmp_path, start_year, message):
    path = tmp_path / "series.csv"
    with pytest.raises(ValueError, match=message):
        write_daily_csv(generate(DGPSpec(N=4, T=5, seed=3)), start_year, path)
    assert not path.exists()
